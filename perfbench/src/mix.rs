//! The `service_mix` workload: the `dr-load` issue/teardown/fact-inject mix
//! over `InProcHub`, closed-loop, many sessions on one thread.
//!
//! Every request crosses the real byte codec; no socket is involved. In the
//! traced run each request is taken apart at the service's public
//! functions (`Request::encode`/`decode`, `RoutingService::apply`,
//! `Response::encode`/`decode`), and `Advance` is split into the
//! simulation (`RoutingHarness::run_until`) and the subscription poll
//! (`Advance` of 0 ms). The service's own simulator cannot host a wrapped
//! processor, so the traced run also feeds every engine-visible operation
//! to a mirror deployment of `Probe`s over the same topology; the mirror
//! supplies the netsim/processor split and is left out of the ledger.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dr_core::{
    NetMsg, ProcessorConfig, ProcessorStats, QueryId, QueryLibrary, QueryProcessor, StateFootprint,
};
use dr_netsim::{SimConfig, SimDuration, Simulator};
use dr_service::protocol::{IssueOptions, Request, Response, WireTuple, WireValue};
use dr_service::service::{default_topology, ServiceConfig};
use dr_service::transport::{InProcConn, InProcHub};
use dr_service::{Client, BEST_PATH_PROGRAM};
use dr_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{self, Verdict};
use crate::simwl::{compile, finite_routes, stats_delta, sub_seed, Counters, SettleTracker};
use crate::trace::{Probe, Tracer};

/// Live Best-Path queries each session holds.
const QUERIES_PER_SESSION: usize = 2;
/// Simulated milliseconds one `Advance` covers (one `step_ms` sample).
const STEP_MS: u64 = 400;
/// Warmup after set-up: `Advance` steps and horizon, in simulated ms.
const WARM_STEP_MS: u64 = 20;
const WARM_MS: u64 = 10_000;
/// Quiet time before the end-of-phase oracle check, in 1 s steps.
const SETTLE_STEPS: usize = 10;

/// Shape of the mix.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    pub sessions: usize,
    pub rounds: usize,
}

impl Size {
    pub fn full() -> Size {
        Size { nodes: 16, sessions: 16, rounds: 50 }
    }

    pub fn tiny() -> Size {
        Size { nodes: 6, sessions: 2, rounds: 4 }
    }
}

/// Outcome of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// Indices of the spans recorded during the measured phase.
    pub spans: std::ops::Range<usize>,
    pub step_ms: Vec<f64>,
    pub request_us: Vec<f64>,
    pub overhead_kb_per_node: f64,
    pub verdict: Verdict,
    pub issued: u64,
    pub torn_down: u64,
    pub deltas: u64,
    pub lagged: u64,
    pub errors: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub counters: Counters,
    /// Traced run: the mirror's processor counters equal the service's.
    pub mirror_exact: Option<bool>,
}

/// A deployment that mirrors the service's engine work with `Probe`s.
struct Mirror {
    sim: Simulator<Probe>,
    library: Arc<QueryLibrary>,
}

impl Mirror {
    fn new(nodes: usize, tracer: &Tracer) -> Mirror {
        let library = Arc::new(QueryLibrary::new());
        let config = ProcessorConfig::new(Arc::clone(&library));
        let apps =
            (0..nodes).map(|_| Probe::new(QueryProcessor::new(config.clone()), tracer.clone()));
        let sim = Simulator::new(default_topology(nodes), apps.collect(), SimConfig::default());
        Mirror { sim, library }
    }

    fn inject(&mut self, node: u32, msg: NetMsg) {
        let now = self.sim.now();
        self.sim.inject(now, NodeId::new(node), msg);
    }
}

/// A connected set of sessions holding their target queries.
pub struct Mix {
    size: Size,
    hub: InProcHub,
    clients: Vec<Client<InProcConn>>,
    live: Vec<Vec<QueryId>>,
    subscribed: Vec<bool>,
    /// Last cost injected into each live query's `link(0,1)` fact.
    injected: BTreeMap<QueryId, f64>,
    rng: StdRng,
    tracer: Tracer,
    mirror: Option<Mirror>,
    /// Requests made and requests answered with an error, since set-up.
    pub attempted: u64,
    pub failed: u64,
    /// Mean simulated time of each route's last change in the warmup.
    pub convergence_sim_s: f64,
    rep: Rep,
}

fn apply_span(req: &Request) -> &'static str {
    match req {
        Request::IssueQuery { .. } => "service.apply.issue",
        Request::TeardownQuery { .. } => "service.apply.teardown",
        Request::InjectFacts { .. } => "service.apply.inject",
        Request::Subscribe { .. } => "service.apply.subscribe",
        Request::Advance { .. } => "service.apply.advance",
        _ => "service.apply.other",
    }
}

impl Mix {
    /// Set-up (what `setup_s` times): start the service, connect every
    /// session and issue its target queries.
    pub fn setup(seed: u64, size: Size, tracer: &Tracer) -> Mix {
        let hub = InProcHub::new(default_topology(size.nodes), ServiceConfig::default());
        let clients = (0..size.sessions)
            .map(|i| {
                Client::connect(hub.connect(), &format!("mix-{i}")).expect("in-process connect")
            })
            .collect();
        let mut mix = Mix {
            size,
            hub,
            clients,
            live: vec![Vec::new(); size.sessions],
            subscribed: vec![false; size.sessions],
            injected: BTreeMap::new(),
            rng: StdRng::seed_from_u64(sub_seed(seed, 5)),
            tracer: tracer.clone(),
            mirror: tracer.enabled().then(|| Mirror::new(size.nodes, tracer)),
            attempted: 0,
            failed: 0,
            convergence_sim_s: 0.0,
            rep: Rep::default(),
        };
        for i in 0..size.sessions {
            while mix.live[i].len() < QUERIES_PER_SESSION {
                mix.issue(i);
            }
        }
        mix
    }

    /// Untimed warmup in fixed `Advance` steps; records the mean simulated
    /// time at which the set-up's routes last changed.
    pub fn warmup(&mut self) {
        let qids: Vec<QueryId> = self.live.iter().flatten().copied().collect();
        let mut tracker = SettleTracker::default();
        let mut events = 0;
        let mut elapsed = 0;
        while elapsed < WARM_MS {
            self.advance(WARM_STEP_MS);
            elapsed += WARM_STEP_MS;
            self.hub.with_service(|svc| {
                let sim = svc.harness().sim();
                if sim.events_processed() != events {
                    events = sim.events_processed();
                    tracker.observe(elapsed as f64 / 1e3, sim.apps(), &qids);
                }
            });
        }
        self.convergence_sim_s = tracker.mean_settle_s();
    }

    fn engine_stats(&self) -> ProcessorStats {
        self.hub.with_service(|svc| svc.harness().processor_stats())
    }

    fn footprint(&self) -> StateFootprint {
        self.hub.with_service(|svc| svc.harness().state_footprint())
    }

    /// One request on behalf of session `i`; errors are counted, never
    /// fatal.
    fn request(&mut self, i: usize, req: Request) -> Option<Response> {
        self.attempted += 1;
        let result = if self.tracer.enabled() {
            self.traced_request(i, req)
        } else {
            self.clients[i].request(&req).map_err(|e| e.to_string())
        };
        match result {
            Ok(resp) => Some(resp),
            Err(e) => {
                eprintln!("service_mix: request failed: {e}");
                self.failed += 1;
                self.rep.errors += 1;
                None
            }
        }
    }

    /// A control request, timed into `request_us`.
    fn control(&mut self, i: usize, req: Request) -> Option<Response> {
        let t = Instant::now();
        let resp = self.request(i, req);
        self.rep.request_us.push(t.elapsed().as_secs_f64() * 1e6);
        resp
    }

    /// The request path taken apart at the codec and service boundaries.
    fn traced_request(&mut self, i: usize, req: Request) -> Result<Response, String> {
        let sid = self.clients[i].session();
        let tracer = self.tracer.clone();
        let hub = &self.hub;
        let rep = &mut self.rep;
        tracer.span("service.request", || {
            let mut frame = Vec::new();
            tracer.span("service.codec.encode", || req.encode(&mut frame));
            let decoded = tracer
                .span("service.codec.decode", || Request::decode(&frame))
                .map_err(|e| e.to_string())?;
            let resp = tracer
                .span(apply_span(&decoded), || hub.with_service(|svc| svc.apply(sid, decoded)));
            let mut back = Vec::new();
            tracer.span("service.codec.encode", || resp.encode(&mut back));
            let resp = tracer
                .span("service.codec.decode", || Response::decode(&back))
                .map_err(|e| e.to_string())?;
            rep.frames += 2;
            rep.frame_bytes += (frame.len() + back.len()) as u64;
            match resp {
                Response::Error { code, message } => Err(format!("{code:?}: {message}")),
                ok => Ok(ok),
            }
        })
    }

    fn issue(&mut self, i: usize) {
        let issuer = self.rng.gen_range(0..self.size.nodes as u32);
        let options = IssueOptions { issuer, ..IssueOptions::default() };
        let req = Request::IssueQuery { program: BEST_PATH_PROGRAM.to_string(), options };
        let Some(Response::Issued { qid }) = self.control(i, req) else { return };
        self.live[i].push(qid);
        self.rep.issued += 1;
        if let Some(m) = &mut self.mirror {
            let tracer = &self.tracer;
            tracer.span("mirror", || {
                m.library.register(compile(qid, tracer));
                m.inject(issuer, NetMsg::Install { qid });
            });
        }
        if !self.subscribed[i] {
            self.subscribed[i] = true;
            self.control(i, Request::Subscribe { qid });
        }
    }

    fn teardown_oldest(&mut self, i: usize) {
        let qid = self.live[i].remove(0);
        self.injected.remove(&qid);
        if self.control(i, Request::TeardownQuery { qid }).is_some() {
            self.rep.torn_down += 1;
        }
        if let Some(m) = &mut self.mirror {
            self.tracer.span("mirror", || m.inject(0, NetMsg::Teardown { qid }));
        }
    }

    /// Perturb the ring link 0→1 in the session's oldest query, alternating
    /// costs so routes move (as `dr-load` does).
    fn inject(&mut self, i: usize) {
        let qid = self.live[i][0];
        let cost = if self.rng.gen_bool(0.5) { 4.0 } else { 1.0 };
        let fact = WireTuple {
            relation: "link".to_string(),
            values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(cost)],
        };
        let items = vec![fact.to_tuple()];
        let req = Request::InjectFacts { qid, node: 0, facts: vec![fact] };
        if self.control(i, req).is_some() {
            self.injected.insert(qid, cost);
        }
        if let Some(m) = &mut self.mirror {
            let msg = NetMsg::Tuples { qid, seq: None, items, provs: Vec::new() };
            self.tracer.span("mirror", || m.inject(0, msg));
        }
    }

    /// One session's operation of a round (the `dr-load` mix).
    fn op(&mut self, i: usize) {
        if self.live[i].len() < QUERIES_PER_SESSION {
            self.issue(i);
            return;
        }
        match self.rng.gen_range(0..3u32) {
            0 => self.teardown_oldest(i),
            1 => self.inject(i),
            _ => {
                self.teardown_oldest(i);
                self.issue(i);
            }
        }
    }

    /// Advance simulated time by `millis` through session 0 and drain every
    /// session's pushes. Returns the wall time of the `Advance` alone.
    fn advance(&mut self, millis: u64) -> f64 {
        let t = Instant::now();
        if self.tracer.enabled() {
            let tracer = self.tracer.clone();
            tracer.span("service.advance.sim", || {
                self.hub.with_service(|svc| {
                    let until = svc.harness().now() + SimDuration::from_millis(millis);
                    svc.harness_mut().run_until(until);
                })
            });
            tracer.span("service.advance.poll", || self.request(0, Request::Advance { millis: 0 }));
        } else {
            self.request(0, Request::Advance { millis });
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(m) = &mut self.mirror {
            let until = m.sim.now() + SimDuration::from_millis(millis);
            self.tracer.span("mirror", || {
                self.tracer.span("netsim.step", || m.sim.run_until(until));
            });
        }
        let tracer = self.tracer.clone();
        tracer.span("service.push", || {
            for client in &mut self.clients {
                let pushes = client.poll_pushed().unwrap_or_else(|e| {
                    eprintln!("service_mix: draining pushes failed: {e}");
                    self.attempted += 1;
                    self.failed += 1;
                    Vec::new()
                });
                for push in pushes {
                    match push {
                        Response::Delta { .. } => self.rep.deltas += 1,
                        Response::Lagged { .. } => self.rep.lagged += 1,
                        _ => {}
                    }
                }
            }
        });
        wall_ms
    }

    /// The measured phase: `rounds` rounds of one operation per session and
    /// one `Advance`, then (untimed) a quiet period, the route oracle check
    /// of every live query, a full teardown and the residue check.
    pub fn measure(mut self) -> (Rep, u64, u64) {
        self.rep = Rep::default();
        self.hub.with_service(|svc| svc.harness_mut().sim_mut().metrics_mut().reset());
        let events_before = self.hub.with_service(|svc| svc.harness().sim().events_processed());
        let stats_before = self.engine_stats();
        let first_span = self.tracer.len();
        let started = Instant::now();
        for round in 0..self.size.rounds {
            self.tracer.set_step(round as u32 + 1);
            for i in 0..self.size.sessions {
                self.op(i);
            }
            let step = self.advance(STEP_MS);
            self.rep.step_ms.push(step);
            if self.tracer.enabled() {
                let footprint = self.tracer.span("state.footprint", || self.footprint());
                let c = &mut self.rep.counters;
                c.stored_tuples_max = c.stored_tuples_max.max(footprint.stored_tuples);
                c.prune_entries_max = c.prune_entries_max.max(footprint.prune_entries);
                c.pending_tuples_end = footprint.pending_tuples;
            }
        }
        self.rep.wall_s = started.elapsed().as_secs_f64();
        self.rep.spans = first_span..self.tracer.len();
        self.tracer.set_step(0);
        self.record_counters(events_before, &stats_before);
        let mut measured = self.rep.clone();

        for _ in 0..SETTLE_STEPS {
            self.advance(1_000);
        }
        measured.verdict = self.check_routes();
        self.drain();
        measured.mirror_exact = self.rep.mirror_exact;
        (measured, self.attempted, self.failed)
    }

    fn record_counters(&mut self, events_before: u64, stats_before: &ProcessorStats) {
        let stats = stats_delta(&self.engine_stats(), stats_before);
        let c = &mut self.rep.counters;
        c.processor = stats;
        self.hub.with_service(|svc| {
            let sim = svc.harness().sim();
            let m = sim.metrics();
            c.events = sim.events_processed() - events_before;
            c.messages = m.total_messages();
            c.bytes = m.total_bytes();
            c.dropped_fault = m.dropped_fault();
            c.dropped_node_down = m.dropped_node_down();
            c.dropped_no_link = m.dropped_no_link();
            self.rep.overhead_kb_per_node = m.per_node_overhead_kb();
        });
    }

    /// Compare every live query's routes with Dijkstra over the service's
    /// topology, with each query's injected `link(0,1)` cost applied.
    fn check_routes(&self) -> Verdict {
        let mut verdict = Verdict::default();
        let n = self.size.nodes;
        self.hub.with_service(|svc| {
            let sim = svc.harness().sim();
            let live: Vec<bool> = (0..n).map(|v| sim.is_up(NodeId::from(v))).collect();
            for &qid in self.live.iter().flatten() {
                let overrides: Vec<(u32, u32, f64)> =
                    self.injected.get(&qid).map(|&c| (0, 1, c)).into_iter().collect();
                let expected = oracle::expected_routes(sim.topology(), &live, &overrides);
                let reported: Vec<_> = (0..n)
                    .map(NodeId::from)
                    .flat_map(|v| finite_routes(sim.app(v), qid, v))
                    .collect();
                verdict.merge(&oracle::check(&expected, &reported));
            }
        });
        verdict
    }

    /// Tear every query down and check that the deployment returns to an
    /// empty footprint (one counted operation).
    fn drain(&mut self) {
        for i in 0..self.size.sessions {
            while !self.live[i].is_empty() {
                self.teardown_oldest(i);
            }
        }
        for _ in 0..20 {
            self.advance(STEP_MS);
        }
        if let Some(m) = &self.mirror {
            let mut mirrored = ProcessorStats::default();
            for app in m.sim.apps() {
                mirrored.merge(app.inner.stats());
            }
            self.rep.mirror_exact = Some(mirrored == self.engine_stats());
        }
        self.attempted += 1;
        let residue = self.footprint();
        let live = self.hub.with_service(|svc| svc.live_queries());
        if !residue.is_empty() || live != 0 {
            eprintln!("service_mix: residue after teardown: {residue:?}, {live} live queries");
            self.failed += 1;
        }
    }
}
