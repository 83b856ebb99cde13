//! The simulated workloads: `lifecycle_lossy`, and the two known-wrong
//! workloads `rtt_adapt` and `churn_lossy`.
//!
//! Each runs Best-Path queries on an overlay inside a `Simulator<Probe>`
//! built here (so every processor callback can be timed), advances it in
//! fixed simulated steps to a fixed horizon, reads every live node's routes
//! of every live query after each step, and checks them against the
//! Dijkstra oracle at checkpoints where the deployment has had time to
//! settle.
//!
//! The overlay of each workload is part of its definition, drawn from the
//! seed its figure experiment uses (Table 3, Figure 14): drawn from
//! `--seed`, it moved `wall_s` by up to 20% between seeds on `rtt_adapt`.
//! On `lifecycle_lossy`, `--seed` draws the issuing nodes and the fault
//! seed of the wire; on `rtt_adapt`, the issuing node and the RTT
//! measurements. `churn_lossy` takes no input from `--seed` at all: on the
//! lossy wire with a dead neighbour the engine's trajectory is chaotic, and
//! changing only the issuing node moved admitted derivations between 0.32M
//! and 1.42M and `wall_s` by 2x. Its churn sets, lost node, issuer and
//! fault seed are fixed.
//!
//! The engine computes wrong routes on `rtt_adapt` and `churn_lossy` (routes
//! that stay too cheap after link-cost increases, too dear after node
//! failures, and routes to a node that never returns), so they report
//! failed operations on every seed and are left out of the benchmark's
//! gated workloads; they stay runnable to show the defects.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use dr_core::localize::localize;
use dr_core::{
    NetMsg, ProcessorConfig, ProcessorStats, QueryId, QueryLibrary, QueryProcessor, QuerySpec,
    ReliabilityConfig, StateFootprint,
};
use dr_datalog::parse_program;
use dr_netsim::{
    EventSource, FaultPlan, LinkFaults, SimConfig, SimDuration, SimTime, Simulator, TimelineEvent,
    Topology,
};
use dr_service::BEST_PATH_PROGRAM;
use dr_types::{FromTuple, NodeId, RouteEntry};
use dr_workloads::{ChurnSchedule, LinkRttSchedule, OverlayKind, OverlayParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::oracle::{self, Reported, Verdict};
use crate::trace::{Probe, Tracer};

/// Simulated step of the warmups and of the measured phases of
/// `rtt_adapt` and `churn_lossy` (one `step_ms` sample).
const STEP: SimDuration = SimDuration::from_secs(1);
/// Simulated step of the untimed warmup that records route settle times.
const SETTLE_STEP: SimDuration = SimDuration::from_millis(20);
/// Structure seeds: the overlays of Table 3 and Figure 14.
const RTT_STRUCTURE_SEED: u64 = 51;
const CHURN_STRUCTURE_SEED: u64 = 77;
/// Link-RTT measurement rounds of `rtt_adapt`.
const RTT_ROUNDS: usize = 2;
/// Queries `lifecycle_lossy` issues, one per step of `LIFECYCLE_STEP_S`
/// simulated seconds, and the simulated seconds each stays live. A query is
/// checked at the end of its life: 20 s lets a batch be dropped five times
/// in a row and still be delivered by the transport's backoff
/// (0.5 + 1 + 2 + 4 + 8 s).
const LIFECYCLE_QUERIES: u64 = 50;
const LIFECYCLE_STEP_S: u64 = 2;
const LIFECYCLE_LIFE_S: u64 = 20;
/// Quiet time after the last teardown, before the residue check.
const DRAIN_S: u64 = 10;

/// Derive an independent sub-seed (splitmix64 of `seed` and `k`).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One Best-Path query of a workload: issued from `issuer` at `issue`, and
/// torn down from there at `teardown`.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub qid: QueryId,
    pub issuer: NodeId,
    pub issue: SimTime,
    pub teardown: Option<SimTime>,
}

impl Query {
    fn live_at(&self, t: SimTime) -> bool {
        self.issue <= t && self.teardown.is_none_or(|end| t < end)
    }
}

/// A simulated workload, fully generated from its seeds.
pub struct Plan {
    pub topology: Topology,
    pub queries: Vec<Query>,
    pub reliability: Option<ReliabilityConfig>,
    pub faults: Option<FaultPlan>,
    /// End of the warmup (part of set-up) and start of the measured phase.
    pub warmup: SimTime,
    /// End of the measured phase.
    pub horizon: SimTime,
    /// Simulated step of the measured phase (one `step_ms` sample).
    pub step: SimDuration,
    pub timeline: Vec<TimelineEvent<NetMsg>>,
    /// Settled instants at which a query's routes are checked against the
    /// oracle, in time order.
    pub checkpoints: Vec<(SimTime, QueryId)>,
    /// At the horizon every query is torn down, and no node may hold any
    /// query state.
    pub residue_check: bool,
}

/// One query issued at time zero and never torn down, checked at each of
/// `checkpoints`.
fn single_query(issuer: NodeId, checkpoints: &[SimTime]) -> (Vec<Query>, Vec<(SimTime, QueryId)>) {
    let query = Query { qid: 1, issuer, issue: SimTime::ZERO, teardown: None };
    (vec![query], checkpoints.iter().map(|&t| (t, query.qid)).collect())
}

/// Best-Path query lifecycles on the Dense-UUNET overlay with the reliable
/// transport, on a wire that drops 5% and duplicates 10% of messages: one
/// query is issued every step (100 ms into it, from a seeded node) and torn
/// down by its issuer [`LIFECYCLE_LIFE_S`] later, right after its routes are
/// checked, so [`LIFECYCLE_LIFE_S`] / [`LIFECYCLE_STEP_S`] queries are live
/// at once. After the last teardown the deployment drains for [`DRAIN_S`]
/// and must hold no query state. There is no warmup.
pub fn lifecycle_lossy(seed: u64, tiny: bool) -> Plan {
    let nodes = if tiny { 8 } else { 24 };
    let (count, life) = if tiny { (3, 10) } else { (LIFECYCLE_QUERIES, LIFECYCLE_LIFE_S) };
    let step = SimDuration::from_secs(LIFECYCLE_STEP_S);
    let topology = OverlayParams {
        kind: OverlayKind::DenseUunet,
        nodes,
        load_factor: 1.0,
        seed: CHURN_STRUCTURE_SEED,
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 7));
    let queries: Vec<Query> = (0..count)
        .map(|k| {
            let issue = SimTime::ZERO + step.times(k) + SimDuration::from_millis(100);
            Query {
                qid: k as QueryId + 1,
                issuer: NodeId::new(rng.gen_range(0..nodes as u32)),
                issue,
                teardown: Some(issue + SimDuration::from_secs(life)),
            }
        })
        .collect();
    let checkpoints = (0..count)
        .map(|k| (SimTime::ZERO + step.times(k + life / LIFECYCLE_STEP_S), k as QueryId + 1))
        .collect();
    let faults = FaultPlan::new(sub_seed(seed, 4))
        .uniform(LinkFaults::none().with_drop(0.05).with_duplicate(0.10));
    Plan {
        topology,
        queries,
        reliability: Some(ReliabilityConfig::default()),
        faults: Some(faults),
        warmup: SimTime::ZERO,
        horizon: SimTime::ZERO + step.times(count - 1) + SimDuration::from_secs(life + DRAIN_S),
        step,
        timeline: Vec::new(),
        checkpoints,
        residue_check: true,
    }
}

/// All-pairs Best-Path on a Dense-Random overlay under raw link-RTT
/// measurement rounds of 40 s. Each round is followed by a 20 s quiet
/// period that ends in a checkpoint; the round's measurements keep their
/// 40 s spread.
pub fn rtt_adapt(seed: u64, tiny: bool) -> Plan {
    let nodes = if tiny { 8 } else { 24 };
    let rounds = if tiny { 1 } else { RTT_ROUNDS };
    let round = SimDuration::from_secs(if tiny { 10 } else { 40 });
    let settle = SimDuration::from_secs(if tiny { 10 } else { 20 });
    let warmup = SimTime::from_secs(if tiny { 20 } else { 120 });
    let topology = OverlayParams {
        kind: OverlayKind::DenseRandom,
        nodes,
        load_factor: 1.0,
        seed: RTT_STRUCTURE_SEED,
    }
    .generate();
    let first = warmup + SimDuration::from_millis(500);
    let schedule = LinkRttSchedule::new(first, round, rounds, false, sub_seed(seed, 2));
    let timeline = EventSource::<NetMsg>::events_for(&schedule, &topology)
        .into_iter()
        .map(|event| match event {
            TimelineEvent::LinkChange { at, from, to, params } => {
                let r = (at - first).as_micros() / round.as_micros();
                TimelineEvent::LinkChange { at: at + settle.times(r), from, to, params }
            }
            other => other,
        })
        .collect();
    let checkpoints: Vec<SimTime> =
        (0..=rounds as u64).map(|r| warmup + (round + settle).times(r)).collect();
    let (queries, checkpoints) = single_query(issuer(seed, nodes), &checkpoints);
    Plan {
        topology,
        queries,
        reliability: None,
        faults: None,
        warmup,
        horizon: checkpoints.last().expect("at least one checkpoint").0,
        step: STEP,
        timeline,
        checkpoints,
        residue_check: false,
    }
}

/// Best-Path on a Dense-UUNET overlay with the reliable transport on a wire
/// that drops 5% and duplicates 10% of messages, under the alternating 20%
/// fail/rejoin schedule (60 s interval), plus one node outside the churn
/// set that fails half-way through the first rejoined interval and never
/// returns. Checkpoints sit just before each churn event and at the
/// horizon.
pub fn churn_lossy(tiny: bool) -> Plan {
    let nodes = if tiny { 8 } else { 24 };
    let cycles = if tiny { 1 } else { 2 };
    let interval = SimDuration::from_secs(if tiny { 20 } else { 60 });
    let warmup = SimTime::from_secs(if tiny { 20 } else { 60 });
    let topology = OverlayParams {
        kind: OverlayKind::DenseUunet,
        nodes,
        load_factor: 1.0,
        seed: CHURN_STRUCTURE_SEED,
    }
    .generate();
    let start = warmup + SimDuration::from_millis(500);
    let schedule = ChurnSchedule::alternating(
        nodes,
        0.2,
        start,
        interval,
        cycles,
        sub_seed(CHURN_STRUCTURE_SEED, 2),
    );
    let churned: BTreeSet<NodeId> =
        schedule.events().iter().flat_map(|e| e.nodes().iter().copied()).collect();
    let mut timeline = EventSource::<NetMsg>::events_for(&schedule, &topology);
    let outside: Vec<NodeId> =
        (1..nodes as u32).map(NodeId::new).filter(|n| !churned.contains(n)).collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(CHURN_STRUCTURE_SEED, 3));
    if let Some(&lost) = outside.choose(&mut rng) {
        let at = start + interval + SimDuration::from_millis(interval.as_micros() / 2000);
        timeline.push(TimelineEvent::NodeFail { at, node: lost });
    }
    let checkpoints: Vec<SimTime> =
        (0..=2 * cycles as u64).map(|k| warmup + interval.times(k)).collect();
    let faults = FaultPlan::new(sub_seed(CHURN_STRUCTURE_SEED, 4))
        .uniform(LinkFaults::none().with_drop(0.05).with_duplicate(0.10));
    let (queries, checkpoints) = single_query(NodeId::new(0), &checkpoints);
    Plan {
        topology,
        queries,
        reliability: Some(ReliabilityConfig::default()),
        faults: Some(faults),
        warmup,
        horizon: checkpoints.last().expect("at least one checkpoint").0,
        step: STEP,
        timeline,
        checkpoints,
        residue_check: false,
    }
}

fn issuer(seed: u64, nodes: usize) -> NodeId {
    NodeId::new(StdRng::seed_from_u64(sub_seed(seed, 6)).gen_range(0..nodes as u32))
}

/// A deployment after set-up: queries scheduled and the warmup run.
pub struct Deployment {
    pub sim: Simulator<Probe>,
}

/// Parse, localize and plan the Best-Path program as query `qid`: the
/// `localize` layer, timed by the tracer.
pub fn compile(qid: QueryId, tracer: &Tracer) -> QuerySpec {
    let program = tracer
        .span("localize.parse", || parse_program(BEST_PATH_PROGRAM))
        .expect("the Best-Path program parses");
    let localized =
        tracer.span("localize.localize", || localize(&program, &[])).expect("Best-Path localizes");
    tracer.span("localize.plan", || {
        let spec = QuerySpec::new(qid, "best-path", Arc::new(localized));
        spec.static_plans();
        spec
    })
}

/// When each route last changed during a warmup.
#[derive(Debug, Default)]
pub struct SettleTracker {
    /// (query, source, destination) → (hash of the route tuple, or
    /// `GONE`; simulated seconds of its last change).
    routes: BTreeMap<(QueryId, u32, u32), (u64, f64)>,
}

const GONE: u64 = 0;

impl SettleTracker {
    /// Record the routes every node stores for `qids` at `now_s`.
    pub fn observe<'a>(
        &mut self,
        now_s: f64,
        apps: impl Iterator<Item = &'a QueryProcessor>,
        qids: &[QueryId],
    ) {
        let mut seen = BTreeSet::new();
        for app in apps {
            for &qid in qids {
                for tuple in app.results(qid) {
                    let Ok(route) = RouteEntry::from_tuple(&tuple) else { continue };
                    let key = (qid, route.src.index() as u32, route.dst.index() as u32);
                    let mut h = DefaultHasher::new();
                    tuple.hash(&mut h);
                    let sig = h.finish().max(GONE + 1);
                    seen.insert(key);
                    let entry = self.routes.entry(key).or_insert((sig, now_s));
                    if entry.0 != sig {
                        *entry = (sig, now_s);
                    }
                }
            }
        }
        for (key, entry) in self.routes.iter_mut() {
            if entry.0 != GONE && !seen.contains(key) {
                *entry = (GONE, now_s);
            }
        }
    }

    /// Mean over the routes present at the end of the simulated time of
    /// their last change.
    pub fn mean_settle_s(&self) -> f64 {
        let present: Vec<f64> =
            self.routes.values().filter(|(sig, _)| *sig != GONE).map(|&(_, t)| t).collect();
        crate::stats::ratio(present.iter().sum(), present.len() as f64)
    }
}

/// Build the deployment, compile every query and schedule its issue and
/// teardown (no simulated time passes).
pub fn build(plan: &Plan, tracer: &Tracer) -> Deployment {
    build_with(plan, &plan.queries, tracer)
}

/// [`build`] with only `queries` of the plan.
fn build_with(plan: &Plan, queries: &[Query], tracer: &Tracer) -> Deployment {
    let library = Arc::new(QueryLibrary::new());
    for query in queries {
        library.register(compile(query.qid, tracer));
    }
    let mut config = ProcessorConfig::new(Arc::clone(&library));
    config.reliability = plan.reliability;
    let apps = (0..plan.topology.num_nodes())
        .map(|_| Probe::new(QueryProcessor::new(config.clone()), tracer.clone()))
        .collect();
    let mut sim = Simulator::new(plan.topology.clone(), apps, SimConfig::default());
    if let Some(faults) = &plan.faults {
        sim.set_fault_plan(faults.clone());
    }
    for query in queries {
        sim.inject(query.issue, query.issuer, NetMsg::Install { qid: query.qid });
        if let Some(at) = query.teardown {
            sim.inject(at, query.issuer, NetMsg::Teardown { qid: query.qid });
        }
    }
    for event in &plan.timeline {
        event.schedule(&mut sim);
    }
    Deployment { sim }
}

/// Set-up, as `setup_s` times it: build, then run the warmup in fixed
/// steps.
pub fn deploy(plan: &Plan, tracer: &Tracer) -> Deployment {
    let mut dep = build(plan, tracer);
    let mut now = SimTime::ZERO;
    while now < plan.warmup {
        now += STEP;
        tracer.span("netsim.step", || dep.sim.run_until(now));
    }
    dep
}

/// `convergence_sim_s`: an untimed pass in fine steps of the first query
/// alone, from its issue to its first checkpoint, that records when each
/// of its routes last changed; returns the mean over routes, from the
/// issue.
pub fn convergence(plan: &Plan) -> f64 {
    let first = plan.queries[0];
    let until = plan.checkpoints.iter().find(|c| c.1 == first.qid).expect("a checkpoint").0;
    let mut dep = build_with(plan, &[first], &Tracer::off());
    let mut tracker = SettleTracker::default();
    let mut now = first.issue;
    dep.sim.run_until(now);
    let mut events = dep.sim.events_processed();
    while now < until {
        now += SETTLE_STEP;
        dep.sim.run_until(now);
        if dep.sim.events_processed() != events {
            events = dep.sim.events_processed();
            tracker.observe(now.as_secs_f64(), dep.sim.apps().map(|p| &p.inner), &[first.qid]);
        }
    }
    tracker.mean_settle_s() - first.issue.as_secs_f64()
}

/// Decode a node's finite `bestPath` routes.
pub fn finite_routes(app: &QueryProcessor, qid: QueryId, node: NodeId) -> Vec<Reported> {
    app.results(qid)
        .iter()
        .filter_map(|t| RouteEntry::from_tuple(t).ok())
        .filter(|r| r.src == node && r.cost.is_finite())
        .map(|r| (r.src.index() as u32, r.dst.index() as u32, r.cost.value()))
        .collect()
}

/// Engine counters over the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub events: u64,
    pub messages: u64,
    pub bytes: u64,
    pub dropped_fault: u64,
    pub dropped_node_down: u64,
    pub dropped_no_link: u64,
    pub processor: ProcessorStats,
    pub stored_tuples_max: usize,
    pub prune_entries_max: usize,
    pub pending_tuples_end: usize,
}

/// What one measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// Indices of the spans recorded during the measured phase.
    pub spans: std::ops::Range<usize>,
    pub step_ms: Vec<f64>,
    pub request_us: Vec<f64>,
    pub verdict: Verdict,
    pub overhead_kb_per_node: f64,
    pub counters: Counters,
}

fn merged_stats<'a>(apps: impl Iterator<Item = &'a QueryProcessor>) -> ProcessorStats {
    let mut total = ProcessorStats::default();
    for app in apps {
        total.merge(app.stats());
    }
    total
}

fn merged_footprint<'a>(apps: impl Iterator<Item = &'a QueryProcessor>) -> StateFootprint {
    let mut total = StateFootprint::default();
    for app in apps {
        total.merge(&app.state_footprint());
    }
    total
}

/// Field-wise `after - before` of the counters the benchmark reports.
pub fn stats_delta(after: &ProcessorStats, before: &ProcessorStats) -> ProcessorStats {
    ProcessorStats {
        tuples_received: after.tuples_received - before.tuples_received,
        tuples_sent: after.tuples_sent - before.tuples_sent,
        tuples_derived: after.tuples_derived - before.tuples_derived,
        tuples_pruned: after.tuples_pruned - before.tuples_pruned,
        tombstones_collapsed: after.tombstones_collapsed - before.tombstones_collapsed,
        tuples_rejected: after.tuples_rejected - before.tuples_rejected,
        prune_evicted: after.prune_evicted - before.prune_evicted,
        batches: after.batches - before.batches,
        retransmits: after.retransmits - before.retransmits,
        dups_dropped: after.dups_dropped - before.dups_dropped,
        acks_sent: after.acks_sent - before.acks_sent,
        gaps_skipped: after.gaps_skipped - before.gaps_skipped,
        prov_recorded: after.prov_recorded - before.prov_recorded,
        prov_fetches: after.prov_fetches - before.prov_fetches,
    }
}

/// Run the measured phase: fixed simulated steps from the warmup to the
/// horizon, a read of every live node's routes of every live query after
/// each step, an oracle check at each checkpoint, and the residue check at
/// the horizon.
pub fn measure(dep: &mut Deployment, plan: &Plan, tracer: &Tracer) -> Rep {
    let sim = &mut dep.sim;
    let n = sim.topology().num_nodes();
    sim.metrics_mut().reset();
    let events_before = sim.events_processed();
    let stats_before = merged_stats(sim.apps().map(|p| &p.inner));
    let mut rep = Rep::default();
    let mut checkpoints = plan.checkpoints.iter().copied().peekable();
    let mut now = plan.warmup;
    let mut step = 0u32;
    let first_span = tracer.len();
    let started = Instant::now();
    loop {
        for query in plan.queries.iter().filter(|q| q.live_at(now)) {
            let mut reported = Vec::new();
            for node in (0..n).map(NodeId::from).filter(|&v| sim.is_up(v)) {
                let t = Instant::now();
                let routes = tracer
                    .span("bench.read", || finite_routes(&sim.app(node).inner, query.qid, node));
                rep.request_us.push(t.elapsed().as_secs_f64() * 1e6);
                reported.extend(routes);
            }
            if checkpoints.next_if_eq(&(now, query.qid)).is_some() {
                let verdict = tracer.span("bench.oracle", || {
                    let live: Vec<bool> = (0..n).map(|v| sim.is_up(NodeId::from(v))).collect();
                    oracle::check(&oracle::expected_routes(sim.topology(), &live, &[]), &reported)
                });
                rep.verdict.merge(&verdict);
            }
        }
        if now >= plan.horizon {
            if plan.residue_check {
                let footprint = merged_footprint(sim.apps().map(|p| &p.inner));
                rep.verdict.attempted += 1;
                if !footprint.is_empty() {
                    eprintln!("perfbench: query state left after the last teardown: {footprint:?}");
                    rep.verdict.residue += 1;
                }
            }
            break;
        }
        now += plan.step;
        step += 1;
        tracer.set_step(step);
        let t = Instant::now();
        tracer.span("netsim.step", || sim.run_until(now));
        rep.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if tracer.enabled() {
            let footprint =
                tracer.span("state.footprint", || merged_footprint(sim.apps().map(|p| &p.inner)));
            let c = &mut rep.counters;
            c.stored_tuples_max = c.stored_tuples_max.max(footprint.stored_tuples);
            c.prune_entries_max = c.prune_entries_max.max(footprint.prune_entries);
            c.pending_tuples_end = footprint.pending_tuples;
        }
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    assert!(checkpoints.next().is_none(), "a checkpoint's query was not live at its time");
    rep.spans = first_span..tracer.len();
    let metrics = sim.metrics();
    rep.overhead_kb_per_node = metrics.per_node_overhead_kb();
    rep.counters.events = sim.events_processed() - events_before;
    rep.counters.messages = metrics.total_messages();
    rep.counters.bytes = metrics.total_bytes();
    rep.counters.dropped_fault = metrics.dropped_fault();
    rep.counters.dropped_node_down = metrics.dropped_node_down();
    rep.counters.dropped_no_link = metrics.dropped_no_link();
    rep.counters.processor =
        stats_delta(&merged_stats(sim.apps().map(|p| &p.inner)), &stats_before);
    rep
}
