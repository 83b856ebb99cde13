//! Chaos tests for the loss-tolerant transport (PR 8).
//!
//! The netsim wire can now drop, duplicate, and reorder messages under a
//! seeded [`FaultPlan`]; the processors compensate with sequence-numbered
//! batches, cumulative acks, and capped-backoff retransmission. These tests
//! pin the contract from both ends:
//!
//! * **exactness under storms** — with loss up to 20% plus duplication and
//!   reordering, a dense-overlay churn run converges to *exactly* the
//!   routes a lossless from-scratch recomputation finds (the
//!   `tests/churn_recovery.rs` oracle, now with a hostile wire), and
//! * **idempotence of control traffic** — duplicate or reordered
//!   `Install` / `CacheInstall` / `Teardown` deliveries leave result
//!   multisets and the deployment's [`StateFootprint`] unchanged, and a
//!   node that missed the `Install` flood repairs itself by requesting the
//!   query from whoever ships it tuples.

use declarative_routing::engine::processor::{NetMsg, ReliabilityConfig};
use declarative_routing::engine::scenario::{ScenarioBuilder, ScenarioRun};
use declarative_routing::engine::{QueryDef, RoutingHarness};
use declarative_routing::netsim::{
    FaultPlan, LinkFaults, LinkParams, SimDuration, SimTime, Topology,
};
use declarative_routing::protocols::best_path;
use declarative_routing::types::{Cost, NodeId};
use declarative_routing::workloads::{OverlayKind, OverlayParams};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::collections::BTreeMap;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A line 0 - 1 - ... - k-1 with unit costs.
fn line(k: usize) -> Topology {
    let mut t = Topology::new(k);
    for i in 0..k - 1 {
        t.add_bidirectional(
            n(i as u32),
            n(i as u32 + 1),
            LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
        );
    }
    t
}

/// The best-connected node other than the issuing node 0.
fn hub_of(topo: &Topology) -> NodeId {
    topo.nodes()
        .filter(|nd| *nd != n(0))
        .max_by_key(|&nd| topo.degree(nd))
        .expect("overlay has nodes")
}

/// Finite best-path costs per (src, dst), read from each surviving node's
/// own store, in integer milli-cost (exact for identical float sums).
fn cost_map(
    harness: &RoutingHarness,
    handle: &declarative_routing::engine::harness::QueryHandle,
    skip: Option<NodeId>,
    num_nodes: usize,
) -> BTreeMap<(NodeId, NodeId), u64> {
    let mut out = BTreeMap::new();
    for i in 0..num_nodes as u32 {
        let node = n(i);
        if Some(node) == skip {
            continue;
        }
        for route in handle.results_at(harness, node).expect("routes decode") {
            if route.src != node || Some(route.dst) == skip || !route.cost.is_finite() {
                continue;
            }
            out.insert((route.src, route.dst), (route.cost.value() * 1000.0).round() as u64);
        }
    }
    out
}

/// A hostile wire: `loss` drop probability plus duplication and reordering
/// on every directed link.
fn storm(seed: u64, loss: f64) -> FaultPlan {
    FaultPlan::new(seed).uniform(
        LinkFaults::none()
            .with_drop(loss)
            .with_duplicate(0.10)
            .with_reorder(0.10, SimDuration::from_millis(25)),
    )
}

// ---------------------------------------------------------------------------
// Deterministic transport behavior
// ---------------------------------------------------------------------------

/// A lossy line still computes every pair, and the transport visibly works
/// for it: batches are retransmitted and acknowledged.
#[test]
fn lossy_line_converges_exactly_with_retransmissions() {
    let k = 5;
    let run = ScenarioBuilder::over(line(k))
        .query(QueryDef::new(best_path()))
        .faults(storm(42, 0.15))
        .sample_every(SimDuration::from_secs(2))
        .until(SimTime::from_secs(60))
        .execute()
        .expect("lossy scenario runs");
    assert_eq!(run.report.queries[0].final_results(), k * (k - 1), "all pairs despite 15% loss");

    let reference = ScenarioBuilder::over(line(k))
        .query(QueryDef::new(best_path()))
        .sample_every(SimDuration::from_secs(2))
        .until(SimTime::from_secs(60))
        .execute()
        .expect("lossless scenario runs");
    assert_eq!(
        cost_map(&run.harness, &run.handles[0], None, k),
        cost_map(&reference.harness, &reference.handles[0], None, k),
        "lossy run must converge to the lossless routes"
    );

    let stats = run.harness.processor_stats();
    assert!(stats.retransmits > 0, "15% loss must force retransmissions: {stats:?}");
    assert!(stats.acks_sent > 0, "sequenced batches must be acknowledged: {stats:?}");
    assert!(
        run.harness.sim().metrics().dropped_fault() > 0,
        "the fault plan must actually have dropped messages"
    );
}

/// The reliable transport on a clean wire never retransmits and never sees
/// a duplicate — the ack machinery runs, nothing else.
#[test]
fn reliable_transport_is_quiet_on_a_clean_wire() {
    let run = ScenarioBuilder::over(line(4))
        .query(QueryDef::new(best_path()))
        .reliability(ReliabilityConfig::default())
        .until(SimTime::from_secs(40))
        .execute()
        .expect("clean reliable scenario runs");
    assert_eq!(run.report.queries[0].final_results(), 12);
    let stats = run.harness.processor_stats();
    assert_eq!(stats.retransmits, 0, "no loss, no retransmits: {stats:?}");
    assert_eq!(stats.dups_dropped, 0, "no duplication, no dropped dups: {stats:?}");
    assert!(stats.acks_sent > 0, "sequenced batches are still acknowledged");
}

/// An all-zero fault plan is behaviorally inert: the report is identical,
/// field for field, to a run that never installed a plan (both with the
/// reliable transport, so the wire accounting matches).
#[test]
fn inert_fault_plan_changes_nothing() {
    let build = || {
        ScenarioBuilder::over(line(4))
            .query(QueryDef::new(best_path()))
            .reliability(ReliabilityConfig::default())
            .sample_every(SimDuration::from_secs(1))
            .until(SimTime::from_secs(30))
    };
    let with_inert_plan = build().faults(FaultPlan::new(7)).run().expect("inert-plan run");
    let without_plan = build().run().expect("plain run");
    assert_eq!(with_inert_plan, without_plan);
}

// ---------------------------------------------------------------------------
// Control-message idempotence (duplicate / reordered Install, CacheInstall,
// Teardown)
// ---------------------------------------------------------------------------

/// Re-delivering the `Install` flood to every node of a converged
/// deployment changes neither the result multiset nor the state footprint.
#[test]
fn duplicate_install_flood_is_idempotent() {
    let k = 4;
    let clean = ScenarioBuilder::over(line(k))
        .query(QueryDef::new(best_path()))
        .until(SimTime::from_secs(40))
        .execute()
        .expect("clean run");

    let mut harness = RoutingHarness::new(line(k));
    let handle = harness.issue(QueryDef::new(best_path())).expect("query localizes");
    let qid = handle.id();
    harness.run_until(SimTime::from_secs(20));
    for i in 0..k as u32 {
        harness.sim_mut().inject(SimTime::from_secs(20), n(i), NetMsg::Install { qid });
    }
    harness.run_until(SimTime::from_secs(40));

    assert_eq!(
        cost_map(&harness, &handle, None, k),
        cost_map(&clean.harness, &clean.handles[0], None, k),
        "duplicate Install must not change the computed routes"
    );
    assert_eq!(
        harness.state_footprint(),
        clean.harness.state_footprint(),
        "duplicate Install must not change the deployment's state footprint"
    );
}

/// A duplicated `Teardown` flood (every node handles it at least twice) is
/// a no-op after the first: the footprint stays fully unwound and the
/// query does not resurrect.
#[test]
fn duplicate_teardown_is_idempotent() {
    let k = 4;
    let mut harness = RoutingHarness::new(line(k));
    let handle = harness.issue(QueryDef::new(best_path())).expect("query localizes");
    let qid = handle.id();
    harness.run_until(SimTime::from_secs(20));

    harness.teardown(qid, SimTime::from_secs(20));
    harness.run_until(SimTime::from_secs(30));
    let unwound = harness.state_footprint();
    assert_eq!(unwound.instances, 0, "teardown must unwind every instance: {unwound:?}");
    assert_eq!(unwound.stored_tuples, 0, "teardown must drop stored tuples: {unwound:?}");

    // Second flood, from the far end this time, plus direct duplicates at
    // every node (a reordered late copy of the first flood).
    harness.teardown_from(qid, n(k as u32 - 1), SimTime::from_secs(30));
    for i in 0..k as u32 {
        harness.sim_mut().inject(SimTime::from_secs(31), n(i), NetMsg::Teardown { qid });
    }
    harness.run_until(SimTime::from_secs(40));
    assert_eq!(harness.state_footprint(), unwound, "duplicate teardown must be a no-op");
    assert!(harness.library().get(qid).is_none(), "the spec stays retired");
}

/// A wire that duplicates *every* message and reorders aggressively — so
/// every `Install`, `CacheInstall`, `Tuples`, `Ack`, and `Teardown` is
/// delivered at least twice, many out of order — still produces exactly
/// the clean run's results and footprint. Sharing is enabled so the
/// `CacheInstall` path is exercised, and the query is torn down at the end
/// so `Teardown` duplication is too.
#[test]
fn duplicating_reordering_wire_preserves_results_and_footprint() {
    let duplicate_everything = FaultPlan::new(3).uniform(
        LinkFaults::none().with_duplicate(1.0).with_reorder(0.5, SimDuration::from_millis(40)),
    );
    let run_one = |plan: Option<FaultPlan>| -> ScenarioRun {
        let mut builder = ScenarioBuilder::over(line(4))
            .query(QueryDef::new(best_path()).sharing(true))
            .reliability(ReliabilityConfig::default())
            .until(SimTime::from_secs(40));
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        builder.execute().expect("sharing scenario runs")
    };
    let clean = run_one(None);
    let stormy = run_one(Some(duplicate_everything));

    assert_eq!(
        cost_map(&stormy.harness, &stormy.handles[0], None, 4),
        cost_map(&clean.harness, &clean.handles[0], None, 4),
        "duplicated control traffic must not change the routes"
    );
    assert_eq!(
        stormy.harness.state_footprint(),
        clean.harness.state_footprint(),
        "duplicated CacheInstall/Install must not inflate the footprint"
    );
    let stats = stormy.harness.processor_stats();
    assert!(stats.dups_dropped > 0, "duplicate batches must be suppressed: {stats:?}");

    // Tear down under the same storm: duplicated Teardown floods must still
    // unwind everything exactly once.
    let mut stormy = stormy;
    let qid = stormy.handles[0].id();
    stormy.harness.teardown(qid, stormy.harness.now());
    stormy.harness.run_to_quiescence();
    let footprint = stormy.harness.state_footprint();
    assert_eq!(footprint.instances, 0, "teardown under duplication: {footprint:?}");
    assert_eq!(footprint.stored_tuples, 0, "teardown under duplication: {footprint:?}");
    assert_eq!(footprint.shared_tuples, 0, "cache must drain with its last user: {footprint:?}");
}

// ---------------------------------------------------------------------------
// Missed-install repair (QueryRequest)
// ---------------------------------------------------------------------------

/// A node that never saw the `Install` flood — it was down when the query
/// was issued, and the shared library lost the spec before it rejoined —
/// repairs itself: the first sequenced tuples for the unknown query make
/// it ask the sender, which restores the spec from its own instance and
/// re-offers the installation.
#[test]
fn missed_install_is_repaired_via_query_request() {
    let k = 4;
    let victim = n(3);
    let mut harness = RoutingHarness::with_reliability(line(k), ReliabilityConfig::default());
    harness.sim_mut().schedule_node_fail(SimTime::from_millis(1), victim);
    let handle = harness
        .issue(QueryDef::new(best_path()).at(SimTime::from_secs(5)))
        .expect("query localizes");
    let qid = handle.id();
    harness.run_until(SimTime::from_secs(30));
    assert!(
        harness.sim().app(victim).installed_queries().is_empty(),
        "the victim was down during dissemination and must not hold the query"
    );

    // Simulate a deployment where the spec is no longer in the (shared)
    // library by the time the victim rejoins: without the repair the
    // piggy-backed installation on first tuple receipt would fail and the
    // victim would stay route-less forever.
    harness.library().remove(qid).expect("spec was registered");
    harness.sim_mut().schedule_node_join(SimTime::from_secs(30), victim);
    harness.run_until(SimTime::from_secs(90));

    assert!(
        harness.sim().app(victim).installed_queries().contains(&qid),
        "the rejoined node must have installed the query via QueryRequest"
    );
    assert!(
        harness.library().get(qid).is_some(),
        "answering a QueryRequest restores the spec into the library"
    );
    // And the repaired node computes the same routes as everyone else: the
    // full line converges to the from-scratch result.
    let scratch = ScenarioBuilder::over(line(k))
        .query(QueryDef::new(best_path()))
        .until(SimTime::from_secs(60))
        .execute()
        .expect("reference run");
    assert_eq!(
        cost_map(&harness, &handle, None, k),
        cost_map(&scratch.harness, &scratch.handles[0], None, k),
        "the repaired deployment must match a from-scratch run"
    );
}

// ---------------------------------------------------------------------------
// Chaos proptest: storms over churn vs from-scratch recomputation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Under a randomized loss/duplication/reordering storm (loss up to
    /// 20%), failing the hub of a dense overlay and re-converging yields
    /// *exactly* the routes a lossless from-scratch recomputation on the
    /// surviving topology finds — the transport makes the hostile wire
    /// invisible to the fixpoint.
    #[test]
    fn chaos_storm_recovery_matches_from_scratch(nodes in 10usize..13, seed in 0u64..500) {
        let params =
            OverlayParams { nodes, ..OverlayParams::planetlab(OverlayKind::DenseUunet, seed) };
        let topo = params.generate();
        let victim = hub_of(&topo);
        let loss = 0.05 + (seed % 4) as f64 * 0.05; // 5%..20%

        let chaotic: ScenarioRun = ScenarioBuilder::over(topo.clone())
            .query(QueryDef::new(best_path()))
            .faults(storm(seed.wrapping_mul(0x9e37_79b9), loss))
            .fail(SimTime::from_secs(120), victim)
            .probes([])
            .sample_every(SimDuration::from_secs(130))
            .until(SimTime::from_secs(260))
            .execute()
            .expect("chaotic scenario runs");
        let recovered = cost_map(&chaotic.harness, &chaotic.handles[0], Some(victim), nodes);

        // Reference: the surviving topology (victim isolated), from
        // scratch, on a perfect wire.
        let mut surviving = Topology::new(nodes);
        for (a, b, params) in topo.all_links() {
            if a != victim && b != victim {
                surviving.add_link(a, b, LinkParams { ..*params });
            }
        }
        let scratch: ScenarioRun = ScenarioBuilder::over(surviving)
            .query(QueryDef::new(best_path()))
            .probes([])
            .sample_every(SimDuration::from_secs(120))
            .until(SimTime::from_secs(120))
            .execute()
            .expect("reference scenario runs");
        let reference = cost_map(&scratch.harness, &scratch.handles[0], Some(victim), nodes);

        prop_assert!(!reference.is_empty(), "reference run computed no routes");
        let stats = chaotic.harness.processor_stats();
        prop_assert!(
            chaotic.harness.sim().metrics().dropped_fault() > 0,
            "the storm must actually drop messages (loss {})", loss
        );
        prop_assert!(stats.retransmits > 0, "loss must force retransmissions: {:?}", stats);
        for (pair, ref_cost) in &reference {
            match recovered.get(pair) {
                Some(cost) => prop_assert_eq!(
                    cost, ref_cost,
                    "pair {:?}: chaotic recovery found cost {} but the lossless oracle says {}",
                    pair, cost, ref_cost
                ),
                None => prop_assert!(false, "pair {:?} lost under the storm", pair),
            }
        }
        for pair in recovered.keys() {
            prop_assert!(
                reference.contains_key(pair),
                "pair {:?} exists under the storm but is unreachable from scratch",
                pair
            );
        }
    }
}
