//! Churn-recovery regression tests for the §8 ∞-tombstone pruning.
//!
//! Before the pruning landed, failing a well-connected node of a dense
//! overlay made incremental maintenance enumerate exponentially many
//! infinite-cost tombstone paths (the PR 2 diagnosis: 16-node Dense-UUNET,
//! >3 min and >19 GB RSS). These tests pin the fixed behavior:
//!
//! * the hub-failure repro completes in seconds under a strict
//!   derived-tuple budget, and
//! * the post-failure routing state matches a from-scratch recomputation
//!   on the surviving topology (recovery converges to the right answer,
//!   not just *an* answer).

use declarative_routing::engine::scenario::{Probe, ScenarioBuilder, ScenarioRun};
use declarative_routing::engine::{QueryDef, RoutingHarness};
use declarative_routing::netsim::{LinkParams, SimDuration, SimTime, Topology};
use declarative_routing::protocols::best_path;
use declarative_routing::types::NodeId;
use declarative_routing::workloads::{OverlayKind, OverlayParams};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The PR 2 repro overlay: 16-node Dense-UUNET, seed 9.
fn repro_overlay() -> Topology {
    OverlayParams { nodes: 16, ..OverlayParams::planetlab(OverlayKind::DenseUunet, 9) }.generate()
}

/// The best-connected node other than the issuing node 0 — failing it used
/// to trigger the tombstone explosion.
fn hub_of(topo: &Topology) -> NodeId {
    topo.nodes()
        .filter(|n| *n != NodeId::new(0))
        .max_by_key(|&n| topo.degree(n))
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
        let node = NodeId::new(i);
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

#[test]
fn hub_failure_on_dense_overlay_is_one_invalidation_wave() {
    let wall = Instant::now();
    let topo = repro_overlay();
    let hub = hub_of(&topo);
    // One scenario: converge for 120 s, fail the hub, re-converge. The
    // processor-stats probe samples the deployment counters at both
    // boundaries (the failure at t=120 is only *detected* at t=120.1, so
    // the first sample still reads the convergence-phase counters).
    let run = ScenarioBuilder::over(topo)
        .query(QueryDef::new(best_path()))
        .fail(SimTime::from_secs(120), hub)
        .sample_every(SimDuration::from_secs(120))
        .until(SimTime::from_secs(240))
        .probes([Probe::ProcessorStats])
        .execute()
        .expect("churn scenario runs");
    let harness = &run.harness;
    let handle = &run.handles[0];
    let stats_at = |t: f64| {
        run.report
            .stats_series
            .iter()
            .find(|(at, _)| *at == t)
            .map(|(_, s)| s.clone())
            .expect("stats sampled")
    };
    let converged = stats_at(120.0);
    assert!(converged.tuples_derived > 0, "query never converged");

    let after = stats_at(240.0);
    let recovery_derived = after.tuples_derived - converged.tuples_derived;

    // The explosion derived (effectively) unboundedly many ∞ paths; the
    // invalidation wave must stay within a small multiple of the state
    // built during initial convergence.
    assert!(
        recovery_derived < 2 * converged.tuples_derived,
        "recovery derived {recovery_derived} tuples vs {} at convergence — \
         tombstone pruning regressed",
        converged.tuples_derived
    );
    assert!(
        after.tombstones_collapsed > 0,
        "hub failure on a dense overlay must exercise ∞-tombstone collapsing"
    );
    // Routes re-converge around the failed hub: node 0 still reaches every
    // other surviving node.
    let recovered = cost_map(harness, handle, Some(hub), 16);
    let from_zero = recovered.keys().filter(|(s, _)| *s == NodeId::new(0)).count();
    assert_eq!(from_zero, 14, "node 0 should reach all 14 surviving peers: {recovered:?}");
    // Loudly fail on a wall-clock regression (the broken engine ran >3 min
    // before being killed; the fixed one takes seconds even in debug).
    assert!(
        wall.elapsed().as_secs() < 120,
        "hub-failure repro took {:?} — incremental maintenance regressed",
        wall.elapsed()
    );
}

/// Regression for the ROADMAP follow-up: the per-query aggregate-selection
/// prune map must not grow monotonically under churn.
///
/// Deliberately stays on the low-level harness surface (not the scenario
/// API): it reads per-node `prune_entries` between hand-placed fail/join
/// cycles, which is processor-internal state no scenario probe exposes. Dead (destination,
/// next-hop) groups — routes whose recorded best was poisoned to ∞ — are
/// evicted once their invalidation wave has run, so repeating the same
/// fail+join cycle leaves the map at (or below) its size after the first
/// cycle instead of ratcheting up by one generation of tombstone groups per
/// cycle.
#[test]
fn prune_map_does_not_grow_monotonically_across_churn_cycles() {
    let topo = repro_overlay();
    let hub = hub_of(&topo);
    let mut harness = RoutingHarness::new(topo);
    let handle = harness.issue(QueryDef::new(best_path())).expect("query localizes");
    let qid = handle.id();

    harness.run_until(SimTime::from_secs(120));
    let total_entries =
        |h: &RoutingHarness| -> usize { h.sim().apps().map(|a| a.prune_entries(qid)).sum() };
    let at_convergence = total_entries(&harness);
    assert!(at_convergence > 0, "converged deployment should hold prune state");

    // Three identical fail+join cycles of the hub. The simulation is
    // deterministic, so every cycle does the same work; only a leak can
    // make later cycles end with more retained prune state than the first.
    let mut after_cycle = Vec::new();
    let mut t = 120u64;
    for _ in 0..3 {
        harness.sim_mut().schedule_node_fail(SimTime::from_secs(t), hub);
        harness.run_until(SimTime::from_secs(t + 60));
        harness.sim_mut().schedule_node_join(SimTime::from_secs(t + 60), hub);
        harness.run_until(SimTime::from_secs(t + 120));
        t += 120;
        after_cycle.push(total_entries(&harness));
    }

    let stats = harness.processor_stats();
    assert!(stats.prune_evicted > 0, "churn cycles must exercise prune-map eviction: {stats:?}");
    assert!(
        after_cycle[1] <= after_cycle[0] && after_cycle[2] <= after_cycle[0],
        "prune map ratchets across identical churn cycles: {after_cycle:?} \
         (entries at convergence: {at_convergence})"
    );
    // Routes still heal after the final rejoin (bounding must not change
    // recovery semantics).
    let recovered = cost_map(&harness, &handle, None, 16);
    let from_zero = recovered.keys().filter(|(s, _)| *s == NodeId::new(0)).count();
    assert_eq!(from_zero, 15, "node 0 should reach every peer after rejoin");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Post-failure forwarding state with tombstone pruning matches a
    /// from-scratch recomputation on the surviving topology.
    #[test]
    fn recovery_matches_from_scratch_recomputation(nodes in 10usize..13, seed in 0u64..500) {
        let params = OverlayParams { nodes, ..OverlayParams::planetlab(OverlayKind::DenseUunet, seed) };
        let topo = params.generate();
        let victim = hub_of(&topo);

        // Incremental: converge, fail the victim, re-converge — one
        // declarative scenario (no probes needed; the assertions read the
        // finished deployment through the returned harness + handle).
        let inc: ScenarioRun = ScenarioBuilder::over(topo.clone())
            .query(QueryDef::new(best_path()))
            .fail(SimTime::from_secs(120), victim)
            .probes([])
            .sample_every(SimDuration::from_secs(130))
            .until(SimTime::from_secs(260))
            .execute()
            .expect("incremental scenario runs");
        let recovered = cost_map(&inc.harness, &inc.handles[0], Some(victim), nodes);

        // Reference: the surviving topology (victim isolated), from scratch.
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
        for (pair, ref_cost) in &reference {
            match recovered.get(pair) {
                Some(cost) => prop_assert_eq!(
                    cost, ref_cost,
                    "pair {:?}: incremental recovery found cost {} but from-scratch says {}",
                    pair, cost, ref_cost
                ),
                None => prop_assert!(false, "pair {:?} lost during recovery", pair),
            }
        }
        for pair in recovered.keys() {
            prop_assert!(
                reference.contains_key(pair),
                "pair {:?} survives incrementally but is unreachable from scratch",
                pair
            );
        }
    }
}
