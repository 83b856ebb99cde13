//! Cross-crate integration tests: protocols from `dr-protocols`, localized
//! by `dr-core`, executed over `dr-netsim` topologies from `dr-workloads`,
//! and cross-checked against the centralized evaluator and the hand-coded
//! baselines.

use declarative_routing::baselines::{PathVectorConfig, PathVectorNode};
use declarative_routing::datalog::{check_safety, Database, Evaluator};
use declarative_routing::engine::{QueryDef, RoutingHarness};
use declarative_routing::netsim::{
    LinkParams, SimConfig, SimDuration, SimTime, Simulator, Topology,
};
use declarative_routing::protocols::{
    best_path, best_path_pairs, best_path_pairs_share, distance_vector, dynamic_source_routing,
};
use declarative_routing::types::{Cost, FromTuple, NodeId, PathVector, RouteEntry, Tuple, Value};
use declarative_routing::workloads::{OverlayKind, OverlayParams, PairWorkload, TransitStubParams};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn small_transit_stub(seed: u64) -> declarative_routing::netsim::Topology {
    TransitStubParams {
        domains: 1,
        transit_nodes_per_domain: 2,
        stubs_per_transit_node: 2,
        nodes_per_stub: 4,
        seed,
        ..TransitStubParams::default()
    }
    .generate()
}

/// Cost rounded to integer milliseconds, for order-insensitive comparisons.
fn millis(cost: Cost) -> u64 {
    (cost.value() * 1000.0).round() as u64
}

/// The distributed Best-Path execution agrees with (a) the centralized
/// evaluator and (b) the hand-coded path-vector baseline on the same
/// topology.
#[test]
fn distributed_centralized_and_baseline_agree() {
    let topo = small_transit_stub(3);
    let nodes = topo.num_nodes();

    // Distributed execution.
    let mut harness = RoutingHarness::new(topo.clone());
    let handle = harness.issue(QueryDef::new(best_path()).from(n(0)).at(SimTime::ZERO)).unwrap();
    harness.run_until(SimTime::from_secs(90));
    let mut distributed: Vec<(NodeId, NodeId, u64)> = handle
        .finite_results(&harness)
        .unwrap()
        .into_iter()
        .map(|r| (r.src, r.dst, millis(r.cost)))
        .collect();
    distributed.sort();
    assert_eq!(distributed.len(), nodes * (nodes - 1));

    // Centralized evaluation over the same link table.
    let mut db = Database::new();
    for (s, d, p) in topo.all_links() {
        db.insert(Tuple::new(
            "link",
            vec![Value::Node(s), Value::Node(d), Value::from(p.cost.value())],
        ));
    }
    Evaluator::new(best_path()).unwrap().run(&mut db).unwrap();
    let mut central: Vec<(NodeId, NodeId, u64)> = db
        .tuples("bestPath")
        .iter()
        .map(|t| RouteEntry::from_tuple(t).expect("centralized bestPath is route-shaped"))
        .map(|r| (r.src, r.dst, millis(r.cost)))
        .collect();
    central.sort();
    assert_eq!(distributed, central, "distributed execution must match centralized evaluation");

    // Hand-coded path-vector baseline.
    let apps: Vec<PathVectorNode> =
        (0..nodes).map(|_| PathVectorNode::new(PathVectorConfig::default())).collect();
    let mut sim = Simulator::new(topo, apps, SimConfig::default());
    sim.run_until(SimTime::from_secs(90));
    for (src, dst, cost_millis) in &distributed {
        let route = sim.app(*src).route_to(*dst).expect("baseline must find the route");
        assert_eq!(millis(route.cost), *cost_millis, "baseline disagrees on {src}->{dst}");
    }
}

/// Pair queries (magic sets + left recursion) return the same answer as the
/// all-pairs query, for a sample of random pairs on a dense random overlay.
///
/// The typed `RouteEntry` comparison reports every disagreeing pair in one
/// deterministic diff instead of failing on the first mismatch.
#[test]
fn pair_queries_match_all_pairs_routes() {
    let params =
        OverlayParams { nodes: 16, ..OverlayParams::planetlab(OverlayKind::DenseRandom, 5) };
    let topo = params.generate();

    let mut all_pairs = RoutingHarness::new(topo.clone());
    let all_handle =
        all_pairs.issue(QueryDef::new(best_path()).from(n(0)).at(SimTime::ZERO)).unwrap();
    all_pairs.run_until(SimTime::from_secs(120));

    let mut workload = PairWorkload::new(16, 11);
    let mut harness = RoutingHarness::new(topo);
    let mut now = SimTime::ZERO;
    let mut disagreements: Vec<String> = Vec::new();
    for i in 0..4 {
        let (src, dst) = workload.next_pair();
        let handle = harness
            .issue(
                QueryDef::new(best_path_pairs(src, dst))
                    .named(format!("pair{i}"))
                    .replicated(["magicDsts"])
                    .from(src)
                    .at(now),
            )
            .unwrap();
        now += SimDuration::from_secs(60);
        harness.run_until(now);

        let pair_route =
            handle.results_at(&harness, src).unwrap().into_iter().find(|r| r.dst == dst);
        let reference =
            all_handle.results_at(&all_pairs, src).unwrap().into_iter().find(|r| r.dst == dst);
        let pair_cost = pair_route.as_ref().map(|r| millis(r.cost));
        let ref_cost = reference.as_ref().map(|r| millis(r.cost));
        if pair_cost != ref_cost {
            disagreements.push(format!(
                "{src}->{dst}: pair query found {pair:?} (cost {pair_cost:?} ms), \
                 all-pairs reference found {refr:?} (cost {ref_cost:?} ms)",
                pair = pair_route.as_ref().map(|r| r.path.to_string()),
                refr = reference.as_ref().map(|r| r.path.to_string()),
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "pair queries disagree with the all-pairs reference on {} of 4 pairs:\n  {}",
        disagreements.len(),
        disagreements.join("\n  ")
    );
}

/// Work sharing reduces communication: issuing many shared queries toward a
/// single destination costs less than the same queries without sharing.
#[test]
fn sharing_reduces_overhead_for_common_destinations() {
    let topo = small_transit_stub(9);
    let nodes = topo.num_nodes();
    let dest = n((nodes - 1) as u32);
    let sources: Vec<NodeId> = (1..5).map(n).collect();

    let run = |share: bool| {
        let mut harness = RoutingHarness::new(small_transit_stub(9));
        let mut now = SimTime::ZERO;
        for (i, src) in sources.iter().enumerate() {
            let def = if share {
                QueryDef::new(best_path_pairs_share(*src, dest, "bestPathCache"))
                    .named(format!("s{i}"))
                    .sharing(true)
            } else {
                QueryDef::new(best_path_pairs(*src, dest)).named(format!("p{i}"))
            };
            harness.issue(def.replicated(["magicDsts"]).from(*src).at(now)).unwrap();
            now += SimDuration::from_secs(20);
            harness.run_until(now);
        }
        harness.run_until(now + SimDuration::from_secs(20));
        let cache_entries: usize =
            (0..nodes).map(|i| harness.sim().app(n(i as u32)).best_path_cache().len()).sum();
        (harness.per_node_overhead_kb(), harness.sim().metrics().total_bytes(), cache_entries)
    };

    let (kb_share, bytes_share, cache_entries) = run(true);
    let (kb_noshare, bytes_noshare, _) = run(false);
    // At this tiny scale the byte difference can go either way (the shared
    // variant pays for cache-install messages up front), so the hard
    // assertions are: the cache actually got populated, and sharing does not
    // blow up traffic. The quantitative crossover is measured by the Fig. 7/8
    // harness (`dr-bench`), not here.
    assert!(cache_entries > 0, "shared queries must populate bestPathCache");
    assert!(
        bytes_share <= bytes_noshare * 2,
        "sharing should not blow up traffic: {bytes_share} vs {bytes_noshare} bytes \
         ({kb_share:.2} vs {kb_noshare:.2} KB/node)"
    );
}

/// Reverse-path cache installation (§7.3) puts exactly one entry at every
/// node of the shared best path before the destination, holding the rest of
/// the path and its remaining cost, and nothing anywhere else.
#[test]
fn shared_best_path_is_cached_exactly_along_its_reverse_path() {
    // 0 - 1 - 2 - 3 - 4 - 5, unit costs; the query asks for 1 -> 4.
    let nodes = 6;
    let mut topo = Topology::new(nodes);
    for i in 0..nodes as u32 - 1 {
        topo.add_bidirectional(
            n(i),
            n(i + 1),
            LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
        );
    }
    let (src, dest) = (n(1), n(4));
    let mut harness = RoutingHarness::new(topo);
    harness
        .issue(
            QueryDef::new(best_path_pairs_share(src, dest, "bestPathCache"))
                .sharing(true)
                .replicated(["magicDsts"])
                .from(src)
                .at(SimTime::ZERO),
        )
        .unwrap();
    harness.run_until(SimTime::from_secs(30));

    for i in 0..nodes as u32 {
        let expected: Vec<Tuple> = if (1..4).contains(&i) {
            let suffix: Vec<NodeId> = (i..=4).map(n).collect();
            let remaining = Cost::new(f64::from(4 - i));
            vec![Tuple::new(
                "bestPathCache",
                vec![
                    Value::Node(n(i)),
                    Value::Node(dest),
                    Value::Path(PathVector::from_nodes(suffix)),
                    Value::Cost(remaining),
                ],
            )]
        } else {
            Vec::new()
        };
        assert_eq!(harness.sim().app(n(i)).best_path_cache(), expected, "cache at node {i}");
    }
}

/// Every protocol shipped in `dr-protocols` passes the paper's static safety
/// analysis and localizes for distributed execution.
#[test]
fn protocols_are_safe_and_localizable() {
    use declarative_routing::engine::localize::localize;
    let programs = vec![
        ("best_path", best_path(), vec![]),
        ("distance_vector", distance_vector(64.0), vec![]),
        ("dsr", dynamic_source_routing(), vec![]),
        ("pairs", best_path_pairs(n(0), n(5)), vec![]),
        ("pairs_share", best_path_pairs_share(n(0), n(5), "bestPathCache"), vec!["magicDsts"]),
    ];
    for (name, program, replicated) in programs {
        assert!(check_safety(&program).is_safe(), "{name} failed safety analysis");
        localize(&program, &replicated)
            .unwrap_or_else(|e| panic!("{name} failed to localize: {e}"));
    }
}

/// Routes survive a node failure and heal around it (the §8 scenario) on a
/// randomly generated overlay, expressed as a declarative scenario with a
/// recovery probe.
#[test]
fn routes_heal_after_node_failure_on_an_overlay() {
    use declarative_routing::engine::scenario::{Probe, ScenarioBuilder};
    let params =
        OverlayParams { nodes: 12, ..OverlayParams::planetlab(OverlayKind::SparseRandom, 13) };
    let topo = params.generate();
    // Fail the overlay's best-connected node (n11 carries dozens of transit
    // routes at convergence), so the recovery probe has paths to watch.
    let victim = n(11);
    let run = ScenarioBuilder::over(topo)
        .query(QueryDef::new(best_path()).from(n(0)))
        .fail(SimTime::from_secs(60), victim)
        .sample_every(SimDuration::from_secs(30))
        .until(SimTime::from_secs(150))
        .probe(Probe::Recovery)
        .execute()
        .unwrap();

    // Converged before the failure: the t=60 sample still sees every pair
    // (the failure is only detected 100 ms later).
    let at_60 = run.report.queries[0]
        .samples
        .iter()
        .find(|s| s.time == SimTime::from_secs(60))
        .expect("sampled at the failure instant");
    assert_eq!(at_60.results, 12 * 11);

    // All routes between live nodes exist and avoid the victim.
    let live_pairs = 11 * 10;
    let healed: Vec<RouteEntry> = run.handles[0]
        .finite_results(&run.harness)
        .unwrap()
        .into_iter()
        .filter(|r| r.src != victim && r.dst != victim)
        .collect();
    assert!(
        healed.len() >= live_pairs * 9 / 10,
        "expected most of {live_pairs} routes to survive, got {}",
        healed.len()
    );
    let through_victim = healed.iter().filter(|r| r.traverses(victim)).count();
    assert_eq!(through_victim, 0, "healed routes must avoid the failed node");
    // Costs stay finite and positive.
    for r in &healed {
        assert!(r.cost > Cost::ZERO && r.cost.is_finite());
    }
    // The probe saw the broken paths come back, measured per §9.1.
    assert!(!run.report.recoveries.is_empty(), "failing a node must break some routes");
    for rec in &run.report.recoveries {
        assert!(rec.recovery_s >= 0.0);
        assert_ne!(rec.src, victim);
        assert_ne!(rec.dst, victim);
    }
}
