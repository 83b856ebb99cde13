//! Property tests for the provenance subsystem: every explanation of a
//! finite route is a well-formed derivation tree — its leaves are live
//! base facts, its internal edges re-validate by re-firing the named rule
//! on exactly the recorded body tuples — and the explained route matches
//! an independent from-scratch centralized re-derivation over the same
//! link set. A second property pins loss-invariance: on unique-best-path
//! topologies the proof tree resolves identically with and without an
//! adversarial [`FaultPlan`], and explain stays typed (never wedges) on
//! torn-down queries even under loss. A scenario-level test pins that
//! `QueryDef::provenance` reaches the engine through `ScenarioBuilder`.

use std::collections::{BTreeMap, BTreeSet};

use declarative_routing::datalog::eval::{apply_aggregate, evaluate_rule};
use declarative_routing::datalog::{parse_program, Builtins, Database, Evaluator};
use declarative_routing::engine::processor::ReliabilityConfig;
use declarative_routing::engine::scenario::ScenarioBuilder;
use declarative_routing::engine::{DerivationTree, ExplainError, QueryDef, RoutingHarness};
use declarative_routing::netsim::{FaultPlan, LinkFaults, LinkParams, SimTime, Topology};
use declarative_routing::protocols::best_path;
use declarative_routing::types::{Cost, NodeId, Tuple, Value};
use proptest::prelude::*;

const BEST_PATH: &str = r#"
    #key(link, 0, 1).
    #key(path, 0, 1, 2).
    #key(bestPathCost, 0, 1).
    #key(bestPath, 0, 1).
    NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
    NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
         C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
    NR3: path(@S,D,P,C) :- link(@S,W,C1), path(@S,D,P,C2),
         f_inPath(P,W) = true, C1 = infinity, C = infinity.
    BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
    BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    Query: bestPath(@S,D,P,C).
"#;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A random small connected undirected graph as deduplicated `(a, b, cost)`
/// edges: a spanning chain over `n` nodes plus a few extra chords.
fn graph() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    (3usize..6, prop::collection::vec((0u32..6, 0u32..6, 1u32..9u32), 0..5)).prop_map(
        |(nodes, extra)| {
            let mut edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for i in 0..(nodes as u32 - 1) {
                edges.insert((i, i + 1), 1.0 + f64::from(i));
            }
            for (a, b, c) in extra {
                let (a, b) = (a % nodes as u32, b % nodes as u32);
                if a != b {
                    edges.insert((a.min(b), a.max(b)), f64::from(c));
                }
            }
            edges.into_iter().map(|((a, b), c)| (a, b, c)).collect()
        },
    )
}

fn topology_of(edges: &[(u32, u32, f64)]) -> Topology {
    let nodes = edges.iter().flat_map(|&(a, b, _)| [a, b]).max().unwrap_or(0) as usize + 1;
    let mut t = Topology::new(nodes);
    for &(a, b, c) in edges {
        t.add_bidirectional(n(a), n(b), LinkParams::with_latency_ms(10.0).with_cost(Cost::new(c)));
    }
    t
}

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

fn finite(t: &Tuple) -> bool {
    t.field(3).and_then(Value::as_cost).is_some_and(|c| c.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole invariant: on random graphs, every node's most expensive
    /// (deepest-proof) route explains to a tree whose root is the route,
    /// whose leaves are live base link facts matching the topology, and
    /// whose every internal edge re-validates — re-firing the named
    /// localized rule on a database holding exactly the recorded body
    /// tuples re-derives the head. The distributed result set itself
    /// matches an independent centralized evaluation of the same program
    /// over the same links.
    #[test]
    fn explained_routes_are_well_formed_and_match_rederivation(edges in graph()) {
        let topology = topology_of(&edges);
        let num_nodes = topology.num_nodes();
        let mut harness = RoutingHarness::new(topology);
        let handle =
            harness.issue(QueryDef::new(parse_program(BEST_PATH).unwrap()).provenance(true)).unwrap();
        harness.run_until(SimTime::from_secs(60));
        let qid = handle.id();

        // Independent from-scratch re-derivation: the centralized
        // evaluator over the full link set, sharing no state with the
        // distributed run.
        let mut central = Database::new();
        central.declare_key("link", vec![0, 1]);
        for &(a, b, c) in &edges {
            for (s, d) in [(a, b), (b, a)] {
                central.insert(Tuple::new(
                    "link",
                    vec![Value::Node(n(s)), Value::Node(n(d)), Value::Cost(Cost::new(c))],
                ));
            }
        }
        Evaluator::new(parse_program(BEST_PATH).unwrap()).unwrap().run(&mut central).unwrap();
        let central_best: BTreeSet<Tuple> =
            central.tuples("bestPath").into_iter().filter(finite).collect();

        let localized =
            harness.library().get(qid).expect("spec registered").program.clone();
        let builtins = Builtins::standard();
        let costs: BTreeMap<(u32, u32), f64> = edges
            .iter()
            .flat_map(|&(a, b, c)| [((a, b), c), ((b, a), c)])
            .collect();

        // Edge check: look the rule up by the label the tree reports and
        // re-fire it on exactly the body tuples. Aggregate heads group the
        // raw derivations exactly as the engine does.
        let check_edge = |label: &str, _node: NodeId, body: &[Tuple], head: &Tuple| -> bool {
            let Some(rule) = localized.rules.iter().enumerate().find_map(|(i, lr)| {
                (lr.rule.name.as_deref() == Some(label) || format!("rule{i}") == label)
                    .then_some(&lr.rule)
            }) else {
                return false;
            };
            let mut db = Database::new();
            for t in body {
                db.insert(t.clone());
            }
            let Ok(raw) = evaluate_rule(rule, &builtins, &db, None) else { return false };
            if rule.head.has_aggregate() {
                apply_aggregate(&rule.head, head.rel(), &raw)
                    .is_ok_and(|grouped| grouped.contains(head))
            } else {
                raw.contains(head)
            }
        };
        // Base check: a leaf is a link fact (or its shipped cache copy,
        // which aliases the same base fact) whose cost matches the
        // topology's live edge.
        let check_base = |t: &Tuple| -> bool {
            t.relation().starts_with("link")
                && t.arity() == 3
                && matches!(
                    (t.field(0), t.field(1), t.field(2).and_then(Value::as_cost)),
                    (Some(Value::Node(s)), Some(Value::Node(d)), Some(c))
                        if costs.get(&(s.raw(), d.raw())) == Some(&c.value())
                )
        };

        let mut explained = 0usize;
        for i in 0..num_nodes {
            let routes: Vec<Tuple> = harness
                .sim()
                .app(n(i as u32))
                .tuples(qid, "bestPath")
                .into_iter()
                .filter(finite)
                .collect();
            // The whole result set agrees with the centralized fixpoint.
            for route in &routes {
                prop_assert!(
                    central_best.contains(route),
                    "node {i}: {route:?} not in the centralized re-derivation"
                );
            }
            // Explain the most expensive route this node holds — the one
            // with the deepest proof.
            let Some(route) = routes.into_iter().max_by(|a, b| {
                let cost = |t: &Tuple| t.field(3).and_then(Value::as_cost).unwrap();
                cost(a).partial_cmp(&cost(b)).unwrap()
            }) else {
                continue;
            };
            let tree = harness.explain(qid, &route).expect("live route must explain");
            explained += 1;
            prop_assert_eq!(tree.tuple(), &route);
            prop_assert!(tree.is_fully_resolved(), "unresolved proof:\n{}", tree);
            if let Err(why) = tree.validate(&check_edge, &check_base) {
                prop_assert!(false, "node {}: invalid proof: {}\n{}", i, why, tree);
            }
        }
        // Guard against vacuous passes: a connected graph derives routes
        // at every node, and each node explained one.
        prop_assert_eq!(explained, num_nodes);
    }

    /// Loss-invariance (chaos): on a line topology the best path — and its
    /// whole derivation — is unique, so the proof tree resolved under an
    /// adversarial fault plan (with the loss-tolerant transport) is
    /// step-identical to the lossless one. Afterwards explain degrades to
    /// typed errors, never a wedge: torn-down queries answer `TornDown`,
    /// unknown ids answer `UnknownQuery`, even under continuing loss.
    #[test]
    fn explanations_are_loss_invariant_on_unique_path_lines(k in 3usize..6, seed in 0u64..1000) {
        let run = |faulty: bool| -> (Tuple, DerivationTree) {
            let mut harness = if faulty {
                RoutingHarness::with_reliability(line(k), ReliabilityConfig::default())
            } else {
                RoutingHarness::new(line(k))
            };
            if faulty {
                harness.set_fault_plan(FaultPlan::new(seed).uniform(
                    LinkFaults::none().with_drop(0.05).with_duplicate(0.10),
                ));
            }
            let handle = harness
                .issue(
                QueryDef::new(parse_program(BEST_PATH).unwrap())
                    .provenance(true)
            )
                .unwrap();
            harness.run_until(SimTime::from_secs(90));
            let qid = handle.id();
            let route = harness
                .sim()
                .app(n(0))
                .tuples(qid, "bestPath")
                .into_iter()
                .find(|t| t.field(1) == Some(&Value::Node(n(k as u32 - 1))) && finite(t))
                .expect("end-to-end route derived");
            let tree = harness.explain(qid, &route).expect("route must explain");

            // Typed failure modes stay typed under the same fault plan.
            prop_assert_eq!(harness.explain(qid + 999, &route), Err(ExplainError::UnknownQuery));
            let now = harness.now();
            harness.teardown(qid, now);
            harness.run_to_quiescence();
            prop_assert_eq!(harness.explain(qid, &route), Err(ExplainError::TornDown));
            (route, tree)
        };

        let (clean_route, clean_tree) = run(false);
        let (lossy_route, lossy_tree) = run(true);
        prop_assert_eq!(&clean_route, &lossy_route, "same unique best path either way");
        prop_assert!(lossy_tree.is_fully_resolved(), "lossy proof unresolved:\n{}", lossy_tree);
        prop_assert_eq!(
            clean_tree.steps(),
            lossy_tree.steps(),
            "clean:\n{}\nlossy:\n{}",
            clean_tree,
            lossy_tree
        );
    }
}

/// A scenario query issued with `.provenance(true)` records derivations,
/// so the run's harness explains its routes into fully resolved proofs.
#[test]
fn scenario_query_recording_provenance_is_explainable() {
    let mut run = ScenarioBuilder::over(line(4))
        .query(QueryDef::new(best_path()).provenance(true))
        .until(SimTime::from_secs(30))
        .execute()
        .expect("scenario runs");
    let qid = run.handles[0].id();
    let route = run.handles[0]
        .raw_results_at(&run.harness, n(0))
        .into_iter()
        .find(|t| finite(t) && t.field(1) == Some(&Value::Node(n(3))))
        .expect("finite route 0 -> 3");
    let tree = run.harness.explain(qid, &route).expect("scenario query records provenance");
    assert!(tree.is_fully_resolved(), "{tree}");
    assert!(tree.steps().iter().any(|s| s.node != n(0)), "the proof spans nodes:\n{tree}");
}
