//! Criterion micro-benchmarks of the Datalog engine: parsing, centralized
//! fixpoint evaluation (semi-naïve vs naïve — the ablation for §3.3's
//! choice of evaluation strategy), the aggregate-selections optimization of
//! §7.1, and the §8 churn-recovery path (hub failure on a dense overlay,
//! exercising the ∞-tombstone pruning and the indexed storage layer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dr_core::processor::ReliabilityConfig;
use dr_core::{QueryDef, RoutingHarness};
use dr_datalog::eval::EvalConfig;
use dr_datalog::{parse_program, Database, Evaluator};
use dr_netsim::{FaultPlan, LinkFaults, SimTime};
use dr_protocols::{best_path, distance_vector, link_state};
use dr_types::{NodeId, Tuple, Value};
use dr_workloads::{OverlayKind, OverlayParams, TransitStubParams};

fn link_tuples_from_topology(nodes: usize, seed: u64) -> Vec<Tuple> {
    let topo = TransitStubParams::sized(nodes, seed).generate();
    topo.all_links()
        .map(|(s, d, p)| {
            Tuple::new("link", vec![Value::Node(s), Value::Node(d), Value::from(p.cost.value())])
        })
        .collect()
}

fn ring_links(n: u32) -> Vec<Tuple> {
    let mut out = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        for (s, d) in [(i, j), (j, i)] {
            out.push(Tuple::new(
                "link",
                vec![Value::Node(NodeId::new(s)), Value::Node(NodeId::new(d)), Value::from(1.0)],
            ));
        }
    }
    out
}

fn bench_parser(c: &mut Criterion) {
    let src = best_path().to_string();
    c.bench_function("parse_best_path_program", |b| {
        b.iter(|| parse_program(&src).expect("program parses"))
    });
}

fn bench_semi_naive_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixpoint_strategy");
    group.sample_size(10);
    let links = ring_links(23);
    for (label, semi) in [("semi_naive", true), ("naive", false)] {
        group.bench_function(BenchmarkId::new("best_path_ring23", label), |b| {
            b.iter(|| {
                let cfg = EvalConfig { semi_naive: semi, ..EvalConfig::default() };
                let eval = Evaluator::with_config(best_path(), cfg).expect("valid program");
                let mut db = Database::new();
                for l in &links {
                    db.insert(l.clone());
                }
                eval.run(&mut db).expect("fixpoint terminates")
            })
        });
    }
    group.finish();
}

fn bench_aggregate_selections(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate_selections");
    group.sample_size(10);
    let links = link_tuples_from_topology(100, 3);
    for (label, on) in [("enabled", true), ("disabled", false)] {
        group.bench_function(BenchmarkId::new("distance_vector_100", label), |b| {
            b.iter(|| {
                let cfg = EvalConfig { aggregate_selections: on, ..EvalConfig::default() };
                let eval =
                    Evaluator::with_config(distance_vector(200.0), cfg).expect("valid program");
                let mut db = Database::new();
                for l in &links {
                    db.insert(l.clone());
                }
                eval.run(&mut db).expect("fixpoint terminates")
            })
        });
    }
    group.finish();
}

fn bench_link_state_flooding(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_state");
    group.sample_size(10);
    let links = ring_links(16);
    group.bench_function("flood_and_local_routes_ring16", |b| {
        b.iter(|| {
            let eval = Evaluator::new(link_state()).expect("valid program");
            let mut db = Database::new();
            for l in &links {
                db.insert(l.clone());
            }
            eval.run(&mut db).expect("fixpoint terminates")
        })
    });
    group.finish();
}

fn bench_churn_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_recovery");
    group.sample_size(3);
    // The PR 2 repro: fail the best-connected node of a 16-node Dense-UUNET
    // overlay after convergence. Before ∞-tombstone pruning this enumerated
    // exponentially many infinite-cost paths (minutes, tens of GB); the
    // bench tracks the whole converge + fail + re-converge cycle.
    let topo = OverlayParams { nodes: 16, ..OverlayParams::planetlab(OverlayKind::DenseUunet, 9) }
        .generate();
    let hub = topo
        .nodes()
        .filter(|n| *n != NodeId::new(0))
        .max_by_key(|&n| topo.degree(n))
        .expect("overlay has nodes");
    group.bench_function("dense_uunet16_hub_fail", |b| {
        b.iter(|| {
            let mut harness = RoutingHarness::new(topo.clone());
            let handle = harness.issue(QueryDef::new(best_path())).expect("query localizes");
            harness.run_until(SimTime::from_secs(120));
            harness.sim_mut().schedule_node_fail(SimTime::from_secs(120), hub);
            harness.run_until(SimTime::from_secs(240));
            handle.finite_results(&harness).expect("routes decode").len()
        })
    });
    // The same cycle on a lossy wire with the reliable transport: tracks
    // what retransmission, duplicate suppression, and reorder buffering
    // cost on top of the recovery itself.
    group.bench_function("dense_uunet16_hub_fail_lossy", |b| {
        b.iter(|| {
            let mut harness =
                RoutingHarness::with_reliability(topo.clone(), ReliabilityConfig::default());
            harness.set_fault_plan(
                FaultPlan::new(9).uniform(LinkFaults::none().with_drop(0.05).with_duplicate(0.10)),
            );
            let handle = harness.issue(QueryDef::new(best_path())).expect("query localizes");
            harness.run_until(SimTime::from_secs(120));
            harness.sim_mut().schedule_node_fail(SimTime::from_secs(120), hub);
            harness.run_until(SimTime::from_secs(240));
            handle.finite_results(&harness).expect("routes decode").len()
        })
    });
    group.finish();
}

fn bench_provenance_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("provenance_overhead");
    group.sample_size(5);
    // Full distributed convergence on the 16-node dense overlay with
    // provenance recording off and on. The off row prices the
    // zero-cost-when-off invariant — no `ProvStore` is allocated and
    // evaluation takes the untraced path, so it must stay within noise of
    // the engine before the provenance subsystem existed (gated by the CI
    // baseline comparison). The on row is what a deployment pays for
    // explainable routes.
    let topo = OverlayParams { nodes: 16, ..OverlayParams::planetlab(OverlayKind::DenseUunet, 9) }
        .generate();
    for (label, on) in [("recording_off", false), ("recording_on", true)] {
        group.bench_function(BenchmarkId::new("dense_uunet16_converge", label), |b| {
            b.iter(|| {
                let mut harness = RoutingHarness::new(topo.clone());
                let handle = harness
                    .issue(QueryDef::new(best_path()).provenance(on))
                    .expect("query localizes");
                harness.run_until(SimTime::from_secs(120));
                handle.finite_results(&harness).expect("routes decode").len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parser,
    bench_semi_naive_vs_naive,
    bench_aggregate_selections,
    bench_link_state_flooding,
    bench_churn_recovery,
    bench_provenance_overhead
);
criterion_main!(benches);
