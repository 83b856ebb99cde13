//! Criterion macro-benchmarks over the distributed system: small-scale
//! versions of the paper's experiments, useful for tracking performance
//! regressions of the simulator + query processor pipeline. (The full
//! figures are regenerated by the binaries in `src/bin/`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dr_bench::runner::{run_best_path_query, run_path_vector_baseline};
use dr_core::{QueryDef, RoutingHarness};
use dr_netsim::{SimDuration, SimTime};
use dr_protocols::{best_path_pairs, best_path_pairs_share};
use dr_service::load::{run_inproc, LoadOptions};
use dr_types::NodeId;
use dr_workloads::{ChurnSchedule, PairWorkload, TransitStubParams};

fn small_topology(seed: u64) -> dr_netsim::Topology {
    TransitStubParams {
        domains: 1,
        transit_nodes_per_domain: 2,
        stubs_per_transit_node: 2,
        nodes_per_stub: 5,
        ..TransitStubParams::default()
    }
    .with_seed(seed)
    .generate()
}

trait WithSeed {
    fn with_seed(self, seed: u64) -> Self;
}

impl WithSeed for TransitStubParams {
    fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn bench_all_pairs_query_vs_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig06_small");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("convergence", "declarative_query"), |b| {
        b.iter(|| {
            run_best_path_query(
                small_topology(1),
                SimTime::from_secs(60),
                SimDuration::from_secs(1),
            )
        })
    });
    group.bench_function(BenchmarkId::new("convergence", "path_vector_baseline"), |b| {
        b.iter(|| {
            run_path_vector_baseline(
                small_topology(1),
                SimTime::from_secs(60),
                SimDuration::from_secs(1),
            )
        })
    });
    group.finish();
}

fn bench_pair_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig07_small");
    group.sample_size(10);
    for (label, share) in [("no_share", false), ("share", true)] {
        group.bench_function(BenchmarkId::new("ten_pair_queries", label), |b| {
            b.iter(|| {
                let mut harness = RoutingHarness::new(small_topology(2));
                let mut workload = PairWorkload::new(22, 9);
                let mut now = SimTime::ZERO;
                for i in 0..10 {
                    let (src, dst) = workload.next_pair();
                    let def = if share {
                        QueryDef::new(best_path_pairs_share(src, dst, "bestPathCache"))
                            .named(format!("share-{i}"))
                            .replicated(["magicDsts"])
                            .sharing(true)
                    } else {
                        QueryDef::new(best_path_pairs(src, dst))
                            .named(format!("pair-{i}"))
                            .replicated(["magicDsts"])
                    };
                    harness.issue(def.from(src).at(now)).expect("localizes");
                    now += SimDuration::from_secs(5);
                    harness.run_until(now);
                }
                harness.per_node_overhead_kb()
            })
        });
    }
    group.finish();
}

fn bench_diameter_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig05_small");
    group.sample_size(10);
    group.bench_function("transit_stub_200_diameter", |b| {
        b.iter(|| TransitStubParams::sized(200, 5).generate().diameter_latency_ms())
    });
    group.finish();
}

fn bench_node_benchmark(c: &mut Criterion) {
    // How fast can one issue+converge a single pair query on node counts —
    // a small-scale scaling curve.
    let mut group = c.benchmark_group("pair_query_scaling");
    group.sample_size(10);
    for nodes in [22usize, 44] {
        group.bench_function(BenchmarkId::from_parameter(nodes), |b| {
            let params = TransitStubParams {
                domains: 1,
                transit_nodes_per_domain: 2,
                stubs_per_transit_node: 2,
                nodes_per_stub: (nodes - 2) / 4,
                ..TransitStubParams::default()
            };
            b.iter(|| {
                let mut harness = RoutingHarness::new(params.generate());
                let src = NodeId::new(0);
                let dst = NodeId::new((nodes - 1) as u32);
                let handle = harness
                    .issue(
                        QueryDef::new(best_path_pairs(src, dst))
                            .from(src)
                            .replicated(["magicDsts"]),
                    )
                    .expect("localizes");
                harness.run_until(SimTime::from_secs(30));
                handle.finite_results(&harness).expect("routes decode").len()
            })
        });
    }
    group.finish();
}

fn bench_sustained_churn_qps(c: &mut Criterion) {
    // Service-level throughput: the dr-load issue / teardown / fact-update
    // mix multiplexed over the in-process transport while the deployment
    // churns. Reported in queries (issued + torn down) per wall-clock
    // second, so higher is better; criterion's mean time per iteration is
    // what lands in BENCH_baseline.json.
    let mut group = c.benchmark_group("sustained_churn_qps");
    group.sample_size(10);
    for (label, sessions) in [("sessions_4", 4usize), ("sessions_16", 16)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let nodes = 12;
            let opts = LoadOptions {
                sessions,
                rounds: 10,
                queries_per_session: 2,
                step_millis: 400,
                seed: 7,
            };
            let churn = ChurnSchedule::alternating(
                nodes,
                0.25,
                SimTime::from_millis(800),
                SimDuration::from_millis(1_600),
                2,
                11,
            );
            b.iter(|| {
                let report = run_inproc(nodes, &opts, Some(&churn));
                assert!(report.issued > 0 && report.issued == report.torn_down);
                report.queries_per_sec()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_diameter_generation,
    bench_all_pairs_query_vs_baseline,
    bench_pair_queries,
    bench_node_benchmark,
    bench_sustained_churn_qps
);
criterion_main!(benches);
