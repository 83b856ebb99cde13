//! Long-lived routes under churn (paper sections 8 and 9.2.4): run the
//! continuous Best-Path query on an emulated PlanetLab-style overlay as a
//! declarative scenario, fail a fraction of the nodes, and watch the routes
//! heal without reissuing the query.
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use declarative_routing::engine::scenario::{Probe, ScenarioBuilder};
use declarative_routing::engine::QueryDef;
use declarative_routing::netsim::{SimDuration, SimTime};
use declarative_routing::protocols::best_path;
use declarative_routing::workloads::{ChurnSchedule, OverlayKind, OverlayParams};
use std::time::Instant;

fn main() {
    // 16-node Dense-UUNET overlay — the dense configuration the paper's
    // churn figures use (scaled down to demo size). Failing well-connected
    // nodes of a dense overlay is exactly the case that used to blow up
    // incremental maintenance (exponentially many ∞-cost tombstone paths)
    // before the §8 tombstone pruning; it now completes in seconds, and the
    // wall-clock guard at the bottom makes a regression fail loudly instead
    // of hanging.
    let wall = Instant::now();
    let params =
        OverlayParams { nodes: 16, ..OverlayParams::planetlab(OverlayKind::DenseUunet, 9) };
    let topology = params.generate();
    println!(
        "overlay: {} nodes, avg degree {:.1}, avg link RTT {:.0} ms",
        topology.num_nodes(),
        topology.average_degree(),
        2.0 * topology.average_link_latency_ms(),
    );

    // Converge for 120 s, then fail 20% of the nodes for 60 s and bring
    // them back — the whole choreography is one scenario: the churn
    // schedule is a timeline source, and the sampling/recovery probes
    // replace the hand-written measurement loop.
    let schedule = ChurnSchedule::alternating(
        16,
        0.2,
        SimTime::from_secs(120),
        SimDuration::from_secs(60),
        1,
        7,
    );
    println!("\ninjecting churn:");
    for event in schedule.events() {
        println!(
            "  {:>6.0}s  {:?} nodes affected: {}",
            event.time().as_secs_f64(),
            match event {
                declarative_routing::workloads::churn::ChurnEvent::Fail(..) => "fail",
                declarative_routing::workloads::churn::ChurnEvent::Join(..) => "join",
            },
            event.nodes().len()
        );
    }

    // Sample at the paper's 1 s cadence — the Recovery probe quantizes
    // each recovery up to the next sample, so a coarse cadence would
    // inflate the reported times — and thin the printed table to one row
    // per 20 s.
    let end = schedule.end_time() + SimDuration::from_secs(60);
    let run = ScenarioBuilder::over(topology)
        .query(QueryDef::new(best_path()).named("churn-best-path"))
        .source(&schedule)
        .sample_every(SimDuration::from_secs(1))
        .until(end)
        .probe(Probe::Recovery)
        .execute()
        .expect("churn scenario runs and routes decode");

    // The result-set samples show convergence, the dip while nodes are
    // down, and the healing after the rejoin.
    println!("\n time_s  routes  AvgPathRTT_ms");
    for s in &run.report.queries[0].samples {
        if s.time.as_micros() % SimDuration::from_secs(20).as_micros() == 0 {
            println!("{:>7.0}  {:>6}  {:>10.0}", s.time.as_secs_f64(), s.results, s.avg_cost);
        }
    }

    let recoveries = run.report.recovery_times();
    let stats = run.harness.processor_stats();
    println!(
        "\npaths recovered: {} (avg recovery {:.1} s, §9.1: detection delay excluded); \
         total per-node overhead {:.0} KB; ∞-tombstones collapsed: {}",
        recoveries.len(),
        recoveries.iter().sum::<f64>() / recoveries.len().max(1) as f64,
        run.report.per_node_overhead_kb,
        stats.tombstones_collapsed,
    );

    // Regression guard: the pre-pruning engine ran this cycle for minutes
    // (and tens of GB) before being killed. Fail loudly instead of hanging.
    let elapsed = wall.elapsed();
    assert!(
        elapsed.as_secs() < 120,
        "dense-overlay churn cycle took {elapsed:?}; ∞-tombstone pruning has regressed"
    );
    println!("wall clock: {elapsed:?} (guard: < 120 s)");
}
