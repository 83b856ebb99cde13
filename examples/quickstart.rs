//! Quickstart: run the paper's all-pairs Best-Path query on a small
//! transit-stub network and print a few routes and summary statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use declarative_routing::engine::scenario::ScenarioBuilder;
use declarative_routing::engine::QueryDef;
use declarative_routing::netsim::{SimDuration, SimTime};
use declarative_routing::protocols::best_path;
use declarative_routing::types::NodeId;
use declarative_routing::workloads::TransitStubParams;

fn main() {
    // 1. Build a 100-node GT-ITM-style transit-stub topology (paper section 9.1).
    let topology = TransitStubParams::sized(100, 42).generate();
    println!(
        "topology: {} nodes, {} directed links, diameter {:.0} ms",
        topology.num_nodes(),
        topology.num_links(),
        topology.diameter_latency_ms()
    );

    // 2. Describe the experiment as a scenario: issue the Best-Path query
    //    (rules NR1/NR2/BPR1/BPR2 of the paper) from node 0 at t=0, run
    //    until the routes converge, sampling once per simulated second.
    let query = best_path();
    println!("\nissuing the Best-Path query:\n{query}");
    let run = ScenarioBuilder::over(topology)
        .query(QueryDef::new(query).named("quickstart-best-path"))
        .sample_every(SimDuration::from_secs(1))
        .until(SimTime::from_secs(90))
        .execute()
        .expect("scenario runs and results decode as routes");
    let report = &run.report.queries[0];
    println!(
        "converged after {:?} simulated seconds; {} routes; {:.1} KB sent per node",
        report.converged_at.map(|t| t.as_secs_f64()),
        report.final_results(),
        run.report.per_node_overhead_kb
    );

    // 3. The finished run keeps the harness and the typed handle, so the
    //    deployment stays inspectable: look at a forwarding table...
    let handle = &run.handles[0];
    let node = NodeId::new(1);
    let fwd = handle.forwarding_table(&run.harness, node);
    println!("\nforwarding table of {node} (first 5 destinations):");
    for (dest, next) in fwd.iter().take(5) {
        println!("  {dest} via {next}");
    }

    // 4. ...and the full best path for one pair, as a typed route.
    let routes = handle.results_at(&run.harness, node).expect("results decode as routes");
    if let Some(route) = routes.into_iter().find(|r| r.dst == NodeId::new(50)) {
        println!(
            "\nbest path {src} -> {dst}: {path} ({hops} hops, cost {cost})",
            src = route.src,
            dst = route.dst,
            path = route.path,
            hops = route.hops(),
            cost = route.cost,
        );
    }
}
