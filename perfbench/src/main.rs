//! Oracle-checked benchmark of the declarative routing engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lifecycle_lossy|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` (what each workload draws from it is
//! in `README.md`). The workloads `rtt_adapt` and `churn_lossy` run the
//! same way but are not part of the benchmark: the engine computes wrong
//! routes on them, and they report it. A run repeats
//! set-up plus one fixed-size measured phase until `--seconds` have passed,
//! then prints one JSON line: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of one traced repetition (plus the
//! tracing overhead against an untraced repetition and the ledger's
//! unattributed remainder; the spans go to `perfbench/out/`). Wrong, missing
//! and extra routes are counted as failed operations, never skipped.

mod mix;
mod oracle;
mod report;
mod simwl;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use report::Outcome;
use stats::{beyond, median, percentile, ratio};
use trace::{SelfTime, Tracer};

/// The benchmark's workloads, and the workloads the engine gets wrong
/// (runnable, reported as failed operations, not benchmarked).
const WORKLOADS: &[&str] = &["lifecycle_lossy", "service_mix"];
const KNOWN_WRONG: &[&str] = &["rtt_adapt", "churn_lossy"];

/// Set-ups timed per run at least, and the set-up time they must add up
/// to (the median is `setup_s`; the service's set-up takes milliseconds).
const MIN_SETUPS: usize = 5;
const MIN_SETUP_S: f64 = 0.5;
/// Extra set-ups timed after every repetition, until their time adds up to
/// this. A set-up takes a few milliseconds, and the host's speed shifts by
/// up to half for tens of milliseconds at a time, so the set-ups are spread
/// over the run rather than timed in one burst that samples one such shift.
const SETUP_WINDOW_S: f64 = 0.15;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Small inputs, set only by the self-tests; skips the sample-count
    /// and set-up-time minimums.
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, tiny: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().chain(KNOWN_WRONG).any(|w| *w == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    if args.trace {
        let outcome =
            if args.workload == "service_mix" { traced_mix(args) } else { traced_sim(args) };
        outcome.render(&report::per_layer())
    } else {
        let outcome =
            if args.workload == "service_mix" { untraced_mix(args) } else { untraced_sim(args) };
        outcome.render(&report::end_to_end())
    }
}

/// One repetition's share of the end-to-end metrics.
struct Measured {
    wall_s: f64,
    step_ms: Vec<f64>,
    request_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    overhead_kb_per_node: f64,
    /// Deterministic fingerprint (events, bytes, failures): must repeat.
    fingerprint: (u64, u64, u64),
}

/// Repeat `setup` + `measure`, each followed by a window of extra set-ups,
/// until the time budget is spent and the percentiles have ten samples
/// beyond them, then time extra set-ups up to [`MIN_SETUPS`] and
/// [`MIN_SETUP_S`], and fold everything into the end-to-end metrics.
fn repeat<S>(
    args: &Args,
    convergence_sim_s: f64,
    mut setup: impl FnMut() -> S,
    mut measure: impl FnMut(S) -> Measured,
) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut reps: Vec<Measured> = Vec::new();
    let (mut steps, mut requests) = (0, 0);
    loop {
        let t = Instant::now();
        let state = setup();
        setups.push(t.elapsed().as_secs_f64());
        let rep = measure(state);
        steps += rep.step_ms.len();
        requests += rep.request_us.len();
        reps.push(rep);
        let window = Instant::now();
        while !args.tiny && window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
            let t = Instant::now();
            let state = setup();
            setups.push(t.elapsed().as_secs_f64());
            drop(state);
        }
        let enough = args.tiny || (beyond(steps, 0.9) >= 10 && beyond(requests, 0.99) >= 10);
        if started.elapsed() >= budget && enough {
            break;
        }
    }
    while setups.len() < MIN_SETUPS || (!args.tiny && setups.iter().sum::<f64>() < MIN_SETUP_S) {
        let t = Instant::now();
        let state = setup();
        setups.push(t.elapsed().as_secs_f64());
        drop(state);
    }
    if reps.iter().any(|r| r.fingerprint != reps[0].fingerprint) {
        eprintln!("perfbench: repetitions of one seed differ: the run is not deterministic");
    }

    let step_ms: Vec<f64> = reps.iter().flat_map(|r| r.step_ms.iter().copied()).collect();
    let request_us: Vec<f64> = reps.iter().flat_map(|r| r.request_us.iter().copied()).collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "perfbench: {} seed {}: {} reps, {} setups, {} steps, {} requests, \
         {failed}/{attempted} failed; rep wall_s {walls:.3?}",
        args.workload,
        args.seed,
        reps.len(),
        setups.len(),
        step_ms.len(),
        request_us.len()
    );

    let mut out = Outcome { attempted, failed, ..Outcome::default() };
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&walls));
    out.set("step_ms.p50", percentile(&step_ms, 0.5));
    out.set("step_ms.p90", percentile(&step_ms, 0.9));
    out.set("request_us.p50", percentile(&request_us, 0.5));
    out.set("request_us.p99", percentile(&request_us, 0.99));
    out.set("ops_ok_frac", 1.0 - ratio(failed as f64, attempted as f64));
    out.set("convergence_sim_s", convergence_sim_s);
    out.set("overhead_kb_per_node", reps[0].overhead_kb_per_node);
    out.set("peak_rss_mb", report::peak_rss_mb());
    out
}

fn plan_of(args: &Args) -> simwl::Plan {
    match args.workload.as_str() {
        "lifecycle_lossy" => simwl::lifecycle_lossy(args.seed, args.tiny),
        "rtt_adapt" => simwl::rtt_adapt(args.seed, args.tiny),
        _ => simwl::churn_lossy(args.tiny),
    }
}

fn mix_size(args: &Args) -> mix::Size {
    if args.tiny {
        mix::Size::tiny()
    } else {
        mix::Size::full()
    }
}

fn untraced_sim(args: &Args) -> Outcome {
    let plan = plan_of(args);
    let off = Tracer::off();
    repeat(
        args,
        simwl::convergence(&plan),
        || simwl::deploy(&plan, &off),
        |mut dep| {
            let rep = simwl::measure(&mut dep, &plan, &off);
            Measured {
                wall_s: rep.wall_s,
                attempted: rep.verdict.attempted,
                failed: rep.verdict.failed(),
                overhead_kb_per_node: rep.overhead_kb_per_node,
                fingerprint: (rep.counters.events, rep.counters.bytes, rep.verdict.failed()),
                step_ms: rep.step_ms,
                request_us: rep.request_us,
            }
        },
    )
}

fn untraced_mix(args: &Args) -> Outcome {
    let off = Tracer::off();
    let size = mix_size(args);
    // The warmup follows the timed set-up; its route settle times are the
    // same on every repetition, so one untimed pass reads them.
    let convergence_sim_s = {
        let mut probe = mix::Mix::setup(args.seed, size, &off);
        probe.warmup();
        probe.convergence_sim_s
    };
    repeat(
        args,
        convergence_sim_s,
        || mix::Mix::setup(args.seed, size, &off),
        |mut mix| {
            mix.warmup();
            let (rep, attempted, failed) = mix.measure();
            Measured {
                wall_s: rep.wall_s,
                attempted: attempted + rep.verdict.attempted,
                failed: failed + rep.verdict.failed(),
                overhead_kb_per_node: rep.overhead_kb_per_node,
                fingerprint: (rep.counters.events, rep.counters.bytes, rep.verdict.failed()),
                step_ms: rep.step_ms,
                request_us: rep.request_us,
            }
        },
    )
}

/// Fill the per-layer metrics common to both workload kinds.
fn layer_metrics(
    out: &mut Outcome,
    times: &BTreeMap<&'static str, SelfTime>,
    all_times: &BTreeMap<&'static str, SelfTime>,
    c: &simwl::Counters,
) {
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    for kind in report::CALLBACKS {
        out.set(format!("{kind}.count"), get(kind).count as f64);
        out.set(format!("{kind}.self_ms"), get(kind).self_ms);
    }
    out.set("netsim.events", c.events as f64);
    out.set("netsim.self_ms", get("netsim.step").self_ms);
    out.set("netsim.messages", c.messages as f64);
    out.set("netsim.bytes", c.bytes as f64);
    out.set("netsim.dropped_fault", c.dropped_fault as f64);
    out.set("netsim.dropped_node_down", c.dropped_node_down as f64);
    out.set("netsim.dropped_no_link", c.dropped_no_link as f64);
    let p = &c.processor;
    out.set("processor.batches", p.batches as f64);
    out.set("processor.tuples_sent", p.tuples_sent as f64);
    out.set("processor.tuples_received", p.tuples_received as f64);
    out.set("processor.tombstones_collapsed", p.tombstones_collapsed as f64);
    out.set("processor.prune_evicted", p.prune_evicted as f64);
    out.set("processor.tuples_rejected", p.tuples_rejected as f64);
    out.set("gate.admitted", p.tuples_derived as f64);
    out.set("gate.pruned", p.tuples_pruned as f64);
    out.set(
        "gate.admit_ratio",
        ratio(p.tuples_derived as f64, (p.tuples_derived + p.tuples_pruned) as f64),
    );
    out.set("transport.retransmits", p.retransmits as f64);
    out.set("transport.acks_sent", p.acks_sent as f64);
    out.set("transport.dups_dropped", p.dups_dropped as f64);
    out.set("transport.gaps_skipped", p.gaps_skipped as f64);
    out.set(
        "transport.retransmit_ratio",
        ratio(p.retransmits as f64, get("processor.msg.tuples").count as f64),
    );
    out.set("state.stored_tuples.max", c.stored_tuples_max as f64);
    out.set("state.prune_entries.max", c.prune_entries_max as f64);
    out.set("state.pending_tuples.end", c.pending_tuples_end as f64);
    let per_call_us = |name: &str, m: &BTreeMap<&'static str, SelfTime>| {
        let t = m.get(name).copied().unwrap_or_default();
        ratio(t.total_ms * 1e3, t.count as f64)
    };
    out.set("localize.parse_us", per_call_us("localize.parse", all_times));
    out.set("localize.localize_us", per_call_us("localize.localize", all_times));
    out.set("localize.plan_us", per_call_us("localize.plan", all_times));
    // Per-call costs are averaged over the whole traced repetition: the
    // sessions subscribe during set-up only.
    out.set("service.codec.encode_us", per_call_us("service.codec.encode", all_times));
    out.set("service.codec.decode_us", per_call_us("service.codec.decode", all_times));
    for kind in ["issue", "teardown", "inject", "subscribe"] {
        let span = format!("service.apply.{kind}");
        out.set(format!("service.apply.{kind}_us"), per_call_us(&span, all_times));
    }
    out.set("service.advance.sim_ms", per_call_us("service.advance.sim", times) / 1e3);
    out.set("service.advance.poll_ms", per_call_us("service.advance.poll", times) / 1e3);
    let bench_ms: f64 =
        ["bench.read", "bench.oracle", "state.footprint"].iter().map(|n| get(n).self_ms).sum();
    out.set("bench.self_ms", bench_ms);
}

/// The ledger: traced wall time (mirror excluded), overhead against the
/// untraced repetition, and the part no root span covers.
fn ledger(
    out: &mut Outcome,
    tracer: &Tracer,
    spans: std::ops::Range<usize>,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) {
    let mirror_ms = tracer.root_ms(spans.clone(), Some("mirror"));
    let attributed_ms = tracer.root_ms(spans, None);
    let wall_s = traced_wall_s - mirror_ms / 1e3;
    out.set("trace.wall_s", wall_s);
    out.set("trace.overhead_s", wall_s - untraced_wall_s);
    out.set("trace.unattributed_ms", traced_wall_s * 1e3 - attributed_ms);
    out.set("trace.mirror_ms", mirror_ms);
    out.set("trace.spans", tracer.len() as f64);
    eprintln!(
        "perfbench: ledger: traced wall {:.3} s (untraced {untraced_wall_s:.3} s), \
         attributed {:.1} ms, unattributed {:.1} ms, mirror {mirror_ms:.1} ms",
        wall_s,
        attributed_ms - mirror_ms,
        traced_wall_s * 1e3 - attributed_ms
    );
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
    }
}

fn traced_sim(args: &Args) -> Outcome {
    let plan = plan_of(args);
    let off = Tracer::off();
    let mut dep = simwl::deploy(&plan, &off);
    let untraced = simwl::measure(&mut dep, &plan, &off);
    drop(dep);

    let tracer = Tracer::on();
    let mut dep = simwl::deploy(&plan, &tracer);
    let rep = simwl::measure(&mut dep, &plan, &tracer);
    let times = tracer.self_times(rep.spans.clone());
    let all_times = tracer.self_times(0..tracer.len());

    let mut out = Outcome {
        attempted: rep.verdict.attempted,
        failed: rep.verdict.failed(),
        ..Outcome::default()
    };
    layer_metrics(&mut out, &times, &all_times, &rep.counters);
    out.set("service.codec.bytes_per_frame", 0.0);
    for name in
        ["service.deltas", "service.lagged", "service.errors", "service.lifecycle_ops_per_s"]
    {
        out.set(name, 0.0);
    }
    ledger(&mut out, &tracer, rep.spans.clone(), rep.wall_s, untraced.wall_s);
    write_spans(args, &tracer);
    out
}

fn traced_mix(args: &Args) -> Outcome {
    let size = mix_size(args);
    let off = Tracer::off();
    let mut mix = mix::Mix::setup(args.seed, size, &off);
    mix.warmup();
    let (untraced, _, _) = mix.measure();

    let tracer = Tracer::on();
    let mut mix = mix::Mix::setup(args.seed, size, &tracer);
    mix.warmup();
    let (rep, attempted, failed) = mix.measure();
    let times = tracer.self_times(rep.spans.clone());
    let all_times = tracer.self_times(0..tracer.len());

    let mut out = Outcome {
        attempted: attempted + rep.verdict.attempted,
        failed: failed + rep.verdict.failed(),
        ..Outcome::default()
    };
    layer_metrics(&mut out, &times, &all_times, &rep.counters);
    out.set("service.codec.bytes_per_frame", ratio(rep.frame_bytes as f64, rep.frames as f64));
    out.set("service.deltas", rep.deltas as f64);
    out.set("service.lagged", rep.lagged as f64);
    out.set("service.errors", rep.errors as f64);
    out.set("service.lifecycle_ops_per_s", ratio((rep.issued + rep.torn_down) as f64, rep.wall_s));
    if rep.mirror_exact == Some(false) {
        eprintln!("perfbench: the mirror deployment diverged from the service's engine");
    }
    ledger(&mut out, &tracer, rep.spans.clone(), rep.wall_s, untraced.wall_s);
    write_spans(args, &tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> String {
        let args = Args { workload: workload.to_string(), seed: 3, seconds: 0, trace, tiny: true };
        run(&args).expect("tiny run completes")
    }

    /// Every metric of `catalogue` appears in `line` with its unit.
    fn assert_all_printed(line: &str, catalogue: &[(String, &str)]) {
        assert!(line.starts_with("{\"correct\": ") && line.contains("\"attempted\": "), "{line}");
        for (name, unit) in catalogue {
            let field = format!("\"{name}\": {{\"value\": ");
            let at = line.find(&field).unwrap_or_else(|| panic!("{name} missing from {line}"));
            let rest = &line[at + field.len()..];
            let unit_field = format!(", \"unit\": \"{unit}\"}}");
            let end = rest.find('}').expect("metric object closes");
            assert!(rest[..=end].ends_with(&unit_field), "{name} lacks unit {unit}: {rest}");
        }
    }

    #[test]
    fn tiny_runs_print_every_metric_with_its_unit() {
        for workload in WORKLOADS.iter().chain(KNOWN_WRONG) {
            assert_all_printed(&tiny(workload, false), &report::end_to_end());
            assert_all_printed(&tiny(workload, true), &report::per_layer());
        }
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        let printed: Vec<_> = report::end_to_end().into_iter().chain(report::per_layer()).collect();
        for (name, unit) in &printed {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{workload}\"")), "{workload}");
        }
        assert_eq!(compact.matches("\"name\":").count(), printed.len() + WORKLOADS.len());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload lifecycle_lossy --seed 9 --seconds 4 --trace 1"))
            .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 4, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload rtt_adapt --trace 2")).is_err());
        assert!(parse_args(&argv("--workload rtt_adapt --bogus 1")).is_err());
    }
}
