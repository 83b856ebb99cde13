//! The metric catalogue and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with tracing off): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("step_ms.p50", "ms"),
    ("step_ms.p90", "ms"),
    ("request_us.p50", "us"),
    ("request_us.p99", "us"),
    ("ops_ok_frac", "ratio"),
    ("convergence_sim_s", "sim_s"),
    ("overhead_kb_per_node", "KB"),
    ("peak_rss_mb", "MB"),
];

/// Processor callback kinds, each reported as `<kind>.count` and
/// `<kind>.self_ms`.
pub const CALLBACKS: &[&str] = &[
    "processor.timer",
    "processor.link_event",
    "processor.join",
    "processor.msg.tuples",
    "processor.msg.ack",
    "processor.msg.install",
    "processor.msg.teardown",
    "processor.msg.query_request",
    "processor.msg.cache_install",
    "processor.msg.prov",
];

/// Per-layer metrics (printed by the traced run), callbacks excluded.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events", "count"),
    ("netsim.self_ms", "ms"),
    ("netsim.messages", "count"),
    ("netsim.bytes", "B"),
    ("netsim.dropped_fault", "count"),
    ("netsim.dropped_node_down", "count"),
    ("netsim.dropped_no_link", "count"),
    ("processor.batches", "count"),
    ("processor.tuples_sent", "count"),
    ("processor.tuples_received", "count"),
    ("processor.tombstones_collapsed", "count"),
    ("processor.prune_evicted", "count"),
    ("processor.tuples_rejected", "count"),
    ("gate.admitted", "count"),
    ("gate.pruned", "count"),
    ("gate.admit_ratio", "ratio"),
    ("transport.retransmits", "count"),
    ("transport.acks_sent", "count"),
    ("transport.dups_dropped", "count"),
    ("transport.gaps_skipped", "count"),
    ("transport.retransmit_ratio", "ratio"),
    ("state.stored_tuples.max", "count"),
    ("state.prune_entries.max", "count"),
    ("state.pending_tuples.end", "count"),
    ("localize.parse_us", "us"),
    ("localize.localize_us", "us"),
    ("localize.plan_us", "us"),
    ("service.codec.encode_us", "us"),
    ("service.codec.decode_us", "us"),
    ("service.codec.bytes_per_frame", "B"),
    ("service.apply.issue_us", "us"),
    ("service.apply.teardown_us", "us"),
    ("service.apply.inject_us", "us"),
    ("service.apply.subscribe_us", "us"),
    ("service.advance.sim_ms", "ms"),
    ("service.advance.poll_ms", "ms"),
    ("service.deltas", "count"),
    ("service.lagged", "count"),
    ("service.errors", "count"),
    ("service.lifecycle_ops_per_s", "1/s"),
    ("bench.self_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_ms", "ms"),
    ("trace.mirror_ms", "ms"),
    ("trace.spans", "count"),
];

/// Every per-layer metric: the callback pairs plus [`PER_LAYER`].
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = CALLBACKS
        .iter()
        .flat_map(|k| [(format!("{k}.count"), "count"), (format!("{k}.self_ms"), "ms")])
        .collect();
    out.extend(PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The result line: every metric of `catalogue`, in order, with its
    /// unit. A metric missing or not finite is an error.
    pub fn render(&self, catalogue: &[(String, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value =
                *self.metrics.get(name).ok_or_else(|| format!("metric {name} not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
