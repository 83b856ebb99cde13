//! In-memory span recorder and the traced node application.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! around `Simulator::run_until` (netsim), around every `QueryProcessor`
//! callback (processor), around parse/localize/plan (localize), and around
//! the codec and `RoutingService` calls (service). A span's self time is its
//! duration minus the time its child spans cover. Nothing is recorded when
//! the tracer is off, so the untraced run pays one branch per callback.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use dr_core::{NetMsg, QueryProcessor};
use dr_netsim::{Context, LinkEvent, NodeApp};
use dr_types::NodeId;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub step: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count, summed self time and summed duration of every span with one
/// name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ms: f64,
    pub total_ms: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), step: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step: self.step });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }
}

/// A shared handle to the recorder; `None` when tracing is off.
#[derive(Clone)]
pub struct Tracer(Option<Rc<RefCell<Recorder>>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(Recorder::new()))))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            None => f(),
            Some(rec) => {
                let id = rec.borrow_mut().begin(name);
                let out = f();
                rec.borrow_mut().end(id);
                out
            }
        }
    }

    /// Tag subsequently opened spans with step `step`.
    pub fn set_step(&self, step: u32) {
        if let Some(rec) = &self.0 {
            rec.borrow_mut().step = step;
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |rec| rec.borrow().spans.len())
    }

    /// Per-name count and self time of the spans with index in `range`.
    pub fn self_times(&self, range: Range<usize>) -> BTreeMap<&'static str, SelfTime> {
        let Some(rec) = &self.0 else { return BTreeMap::new() };
        let rec = rec.borrow();
        let spans = &rec.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate().take(range.end).skip(range.start) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.self_ms += span.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            entry.total_ms += span.dur_ns() as f64 / 1e6;
        }
        out
    }

    /// Summed duration (ms) of the root spans with index in `range` whose
    /// name is `name` (`Some`) or any name (`None`). Since the self times of
    /// a tree add up to its root's duration, the roots are what the ledger
    /// attributes.
    pub fn root_ms(&self, range: Range<usize>, name: Option<&str>) -> f64 {
        let Some(rec) = &self.0 else { return 0.0 };
        let rec = rec.borrow();
        rec.spans[range]
            .iter()
            .filter(|s| s.parent == NO_PARENT && name.is_none_or(|n| n == s.name))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Write every span as a tab-separated line: index, name, start_ns,
    /// end_ns, parent index (-1 for a root), step.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(rec) = &self.0 else { return Ok(()) };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tstep")?;
        for (i, s) in rec.borrow().spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.step)?;
        }
        out.flush()
    }
}

/// Span name of a processor message callback.
fn msg_span(msg: &NetMsg) -> &'static str {
    match msg {
        NetMsg::Install { .. } => "processor.msg.install",
        NetMsg::Tuples { .. } => "processor.msg.tuples",
        NetMsg::Ack { .. } => "processor.msg.ack",
        NetMsg::QueryRequest { .. } => "processor.msg.query_request",
        NetMsg::Teardown { .. } => "processor.msg.teardown",
        NetMsg::ProvFetch { .. } | NetMsg::ProvReply { .. } => "processor.msg.prov",
        NetMsg::CacheInstall { .. } => "processor.msg.cache_install",
    }
}

/// A `QueryProcessor` whose callbacks are timed: the benchmark-side
/// boundary between the simulator and the processor.
pub struct Probe {
    pub inner: QueryProcessor,
    tracer: Tracer,
}

impl Probe {
    pub fn new(inner: QueryProcessor, tracer: Tracer) -> Probe {
        Probe { inner, tracer }
    }
}

impl NodeApp for Probe {
    type Message = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.tracer.span("processor.join", || self.inner.on_start(ctx));
    }

    fn on_join(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.tracer.span("processor.join", || self.inner.on_join(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, msg: NetMsg) {
        let name = msg_span(&msg);
        self.tracer.span(name, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, timer: u64) {
        self.tracer.span("processor.timer", || self.inner.on_timer(ctx, timer));
    }

    fn on_link_event(&mut self, ctx: &mut Context<'_, NetMsg>, event: LinkEvent) {
        self.tracer.span("processor.link_event", || self.inner.on_link_event(ctx, event));
    }
}
