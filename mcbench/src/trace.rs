//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end, the span that caused it, and the workload and repetition it
//! belongs to. Calls made once per trace record (`Workload::next`,
//! `TraceV2Writer::push`, `StreamingPlayer::next`) are far too many to
//! keep one span each, so they are kept as one aggregate span per caller:
//! `calls` counts the calls and `busy_ns` sums their durations. Spans stay
//! in memory and are written out once, when the benchmark ends.
//!
//! When the recorder is off every method returns at once and nothing is
//! allocated, so the untraced run does the same work as the traced one
//! minus the clock reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// The timed call.
    name: &'static str,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Repetition of the workload the span belongs to.
    rep: usize,
    /// Start, in ns since the recorder was created.
    start_ns: u64,
    /// End, in ns since the recorder was created.
    end_ns: u64,
    /// Calls covered (1 unless the span is an aggregate).
    calls: u64,
    /// Time spent inside the calls (equals `end - start` for a plain span).
    busy_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    workload: &'static str,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `workload`; records only while `on`.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            workload,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off and sets the repetition index that
    /// new spans carry.
    pub fn set(&mut self, on: bool, rep: usize) {
        assert!(self.open.is_empty(), "switching with open spans");
        self.on = on;
        self.rep = rep;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls,
            busy_ns,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span around a call; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        let id = self.push(name, now, now, 1, 0);
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` opened.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
    }

    /// Records a finished call measured by the caller (a pool job on a
    /// worker thread, say) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let busy = end.saturating_duration_since(start).as_nanos() as u64;
            self.push(name, start, end, 1, busy);
        }
    }

    /// Records `calls` calls to `name` that together took `busy_ns`
    /// between `start` and `end`, as one aggregate child of the innermost
    /// open span.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
    ) {
        if self.on && calls > 0 {
            self.push(name, start, end, calls, busy_ns);
        }
    }

    /// Per span name: calls, summed duration and summed self time (the
    /// duration minus the time its child spans cover), all in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.calls;
            e.1 += s.busy_ns;
            e.2 += s.busy_ns.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"workload\":\"{}\",\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.name, self.workload, s.rep, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new("w");
        let id = t.begin("a");
        t.end(id);
        let now = Instant::now();
        t.record("b", now, now);
        t.aggregate("c", now, now, 3, 10);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("w");
        t.set(true, 0);
        let outer = t.begin("outer");
        let now = Instant::now();
        t.aggregate("leaf", now, now, 4, 1_000);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(outer);
        let st = t.self_times();
        let (calls, total, own) = st["outer"];
        assert_eq!(calls, 1);
        assert_eq!(own, total - 1_000);
        assert_eq!(st["leaf"], (4, 1_000, 1_000));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
