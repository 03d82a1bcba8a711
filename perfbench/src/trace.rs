//! In-memory spans around the benchmark's calls into each layer's public
//! functions. A span has a name, start, end, parent span and a request ID
//! shared by the spans of one service request. Spans are kept in memory
//! and written out once, at the end, in Chrome `trace_event` form (open in
//! `chrome://tracing` or Perfetto). Self times are derived from them.
//!
//! With tracing off, [`Tracer::time`] still measures the call (the
//! benchmark needs the number) but records nothing.

use crate::json::quote;
use crate::stats::self_time;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded (or reserved) span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Request ID (0 when the span belongs to no service request).
    pub req: u64,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Small per-thread lane number, for the trace viewer.
    pub tid: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    LANE.with(|l| *l)
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an ID for a span whose children are recorded before it
    /// ends (spans are stored when they end).
    pub fn reserve(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span under a reserved ID (no-op when disabled).
    pub fn record(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let span =
            Span { id, name, parent, req, start_us: us(start), end_us: us(end), tid: lane() };
        self.spans.lock().expect("no thread panics while holding the span log").push(span);
    }

    /// Runs `f` inside a span and returns its result with its wall time in
    /// seconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if self.enabled {
            self.record(self.reserve(), name, parent, req, start, end);
        }
        (r, end.duration_since(start).as_secs_f64())
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no thread panics while holding the span log").clone()
    }

    /// Self time in milliseconds of every span, grouped by span name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans();
        let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            out.entry(s.name).or_default().push(self_time((s.start_us, s.end_us), kids) * 1e-3);
        }
        out
    }

    /// The spans in Chrome `trace_event` JSON ("X" complete events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                quote(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                s.id,
                parent,
                s.req
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_measures_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parent_self_time_excludes_children() {
        let t = Tracer::new(true);
        let root = t.reserve();
        let t0 = Instant::now();
        t.time("child", Some(root), 5, || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        t.record(root, "root", None, 5, t0, Instant::now());
        let selfs = t.self_times_ms();
        let root_self = selfs["root"][0];
        let child_self = selfs["child"][0];
        assert!(child_self >= 20.0, "child self {child_self}");
        assert!((4.0..20.0).contains(&root_self), "root self {root_self}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_request_ids() {
        let t = Tracer::new(true);
        let root = t.reserve();
        let t0 = Instant::now();
        t.time("a\"b", Some(root), 42, || ());
        t.record(root, "req", None, 42, t0, Instant::now());
        let doc = parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("a\"b"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("req").unwrap().as_f64(), Some(42.0));
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(root as f64));
    }
}
