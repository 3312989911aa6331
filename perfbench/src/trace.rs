//! In-memory span recorder.
//!
//! Spans wrap the benchmark's calls into each layer of the stack: a name,
//! a start and end on one monotonic clock, the span that caused it, and
//! the recording thread. They stay in memory while the workload runs and
//! are written once at the end as Chrome trace-event JSON, which Perfetto
//! (ui.perfetto.dev, "Open trace file") and `chrome://tracing` load
//! offline. A disabled tracer records nothing and costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span (or of nothing, when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The parent of root spans.
    pub const ROOT: SpanId = SpanId(usize::MAX);
}

/// One finished (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tid: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() % 100_000
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Open a span under `parent`.
    pub fn begin(&self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        let span = Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: (parent != SpanId::ROOT).then_some(parent.0),
            tid: thread_tag(),
        };
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if !self.enabled || id == SpanId::ROOT {
            return;
        }
        let now = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id.0].end_ns = now;
    }

    /// Run `f` inside a span; `f` gets the span as parent for its own.
    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by at least one child (children may overlap when they ran on
/// other threads, and may outlive the parent; both are clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Self time (s) summed per span name, name-ordered.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON: one complete ("X") event per span, with its
/// id, parent id and self time in `args`, plus `meta` as `otherData`.
pub fn chrome_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let selfs = self_times_ns(spans);
    let mut j = String::from("{\"displayTimeUnit\": \"ms\", \"otherData\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(j, "{sep}{}: {}", json_str(k), json_str(v));
    }
    j.push_str("}, \"traceEvents\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            j,
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"self_us\": {:.3}}}}}{}",
            json_str(&s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            *self_ns as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    j.push_str("]}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` (another thread): only 30..50 is new cover.
            span("b", 20, 50, Some(0)),
            // Outlives the parent: clipped at 100.
            span("c", 90, 120, Some(0)),
            span("a.inner", 12, 18, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - (40 + 10), 20 - 6, 30, 30, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["run"], 50e-9);
        assert_eq!(by_name.len(), 5);
    }

    #[test]
    fn children_nested_in_each_other_are_not_double_counted() {
        let spans = vec![
            span("root", 0, 10, None),
            span("x", 2, 8, Some(0)),
            span("y", 3, 5, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 4);
    }

    #[test]
    fn recorder_links_parents_and_writes_json() {
        let t = Tracer::new(true);
        t.span("workload", SpanId::ROOT, |w| {
            t.span("setup", w, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let json = chrome_json(&spans, &[("workload", "test".into())]);
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));

        let off = Tracer::new(false);
        off.span("workload", SpanId::ROOT, |_| ());
        assert!(off.spans().is_empty());
    }
}
