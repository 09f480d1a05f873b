//! In-memory span recording for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer (never inside the program), kept in memory while the run is
//! timed, and written out as JSON afterwards.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Times `f` as a span when tracing, and just runs it otherwise.
pub fn maybe_span<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, op, f),
        None => f(),
    }
}

/// A span's duration minus the part of it its direct children cover
/// (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut edge = me.start_ns;
    for (a, b) in kids {
        if b > edge {
            covered += b - a.max(edge);
            edge = b;
        }
    }
    me.duration_ns() - covered
}

/// For every op that has spans called `name`: the time those spans
/// took together, in nanoseconds. A stage made of several calls per
/// op (a handshake's flights) is one number per op.
pub fn per_op_ns(spans: &[Span], name: &str) -> Vec<u64> {
    let mut by_op: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(s.op).or_default() += s.duration_ns();
    }
    by_op.into_values().collect()
}

/// Renders `threads` (label, spans) as one JSON document.
pub fn to_json(threads: &[(String, &[Span])]) -> String {
    let mut out = String::from("{\"threads\":[");
    for (t, (label, spans)) in threads.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"thread\":\"{label}\",\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                self_time_ns(spans, i)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the shared 20..30 is covered once.
            span("b", Some(0), 20, 50),
            span("c", Some(0), 70, 80),
            // A grandchild covers nothing of the root.
            span("a.inner", Some(1), 12, 18),
            // Another root is not a child.
            span("other", None, 40, 60),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 6);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn tracer_nests_and_sums_per_op() {
        let mut t = Tracer::new(Instant::now());
        for op in 0..3 {
            let root = t.enter("op", op);
            t.span("stage", op, || std::hint::black_box(op));
            t.span("stage", op, || std::hint::black_box(op));
            t.exit(root);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(per_op_ns(spans, "stage").len(), 3);
        assert_eq!(per_op_ns(spans, "op").len(), 3);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            assert!(self_time_ns(spans, i) <= s.duration_ns());
        }
        assert!(to_json(&[("t0".to_string(), spans)]).contains("\"self_ns\":"));
    }
}
