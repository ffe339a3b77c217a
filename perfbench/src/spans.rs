//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around each public library
//! call: name, start, end, parent and the id of the pass they belong to.
//! Nothing inside the library is instrumented. A span's *self time* is its
//! duration minus the part of its interval that its children cover; the
//! children may overlap one another (their union is what counts).

use mwsj_core::obs::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    /// What the span ran, e.g. `ils` under a `search` span.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub pass: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// untraced runs pay only a branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    pass: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between passes only");
        self.enabled = enabled;
    }

    /// Starts a new pass: later spans carry the new pass id.
    pub fn begin_pass(&mut self) -> u64 {
        self.pass += 1;
        self.pass
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            id,
            name,
            detail: detail.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            pass: self.pass,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":{},\"detail\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}",
                s.id,
                escape(s.name),
                escape(&s.detail),
                s.start_ns,
                s.end_ns,
                parent,
                s.pass
            );
        }
        out
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// length of the union of its children's intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "s",
            detail: String::new(),
            start_ns,
            end_ns,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        // root [0,100): children [10,40) and [30,60) overlap (union 50),
        // plus [90,120) which sticks out past the root (10 inside).
        // child 1 [10,40) has a grandchild [15,25).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn self_time_of_leaf_is_its_duration_and_children_never_double_count() {
        let spans = vec![
            span(0, None, 0, 50),
            span(1, Some(0), 0, 50),
            span(2, Some(0), 0, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 50, 50]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_passes() {
        let mut rec = Recorder::new(true);
        let pass = rec.begin_pass();
        rec.span("pass", "", |rec| {
            rec.span("parse", "a.csv", |_| ());
            rec.span("build", "", |rec| rec.span("bulk_load", "", |_| ()));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans
            .iter()
            .all(|s| s.pass == pass && s.end_ns >= s.start_ns));
        let total: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("pass", "", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
