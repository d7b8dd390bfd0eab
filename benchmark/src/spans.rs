//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public API (name, start, end, parent) and written out once
//! the run ends, so recording costs one clock read at each edge.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Simulated picoseconds the call advanced (0 when it advanced none).
    pub sim_ps: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans when on; when off, [`Recorder::span`] only calls its
/// closure, so the timed and the traced runs share one code path.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::new()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` are
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sim_ps: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records the simulated time the innermost open span advanced.
    pub fn set_sim_ps(&mut self, sim_ps: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].sim_ps = sim_ps;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Summed simulated time of the spans named `name`, in picoseconds.
    pub fn total_sim_ps(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.sim_ps).sum()
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self_time(&self.spans, idx)
    }

    /// The spans as a JSON document: `{"spans": [{name, start_ns, end_ns,
    /// parent, sim_ps}, ...]}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"sim_ps\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.sim_ps
                )
            })
            .collect();
        format!("{{\"spans\":[{}]}}\n", rows.join(",\n"))
    }
}

/// Self time of `spans[idx]`: its duration minus the union of its direct
/// children's intervals clipped to it (children may overlap when they
/// were recorded on several threads).
pub fn self_time(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            sim_ps: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("chunk", 10, 30, Some(0)),
            span("chunk", 50, 90, Some(0)),
            span("inner", 55, 60, Some(2)),
        ];
        assert_eq!(self_time(&spans, 0), 40);
        assert_eq!(self_time(&spans, 2), 35);
        assert_eq!(self_time(&spans, 3), 5);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("machine", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("step", 40, 80, Some(0)),
            span("step", 90, 120, Some(0)),
        ];
        // Children cover 10..80 and 90..100 of the parent.
        assert_eq!(self_time(&spans, 0), 20);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut rec = Recorder::new();
        rec.span("outer", |rec| {
            rec.span("inner", |rec| rec.set_sim_ps(7));
            rec.span("inner", |rec| rec.set_sim_ps(5));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(rec.total_sim_ps("inner"), 12);
        assert_eq!(rec.named("inner").count(), 2);
        assert!(rec.total_ns("outer") >= rec.total_ns("inner"));
        let mut off = Recorder::off();
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 3)), 3);
        off.set_sim_ps(1);
        assert!(off.spans().is_empty());
        assert_eq!(
            rec.self_ns(0),
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }

    #[test]
    fn spans_export_as_json() {
        let mut rec = Recorder::new();
        rec.span("a", |rec| rec.span("b", |_| ()));
        let doc = swallow_testkit::json::parse(&rec.to_json()).expect("valid JSON");
        let rows = doc.get("spans").and_then(|s| s.as_array()).expect("array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(rows[1].get("name").and_then(|p| p.as_str()), Some("b"));
    }
}
