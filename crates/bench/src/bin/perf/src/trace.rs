//! The traced run's span recorder.
//!
//! Spans are kept in memory (name, start, end, parent span, request id)
//! and written out once when the run ends. They are recorded by this
//! benchmark around its own calls into each layer's public functions;
//! nothing inside the program is instrumented.

use relogic_serve::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: u64,
    pub failed: bool,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span sink sharing one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Records an interval measured elsewhere as a root span, e.g. one
    /// socket round trip.
    pub fn add(&self, name: &'static str, start: Instant, end: Instant, req: u64) {
        self.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: None,
            req,
            failed: false,
        });
    }

    /// Opens a root span; close it with [`Scope::finish`].
    pub fn root(&self, name: &'static str, req: u64) -> Scope<'_> {
        Scope {
            tracer: Some(self),
            id: self.begin(name, None, req),
            req,
        }
    }

    fn begin(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.epoch.elapsed();
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
            failed: false,
        })
    }

    fn end(&self, id: usize, failed: bool) {
        let now = self.epoch.elapsed();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans[id].end = now;
        spans[id].failed = failed;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock poisoned")
    }
}

/// An open span under which layer calls are recorded as children. The
/// [`Scope::OFF`] scope records nothing, so one code path serves both the
/// traced replay and the untraced cross-checks.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    id: usize,
    req: u64,
}

impl Scope<'_> {
    pub const OFF: Scope<'static> = Scope {
        tracer: None,
        id: 0,
        req: 0,
    };

    /// Opens a child span; close it with [`Scope::finish`].
    pub fn open(&self, name: &'static str) -> Scope<'_> {
        Scope {
            tracer: self.tracer,
            id: self
                .tracer
                .map_or(0, |t| t.begin(name, Some(self.id), self.req)),
            req: self.req,
        }
    }

    pub fn finish(self, failed: bool) {
        if let Some(tracer) = self.tracer {
            tracer.end(self.id, failed);
        }
    }

    /// Times an infallible layer call.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        span.finish(false);
        out
    }

    /// Times a fallible layer call; an `Err` marks the span failed.
    pub fn call<T, E>(&self, name: &'static str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let span = self.open(name);
        let out = f();
        span.finish(out.is_err());
        out
    }
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    /// Duration minus the part of it covered by child spans.
    pub self_time: Duration,
    pub fail: u64,
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn union_length(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Time of `span` covered by its children (overlapping children, e.g.
/// from worker threads, count once).
fn covered(spans: &[Span], kids: &[usize], span: &Span) -> Duration {
    let intervals = kids
        .iter()
        .map(|&k| (spans[k].start, spans[k].end))
        .collect();
    union_length(intervals, span.start, span.end)
}

/// Reduces spans to per-name call counts, self times and failures.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let kids = children(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let own = span
            .duration()
            .saturating_sub(covered(spans, &kids[i], span));
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_time += own;
        t.fail += u64::from(span.failed);
    }
    out
}

/// Summed time that the children of every root span named `root` cover:
/// the part of the replayed work that layer spans account for.
pub fn covered_under(spans: &[Span], root: &str) -> Duration {
    let kids = children(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == root)
        .map(|(i, s)| covered(spans, &kids[i], s))
        .sum()
}

/// Mean cost of recording one span, measured on a scratch tracer; times
/// the number of spans a run recorded it is the run's tracing overhead.
pub fn span_cost() -> Duration {
    const N: u32 = 20_000;
    let tracer = Tracer::new();
    let root = tracer.root("calibration", 0);
    let started = Instant::now();
    for _ in 0..N {
        root.time("calibration.child", || ());
    }
    started.elapsed() / N
}

/// The trace file: a name table plus one compact row per span
/// (`[name, start_us, end_us, parent or -1, request, failed]`).
pub fn to_json(spans: &[Span], header: Vec<(&'static str, Json)>) -> Json {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let index = |name: &str| names.binary_search(&name).unwrap_or(0);
    let micros = |d: Duration| Json::from(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::from(index(s.name)),
                micros(s.start),
                micros(s.end),
                s.parent.map_or(Json::Num(-1.0), Json::from),
                Json::from(s.req),
                Json::from(u64::from(s.failed)),
            ])
        })
        .collect();
    let mut doc = Json::obj(header);
    doc.push(
        "span_columns",
        Json::Arr(
            ["name", "start_us", "end_us", "parent", "req", "failed"]
                .into_iter()
                .map(Json::from)
                .collect(),
        ),
    );
    doc.push(
        "names",
        Json::Arr(names.iter().map(|&n| Json::from(n)).collect()),
    );
    doc.push("spans", Json::Arr(rows));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            req: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0, 10] with overlapping children [1, 3] and [2, 5] (two
        // worker threads) and a grandchild [2, 3] under the first child.
        let spans = vec![
            span("job", 0, 10, None),
            span("core.single_pass_run", 1, 3, Some(0)),
            span("core.single_pass_run", 2, 5, Some(0)),
            span("netlist.parse", 2, 3, Some(1)),
        ];
        let totals = reduce(&spans);
        assert_eq!(totals["job"].self_time, Duration::from_millis(6));
        assert_eq!(totals["core.single_pass_run"].calls, 2);
        // 2 ms - 1 ms grandchild, plus 3 ms.
        assert_eq!(
            totals["core.single_pass_run"].self_time,
            Duration::from_millis(4)
        );
        assert_eq!(totals["netlist.parse"].self_time, Duration::from_millis(1));
        assert_eq!(covered_under(&spans, "job"), Duration::from_millis(4));
    }

    #[test]
    fn children_are_clipped_to_their_parent_and_failures_counted() {
        let mut spans = vec![
            span("request", 5, 10, None),
            span("store.read", 3, 7, Some(0)),
            span("store.read", 9, 12, Some(0)),
        ];
        spans[2].failed = true;
        let totals = reduce(&spans);
        assert_eq!(totals["request"].self_time, Duration::from_millis(2));
        assert_eq!(totals["store.read"].fail, 1);
        assert_eq!(totals["store.read"].self_time, Duration::from_millis(7));
    }

    #[test]
    fn scopes_nest_and_mark_errors() {
        let tracer = Tracer::new();
        let root = tracer.root("job", 7);
        root.time("netlist.parse", || ());
        let tiers = root.open("estimate.run");
        let _: Result<(), ()> = tiers.call("bdd.observability", || Err(()));
        tiers.finish(false);
        root.finish(false);
        Scope::OFF.time("ignored", || ());
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[3].failed);
        assert!(spans.iter().all(|s| s.req == 7));
        let doc = to_json(&spans, vec![("workload", Json::from("t"))]).encode();
        assert!(doc.contains(
            "\"names\":[\"bdd.observability\",\"estimate.run\",\"job\",\"netlist.parse\"]"
        ));
    }
}
