//! In-memory spans recorded by the benchmark around calls into the crates'
//! public functions (tracing from inside the program is a later issue).
//!
//! The tracer always times; it only *records* when enabled. The untraced
//! run therefore pays two `Instant::now()` calls per boundary and nothing
//! else, and the difference between the two modes is the recording cost
//! that `trace_overhead_share` reports.

use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or call name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Iteration of the timed loop this span belongs to (0 = warm-up or
    /// outside the loop).
    pub iteration: u32,
}

/// Handle for a span that has begun and not yet ended.
#[must_use = "pass the handle back to Tracer::end"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder for one single-threaded workload process.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Whether `begin`/`end` record spans (they time either way).
    pub recording: bool,
    /// Iteration stamped onto spans begun from now on.
    pub iteration: u32,
}

impl Tracer {
    /// A tracer that records iff `recording`.
    pub fn new(recording: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording,
            iteration: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                iteration: self.iteration,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns(now);
            // Spans close innermost-first; anything still above `i` on the
            // stack was abandoned by an early return and closes with it.
            while self.stack.pop().is_some_and(|top| top != i) {}
        }
        now.duration_since(open.start).as_secs_f64()
    }

    /// Time `f` inside a span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, nanoseconds: its duration minus the part of
/// its interval that its direct children cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, seconds, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals.into_iter().map(|(n, t)| (n, t as f64 / 1e9)).collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, self time and iteration in `args`.
pub fn chrome_trace(spans: &[Span], process_name: &str) -> Value {
    let own = self_times(spans);
    let mut events = vec![Value::obj([
        ("name", Value::Str("process_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::Num(1.0)),
        ("args", Value::obj([("name", Value::Str(process_name.into()))])),
    ])];
    for (i, s) in spans.iter().enumerate() {
        events.push(Value::obj([
            ("name", Value::Str(s.name.into())),
            ("ph", Value::Str("X".into())),
            ("pid", Value::Num(1.0)),
            ("tid", Value::Num(1.0)),
            ("ts", Value::Num(s.start_ns as f64 / 1e3)),
            ("dur", Value::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
            (
                "args",
                Value::obj([
                    ("id", Value::Num(i as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("iteration", Value::Num(f64::from(s.iteration))),
                    ("self_us", Value::Num(own[i] as f64 / 1e3)),
                ]),
            ),
        ]));
    }
    Value::obj([("traceEvents", Value::Arr(events)), ("displayTimeUnit", Value::Str("ms".into()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, iteration: 1 }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // iteration [0,100)
        //   run_job [10,70)
        //     sortbuf [20,40)
        //     merge   [35,50)   overlaps sortbuf by 5
        //     put     [60,90)   sticks out of run_job by 20
        //   read_output [70,95)
        let spans = vec![
            span("iteration", 0, 100, None),
            span("run_job", 10, 70, Some(0)),
            span("sortbuf", 20, 40, Some(1)),
            span("merge", 35, 50, Some(1)),
            span("put", 60, 90, Some(1)),
            span("read_output", 70, 95, Some(0)),
        ];
        let own = self_times(&spans);
        // iteration: 100 - (60 + 25) = 15
        // run_job: 60 - ([20,50) = 30 + [60,70) = 10) = 20
        assert_eq!(own, vec![15, 20, 20, 15, 30, 25]);
        // Every nanosecond of the root is attributed exactly once when the
        // tree is well nested (drop the child that sticks out).
        let nested: Vec<Span> = spans
            .iter()
            .cloned()
            .map(|mut s| {
                if s.name == "put" {
                    s.end_ns = 70;
                }
                s
            })
            .collect();
        let own = self_times(&nested);
        let overlap = 5; // sortbuf/merge double-cover
        assert_eq!(own.iter().sum::<u64>(), 100 + overlap);
    }

    #[test]
    fn tracer_nests_and_returns_durations_in_both_modes() {
        for recording in [false, true] {
            let mut t = Tracer::new(recording);
            t.iteration = 3;
            let outer = t.begin("outer");
            let ((), inner_s) = t.timed("inner", || std::hint::black_box(()));
            let outer_s = t.end(outer);
            assert!(outer_s >= inner_s && inner_s >= 0.0);
            if recording {
                assert_eq!(t.spans().len(), 2);
                assert_eq!(t.spans()[1].parent, Some(0));
                assert_eq!(t.spans()[0].parent, None);
                assert_eq!(t.spans()[1].iteration, 3);
                assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
            } else {
                assert!(t.spans().is_empty());
            }
        }
    }

    #[test]
    fn chrome_trace_has_one_event_per_span_plus_metadata() {
        let spans = vec![span("a", 0, 2_000, None), span("b", 500, 1_500, Some(0))];
        let doc = chrome_trace(&spans, "wc-shuffle");
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[1].get("args").unwrap().get("self_us").unwrap().as_f64(), Some(1.0));
        assert_eq!(by_name(&spans), vec![("a", 1e-6), ("b", 1e-6)]);
    }

    fn by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
        self_time_by_name(spans)
    }
}
