//! In-memory span recorder for the traced run.
//!
//! Each span has a name, a start and an end (nanoseconds since the tracer
//! was created) and the index of the span that was open when it began. The
//! spans stay in memory until the run ends and are then written out as one
//! JSON file. Clock reads go through `seqpat_core::stats::Stopwatch`.

use std::cell::RefCell;
use std::fmt::Write as _;

use seqpat_core::stats::Stopwatch;

/// One recorded layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans around calls. Methods take `&self` so that a span's
/// closure can open child spans on the same tracer.
pub struct Tracer {
    clock: Stopwatch,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            clock: Stopwatch::start(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Per span name: calls, inclusive seconds and self seconds (the span's
    /// duration minus the time its direct children cover), in first-seen
    /// order.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.seconds();
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let self_s = s.seconds() - child_s[i];
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.seconds();
                    r.3 += self_s;
                }
                None => rows.push((s.name, 1, s.seconds(), self_s)),
            }
        }
        rows
    }

    /// The spans as a JSON document: the raw span list plus the per-name
    /// summary.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        drop(spans);
        out.push_str("], \"summary\": [\n");
        let rows = self.summary();
        for (i, (name, calls, total, self_s)) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{name}\", \"calls\": {calls}, \"total_s\": {total}, \"self_s\": {self_s}}}{sep}"
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
            t.span("inner", || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        let rows = t.summary();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].0, rows[0].1), ("outer", 1));
        assert_eq!((rows[1].0, rows[1].1), ("inner", 2));
        assert!(rows[0].2 >= rows[1].2);
        assert!((rows[0].3 - (rows[0].2 - rows[1].2)).abs() < 1e-9);
        let json = t.to_json();
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
    }
}
