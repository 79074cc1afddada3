//! The harness's own span recorder. Spans are taken around the calls
//! into each engine layer (never inside the engine), kept in memory and
//! written out as Chrome-trace JSON when the traced run ends.

use std::time::Instant;

use bypass_trace::json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one statement execution share this identifier.
    pub stmt: u32,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, stmt: u32) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Close every span still open — the error path of a layered run,
    /// so one failed statement cannot unbalance the rest of the trace.
    pub fn close_all(&mut self) {
        while let Some(id) = self.open.last().copied() {
            self.close(id);
        }
    }

    /// Time one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, stmt: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, stmt);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Chrome Trace Event JSON (complete `X` events, microsecond
/// timestamps); loads in `chrome://tracing` and Perfetto.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
        json::quote(process)
    ));
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n{{\"name\":{},\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"stmt\":{}}}}}",
            json::quote(s.name),
            json::number(s.start_ns as f64 / 1e3),
            json::number((s.end_ns - s.start_ns) as f64 / 1e3),
            s.stmt
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30: the grandchild is
        // inside the child and must not be subtracted from the root again.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // children 10..50 and 30..70 overlap on 30..50; 90..130 sticks out
        // of the parent and only 90..100 of it counts.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_and_exports_valid_json() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.open("statement", 7);
        let got = rec.time("sql.parse", 7, || 42);
        rec.close(root);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = chrome_json(spans, "test \"quoted\"");
        json::validate(&text).expect("chrome trace is valid JSON");
        assert!(text.contains("\"stmt\":7"));
    }

    #[test]
    fn close_all_rebalances_after_an_error() {
        let mut rec = Recorder::with_capacity(4);
        rec.open("statement", 1);
        rec.open("exec.execute", 1);
        rec.close_all();
        let again = rec.open("statement", 2);
        assert_eq!(rec.spans()[again].parent, None);
    }
}
