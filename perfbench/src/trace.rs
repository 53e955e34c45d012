//! The benchmark's own spans: recorded from this crate's files around
//! calls into the program's public functions, kept in memory on the
//! calling thread, and written out when the run ends. The program's own
//! telemetry sink is never installed, so a traced run differs from an
//! untraced one only by these timers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Spans caused by one request (or one pipeline run) share this id.
    pub trace_id: u64,
    /// Heap allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_id: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (dropping anything recorded before).
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        })
    });
}

/// Stops recording and returns every closed span, in start order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Sets the trace id stamped on spans opened from now on.
pub fn set_trace_id(id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.trace_id = id;
        }
    });
}

/// An open span; closes when dropped. Inert when recording is off.
pub struct Guard {
    index: Option<usize>,
}

impl Guard {
    /// Renames the span before it closes (for calls whose kind is known
    /// only from their result, such as a cache lookup that compiled).
    pub fn rename(&self, name: &str) {
        if let Some(i) = self.index {
            RECORDER.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.spans[i].name = name.to_string();
                }
            });
        }
    }
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len();
        rec.spans.push(Span {
            name: name.to_string(),
            start_ns: rec.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.open.last().copied(),
            trace_id: rec.trace_id,
            allocs: crate::alloc::count(),
        });
        rec.open.push(index);
        Some(index)
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(i) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let span = &mut rec.spans[i];
                span.end_ns = rec.origin.elapsed().as_nanos() as u64;
                span.allocs = crate::alloc::count() - span.allocs;
                if rec.open.last() == Some(&i) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
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
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a recording.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl Totals {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms() / self.count as f64
        }
    }
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<String, Totals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
        t.allocs += s.allocs;
    }
    out
}

/// Writes the spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace_id\":{},\"allocs\":{}}}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.trace_id,
            s.allocs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            trace_id: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.child", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // a ∪ b clipped to the root covers [10, 100).
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        drop(super::span("ignored"));
        assert!(take().is_empty());
        enable();
        {
            let _outer = super::span("outer");
            let inner = super::span("inner");
            inner.rename("renamed");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "renamed");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
