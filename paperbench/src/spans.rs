//! Benchmark-side spans: wall-clock intervals recorded around the calls the
//! benchmark makes into each layer, kept in memory and written out once the
//! run ends.
//!
//! Spans are recorded from the benchmark's own code only; nothing inside the
//! program under test is instrumented. A span has a name, a start and end
//! (nanoseconds since the recorder was created), the span that caused it, and
//! the thread it ran on. A disabled recorder (the untraced runs) records
//! nothing and costs one branch per span.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (1-based; 0 is never issued).
pub type SpanId = u32;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `experiments.run_campaign`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Small per-thread number (0 = the first thread that recorded a span).
    pub thread: u32,
}

/// Thread-safe in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    done: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static THREAD_NO: Cell<Option<u32>> = const { Cell::new(None) };
}

impl Spans {
    /// A recorder that records.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A recorder that only runs the closures it is given.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            next_thread: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` whose cause is `parent`; `f`
    /// receives the new span's id to hand to the spans it causes.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Relaxed: the id is a unique ticket and publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let thread = THREAD_NO.with(|t| match t.get() {
            Some(n) => n,
            None => {
                let n = self.next_thread.fetch_add(1, Ordering::Relaxed);
                t.set(Some(n));
                n
            }
        });
        self.done
            .lock()
            .expect("a thread panicked while recording a span")
            .push(SpanRecord {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                thread,
            });
        out
    }

    /// Every finished span, ordered by start time.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut all = self
            .done
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    /// The spans as a JSON array of
    /// `{"id","parent","name","start_ns","end_ns","thread"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.thread
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_recorded_through_parent_ids() {
        let spans = Spans::enabled();
        spans.span(None, "workload", |root| {
            spans.span(root, "child", |_| ());
        });
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        let root = recs.iter().find(|s| s.name == "workload").unwrap();
        let child = recs.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::disabled();
        assert_eq!(spans.span(None, "x", |id| id), None);
        assert!(spans.records().is_empty());
    }
}
