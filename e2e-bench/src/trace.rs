//! In-memory span recording for the traced run.
//!
//! The benchmark opens a `query` span around every `Session::execute` call and a
//! `setup:*` span around each set-up step; the program's [`TraceHook`] adds a
//! `round:<kind>` child span for every S1→S2 round of the query in flight.  Sessions
//! run on threads of their own, so each thread keeps its own stack of open spans and a
//! span's parent is the innermost open span of the thread that opened it.  Spans stay
//! in memory until [`SpanRecorder::write_jsonl`] writes them out at the end of the run.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use sectopk_metrics::TraceHook;

/// One finished span; times are microseconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug, Default)]
struct State {
    finished: Vec<Span>,
    /// Open spans of each thread, innermost last: (id, name, start).
    open: HashMap<ThreadId, Vec<(u64, String, f64)>>,
    next_id: u64,
}

/// Records spans from the benchmark and from the program's trace hook.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    state: Mutex<State>,
}

impl SpanRecorder {
    /// Span ids below this are reserved for query spans, whose id is the query's id.
    const FIRST_INNER_ID: u64 = 1 << 32;

    pub fn new() -> Self {
        let state = State { next_id: Self::FIRST_INNER_ID, ..State::default() };
        SpanRecorder { origin: Instant::now(), state: Mutex::new(state) }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a thread panicked while recording a span")
    }

    /// Open a span with the given id, as a child of this thread's innermost open span.
    fn open(&self, id: Option<u64>, name: String) {
        let start = self.now_us();
        let mut state = self.lock();
        let id = id.unwrap_or_else(|| {
            state.next_id += 1;
            state.next_id
        });
        state.open.entry(std::thread::current().id()).or_default().push((id, name, start));
    }

    /// Close this thread's innermost open span.
    fn close(&self) {
        let end = self.now_us();
        let mut state = self.lock();
        let stack = state.open.entry(std::thread::current().id()).or_default();
        if let Some((id, name, start)) = stack.pop() {
            let parent = stack.last().map(|(p, _, _)| *p);
            state.finished.push(Span { id, parent, name, start_us: start, end_us: end });
        }
    }

    /// Run `f` inside a span named `name`; a query span takes the query's id.
    pub fn span<T>(&self, name: &str, query_id: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.open(query_id, name.to_string());
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().finished.clone()
    }

    /// Count and total seconds of the `round:<kind>` spans under each query span,
    /// keyed by kind.
    pub fn rounds_by_kind(&self) -> BTreeMap<String, (u64, f64)> {
        let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        for span in self.spans() {
            if let Some(kind) = span.name.strip_prefix("round:") {
                let entry = out.entry(kind.to_string()).or_default();
                entry.0 += 1;
                entry.1 += (span.end_us - span.start_us) / 1e6;
            }
        }
        out
    }

    /// One JSON object per line, in the order the spans finished.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, parent, s.name, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The program calls the hook around every protocol round of the session it is
/// installed on; each round becomes a child of the query span open at the time.
impl TraceHook for SpanRecorder {
    fn enter(&self, span: &str) {
        self.open(None, format!("round:{span}"));
    }

    fn exit(&self, _span: &str) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_nest_under_the_query_span() {
        let recorder = SpanRecorder::new();
        recorder.span("query", Some(7), || {
            recorder.enter("compare");
            recorder.exit("compare");
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "round:compare");
        assert_eq!(spans[0].parent, Some(7));
        assert_eq!((spans[1].id, spans[1].parent), (7, None));
        assert_eq!(recorder.rounds_by_kind()["compare"].0, 1);
    }

    #[test]
    fn concurrent_sessions_keep_their_own_parents() {
        use std::sync::Barrier;
        let recorder = SpanRecorder::new();
        let barrier = Barrier::new(2);
        // Both query spans are open while both threads record rounds, and query 1
        // closes first, which a single shared stack would get wrong.
        std::thread::scope(|scope| {
            for id in [1, 2] {
                let (recorder, barrier) = (&recorder, &barrier);
                scope.spawn(move || {
                    recorder.span("query", Some(id), || {
                        barrier.wait();
                        recorder.enter("batch");
                        recorder.exit("batch");
                        barrier.wait();
                        if id == 2 {
                            barrier.wait();
                        }
                    });
                    if id == 1 {
                        barrier.wait();
                    }
                });
            }
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 4);
        for id in [1, 2] {
            let query = spans.iter().find(|s| s.id == id).expect("query span recorded");
            assert_eq!(query.parent, None);
            let round = spans
                .iter()
                .find(|s| s.name == "round:batch" && s.parent == Some(id))
                .expect("round recorded under its own query");
            assert!(query.start_us <= round.start_us && round.end_us <= query.end_us);
        }
    }
}
