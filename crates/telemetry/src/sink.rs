//! Pluggable event sinks: JSONL file log and in-memory capture.
//!
//! Sinks receive every [`Event`](crate::event::Event) the instrumentation
//! emits. The global sink
//! list is guarded by a mutex, but the hot path only pays for it when a sink
//! is actually installed: [`active`] is a single relaxed atomic load, and
//! every span/emit entry point bails out first when it is false. Installing
//! a sink mid-run is allowed; events are never buffered before that.
//!
//! Without the `enabled` feature this module collapses to inert stand-ins —
//! [`init_jsonl`] returns `Err` so callers can surface "built without
//! telemetry" instead of silently dropping a requested log.

#[cfg(feature = "enabled")]
mod imp {
    use std::fs::File;
    use std::io::{BufWriter, Write};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::Instant;

    use parking_lot::Mutex;

    use crate::event::{Event, EventKind, FieldValue};
    use crate::registry;

    /// Receives emitted events. Implementations must be cheap and must never
    /// panic: they run inside instrumented library code.
    pub trait Sink: Send + Sync {
        /// Handles one event.
        fn emit(&self, event: &Event);
        /// Flushes buffered output (called on uninstall).
        fn flush(&self) {}
    }

    struct Registered {
        id: u64,
        sink: Arc<dyn Sink>,
    }

    static SINKS: Mutex<Vec<Registered>> = Mutex::new(Vec::new());
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
    static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(0);

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// Microseconds since the process telemetry epoch.
    pub fn now_us() -> u64 {
        epoch().elapsed().as_micros() as u64
    }

    thread_local! {
        static THREAD_INDEX: u64 = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
    }

    /// Small dense index of the calling thread (0 = first observed).
    pub fn thread_index() -> u64 {
        THREAD_INDEX.with(|i| *i)
    }

    /// Whether any sink is installed (one relaxed atomic load).
    #[inline]
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Delivers `event` to every installed sink.
    pub fn emit(event: Event) {
        if !active() {
            return;
        }
        let sinks: Vec<Arc<dyn Sink>> = SINKS.lock().iter().map(|r| r.sink.clone()).collect();
        for sink in sinks {
            sink.emit(&event);
        }
    }

    fn install(sink: Arc<dyn Sink>) -> u64 {
        let id = NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed);
        let mut sinks = SINKS.lock();
        sinks.push(Registered { id, sink });
        ACTIVE.store(true, Ordering::Relaxed);
        id
    }

    fn uninstall(id: u64) {
        let mut sinks = SINKS.lock();
        sinks.retain(|r| r.id != id);
        ACTIVE.store(!sinks.is_empty(), Ordering::Relaxed);
    }

    /// Emits the current [`registry`] aggregate as `counter`/`gauge`/`hist`
    /// events (sorted by key, so logs are stable given stable metrics).
    pub fn flush_metrics() {
        if !active() {
            return;
        }
        let snap = registry::snapshot();
        let ts_us = now_us();
        let thread = thread_index();
        for (key, total) in snap.counters {
            emit(Event {
                kind: EventKind::Counter,
                ts_us,
                thread,
                name: key,
                path: String::new(),
                dur_us: None,
                value: Some(FieldValue::U64(total)),
                fields: Vec::new(),
            });
        }
        for (key, value) in snap.gauges {
            emit(Event {
                kind: EventKind::Gauge,
                ts_us,
                thread,
                name: key,
                path: String::new(),
                dur_us: None,
                value: Some(FieldValue::F64(value)),
                fields: Vec::new(),
            });
        }
        for (key, hist) in snap.hists {
            let buckets = hist
                .buckets
                .iter()
                .map(|(exp, count)| format!("{exp}:{count}"))
                .collect::<Vec<_>>()
                .join(";");
            emit(Event {
                kind: EventKind::Hist,
                ts_us,
                thread,
                name: key,
                path: String::new(),
                dur_us: None,
                value: None,
                fields: vec![
                    ("count".to_string(), FieldValue::U64(hist.count)),
                    ("sum".to_string(), FieldValue::F64(hist.sum)),
                    ("min".to_string(), FieldValue::F64(hist.min)),
                    ("max".to_string(), FieldValue::F64(hist.max)),
                    ("mean".to_string(), FieldValue::F64(hist.mean())),
                    ("buckets".to_string(), FieldValue::Str(buckets)),
                ],
            });
        }
    }

    /// Emits a point-in-time `mark` event.
    pub fn mark(name: &str, fields: Vec<(String, FieldValue)>) {
        if !active() {
            return;
        }
        emit(Event {
            kind: EventKind::Mark,
            ts_us: now_us(),
            thread: thread_index(),
            name: name.to_string(),
            path: String::new(),
            dur_us: None,
            value: None,
            fields,
        });
    }

    struct JsonlSink {
        out: Mutex<BufWriter<File>>,
    }

    impl Sink for JsonlSink {
        fn emit(&self, event: &Event) {
            let line = event.to_jsonl();
            let mut out = self.out.lock();
            let _ = writeln!(out, "{line}");
        }

        fn flush(&self) {
            let _ = self.out.lock().flush();
        }
    }

    /// Uninstalls its sink on drop, after flushing a final metrics snapshot.
    ///
    /// Hold it for the lifetime of the instrumented run:
    /// `let _telemetry = hsconas_telemetry::init_jsonl(path)?;`
    #[derive(Debug)]
    pub struct FlushGuard {
        id: u64,
    }

    impl Drop for FlushGuard {
        fn drop(&mut self) {
            flush_metrics();
            let sink = SINKS
                .lock()
                .iter()
                .find(|r| r.id == self.id)
                .map(|r| r.sink.clone());
            if let Some(sink) = sink {
                sink.flush();
            }
            uninstall(self.id);
        }
    }

    /// Opens `path` for writing and installs a JSONL sink on it. The
    /// returned guard flushes a final metrics snapshot and closes the log
    /// when dropped.
    pub fn init_jsonl(path: impl AsRef<Path>) -> Result<FlushGuard, String> {
        let path = path.as_ref();
        let file = File::create(path)
            .map_err(|e| format!("cannot create telemetry log {}: {e}", path.display()))?;
        let id = install(Arc::new(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
        }));
        mark("run.start", Vec::new());
        Ok(FlushGuard { id })
    }

    /// An in-memory sink for tests and benches; clones share the buffer.
    #[derive(Clone, Default)]
    pub struct MemorySink {
        events: Arc<Mutex<Vec<Event>>>,
        id: u64,
    }

    impl Sink for MemorySink {
        fn emit(&self, event: &Event) {
            self.events.lock().push(event.clone());
        }
    }

    impl MemorySink {
        /// Creates and installs a memory sink; pair with [`MemorySink::uninstall`].
        pub fn install() -> MemorySink {
            let mut sink = MemorySink::default();
            let handle = sink.clone();
            sink.id = install(Arc::new(handle));
            sink
        }

        /// Removes this sink from the global list (captured events remain
        /// readable afterwards).
        pub fn uninstall(&self) {
            uninstall(self.id);
        }

        /// Copies out everything captured so far.
        pub fn events(&self) -> Vec<Event> {
            self.events.lock().clone()
        }

        /// Drains the capture buffer.
        pub fn take(&self) -> Vec<Event> {
            std::mem::take(&mut *self.events.lock())
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use std::path::Path;

    use crate::event::{Event, FieldValue};

    /// Inert guard stand-in compiled without the `enabled` feature.
    #[derive(Debug)]
    pub struct FlushGuard;

    /// Always fails: the crate was built without the `enabled` feature.
    pub fn init_jsonl(_path: impl AsRef<Path>) -> Result<FlushGuard, String> {
        Err("hsconas-telemetry was built without the `enabled` feature".to_string())
    }

    /// No-op.
    #[inline(always)]
    pub fn flush_metrics() {}

    /// No-op.
    #[inline(always)]
    pub fn mark(_name: &str, _fields: Vec<(String, FieldValue)>) {}

    /// Always false.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Inert memory sink stand-in; captures nothing.
    #[derive(Debug, Clone, Default)]
    pub struct MemorySink;

    impl MemorySink {
        /// No-op; returns an inert sink.
        #[inline(always)]
        pub fn install() -> MemorySink {
            MemorySink
        }

        /// No-op.
        #[inline(always)]
        pub fn uninstall(&self) {}

        /// Always empty.
        pub fn events(&self) -> Vec<Event> {
            Vec::new()
        }

        /// Always empty.
        pub fn take(&self) -> Vec<Event> {
            Vec::new()
        }
    }
}

#[cfg(feature = "enabled")]
pub use imp::Sink;
pub use imp::{active, flush_metrics, init_jsonl, mark, FlushGuard, MemorySink};
#[cfg(feature = "enabled")]
pub(crate) use imp::{emit, now_us, thread_index};
