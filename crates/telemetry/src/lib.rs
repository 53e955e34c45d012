//! Zero-overhead-when-off observability for the HSCoNAS pipeline.
//!
//! Four pieces, one contract:
//!
//! * [`registry`] — lock-cheap counters / gauges / log2-bucket histograms
//!   addressed by `&'static str` keys (one relaxed atomic op per update).
//! * [`span!`] — RAII span tracing with hierarchical wall-time rollups and
//!   per-thread scoping that composes with the `hsconas-par` worker pool via
//!   [`current_scope`] / [`enter_scope`].
//! * Sinks — a JSONL event log with a versioned schema ([`init_jsonl`],
//!   schema v1 in [`event`]) and an in-memory sink for tests
//!   ([`MemorySink`]).
//! * [`RunReport`] — renders a JSONL log into a per-phase summary table
//!   (the `hsconas report RUN.jsonl` command).
//!
//! **The contract: telemetry is observation-only.** It never draws from an
//! RNG, never reorders work, and never feeds a value back into the pipeline,
//! so enabling it cannot change result bytes — `tests/determinism_parallel.rs`
//! in the workspace root proves this for sink on/off × threads {1,8}.
//! Building without the `enabled` feature (on by default) compiles every
//! instrumentation entry point to an empty `#[inline(always)]` function, so
//! a disabled build carries zero telemetry work on the hot path; with the
//! feature on but no sink installed the cost is one relaxed atomic load per
//! span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod registry;
pub mod report;
mod sink;
mod span;

pub use event::{parse_line, schema_validate, Event, EventKind, FieldValue, SCHEMA_VERSION};
pub use registry::{
    counter_add, gauge_set, hist_record, snapshot, Counter, Gauge, HistSnapshot, Histogram,
    HitMissSnapshot, MetricsSnapshot,
};
pub use report::RunReport;
#[cfg(feature = "enabled")]
pub use sink::Sink;
pub use sink::{active, flush_metrics, init_jsonl, mark, FlushGuard, MemorySink};
pub use span::{current_scope, enter_scope, FieldVec, ScopeGuard, ScopeToken, Span};

/// Enters a named span, returning an RAII guard that emits a `span` event
/// with its wall-clock duration when dropped.
///
/// Fields are `ident = expr` pairs evaluated lazily — only when a sink is
/// installed; with no sink (or without the `enabled` feature) the whole
/// macro is an inert no-op.
///
/// ```
/// let generation = 3usize;
/// let mut span = hsconas_telemetry::span!("ea.generation", gen = generation);
/// // ... work ...
/// span.record("evals", 50u64); // values known only at scope exit
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::Span::enter($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::Span::enter($name, || ::std::vec![
            $( (stringify!($k), $crate::FieldValue::from($v)) ),+
        ])
    };
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn span_without_sink_is_inert_and_with_sink_emits() {
        {
            let _span = span!("test.lib.idle", n = 1u64);
        }
        let sink = MemorySink::install();
        {
            let mut span = span!("test.lib.outer", n = 2u64);
            span.record("late", 1.5f64);
            let _inner = span!("test.lib.inner");
        }
        sink.uninstall();
        let events = sink.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(!names.contains(&"test.lib.idle"));
        // inner completes (and is emitted) before outer
        let inner = events.iter().find(|e| e.name == "test.lib.inner").unwrap();
        let outer = events.iter().find(|e| e.name == "test.lib.outer").unwrap();
        assert_eq!(inner.path, "test.lib.outer/test.lib.inner");
        assert_eq!(outer.path, "test.lib.outer");
        assert!(outer.fields.iter().any(|(k, _)| k == "late"));
    }

    #[test]
    fn workers_adopt_caller_scope() {
        let sink = MemorySink::install();
        let token = {
            let _outer = span!("test.lib.dispatch");
            current_scope()
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = enter_scope(&token);
                let _span = span!("test.lib.worker");
            });
        });
        sink.uninstall();
        let worker = sink
            .events()
            .into_iter()
            .find(|e| e.name == "test.lib.worker")
            .unwrap();
        assert_eq!(worker.path, "test.lib.dispatch/test.lib.worker");
    }

    #[test]
    fn flush_metrics_round_trips_through_schema() {
        let counter = Counter::register("test.lib.flush.hits");
        counter.add(5);
        gauge_set("test.lib.flush.gauge", 2.25);
        hist_record("test.lib.flush.hist", 0.5);
        let sink = MemorySink::install();
        flush_metrics();
        sink.uninstall();
        let events = sink.events();
        assert!(!events.is_empty());
        for event in &events {
            let line = event.to_jsonl();
            let parsed = parse_line(&line).expect("every emitted event validates");
            assert_eq!(&parsed, event);
        }
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "test.lib.flush.hits"));
    }
}
