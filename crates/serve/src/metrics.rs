//! Serve-local metrics.
//!
//! One store per fact: every counter here is a [`hsconas_telemetry`]
//! registry [`Counter`] cell, registered under a key that mirrors its
//! `status` path (`status.served.score` is `serve.served.score`). `status`
//! reads this server's own cells with [`Counter::get`], so several daemons
//! in one process never mix their tallies, while `hsconas report` and the
//! JSONL event stream read the same cells summed per key. Every accepted
//! request increments exactly one `served` / `rejected` cell, so
//! `sum(counters) == client-side tally` holds with no sampling error.
//!
//! The latency histograms feed the p50/p99 figures in `status`. The
//! registry is compiled unconditionally, so counters and percentiles work
//! in no-default-features builds too.

use crate::json::Json;
use crate::proto::{
    CODE_BAD_REQUEST, CODE_FRAME_TOO_LARGE, CODE_OVERLOADED, CODE_SHUTTING_DOWN,
    CODE_UNKNOWN_DEVICE,
};
use hsconas_telemetry::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `[(field, prefix + field), ..]`: a `status` field name paired with its
/// registry key, so the two can never drift apart.
macro_rules! keyed {
    ($prefix:literal: $($name:literal),+ $(,)?) => {
        [$(($name, concat!($prefix, $name))),+]
    };
}

/// Commands counted in `status.served`, in wire order: `(field, key)`.
pub const SERVED: [(&str, &str); 7] = keyed!("serve.served.":
    "status", "predict_latency", "score", "search", "pareto", "shutdown", "infer");

/// Commands with a latency histogram (`status.latency_ms`); the control
/// commands `status` and `shutdown` are not timed.
pub const TIMED: [(&str, &str); 5] = keyed!("serve.latency_ms.":
    "predict_latency", "score", "search", "pareto", "infer");

/// Rejection kinds counted in `status.rejected`, in wire order. The first
/// five match `REJECTED_CODES` by index; the last, `internal`, takes
/// every other code.
pub const REJECTED: [(&str, &str); 6] = keyed!("serve.rejected.":
    "overloaded", "malformed", "oversized", "unknown_device", "shutting_down", "internal");

/// Protocol codes of the first five [`REJECTED`] kinds.
const REJECTED_CODES: [u16; 5] = [
    CODE_OVERLOADED,
    CODE_BAD_REQUEST,
    CODE_FRAME_TOO_LARGE,
    CODE_UNKNOWN_DEVICE,
    CODE_SHUTTING_DOWN,
];

/// A counter cell as a `status` number.
pub(crate) fn count(counter: &Counter) -> Json {
    Json::Num(counter.get() as f64)
}

/// `{field: cell}` for a `(field, key)` table and its handles.
fn counts(table: &[(&str, &str)], cells: &[Counter]) -> Json {
    Json::Obj(
        table
            .iter()
            .zip(cells)
            .map(|((field, _), cell)| ((*field).to_string(), count(cell)))
            .collect(),
    )
}

/// All serving metrics; one instance per [`crate::Server`].
pub struct ServeMetrics {
    started: Instant,
    /// Accepted TCP connections.
    pub connections: Counter,
    /// 200 answers per command, indexed like [`SERVED`].
    pub served: [Counter; 7],
    /// Error answers per kind, indexed like [`REJECTED`].
    pub rejected: [Counter; 6],
    /// `infer` requests answered from the compiled-artifact cache.
    pub infer_cache_hits: Counter,
    /// `predict_latency`/`score` requests answered O(1) from the
    /// precomputed bench table.
    pub table_hits: Counter,
    /// Requests that consulted a loaded bench table and missed (uncovered
    /// arch or stale generation stamp) — these fell through to live eval.
    pub table_misses: Counter,
    /// Evaluation micro-batches executed.
    pub batches: Counter,
    /// Jobs carried by those batches (`>= batches`; the ratio is the
    /// batching win).
    pub batched_jobs: Counter,
    /// Highest queue depth observed at admission: a high-water mark, not
    /// a counter.
    queue_peak: AtomicU64,
    /// Live queue depth.
    gauge_queue_depth: Gauge,
    /// Latency histograms, indexed like [`TIMED`].
    latency: [Histogram; 5],
}

impl ServeMetrics {
    /// Fresh metrics; clock starts now.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            connections: Counter::register("serve.connections"),
            served: SERVED.map(|(_, key)| Counter::register(key)),
            rejected: REJECTED.map(|(_, key)| Counter::register(key)),
            infer_cache_hits: Counter::register("serve.graphs.cache_hits"),
            table_hits: Counter::register("serve.bench_table.hits"),
            table_misses: Counter::register("serve.bench_table.misses"),
            batches: Counter::register("serve.batching.batches"),
            batched_jobs: Counter::register("serve.batching.batched_jobs"),
            queue_peak: AtomicU64::new(0),
            gauge_queue_depth: Gauge::register("serve.queue_depth"),
            latency: TIMED.map(|(_, key)| Histogram::register(key)),
        }
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Records a successfully served request of `cmd` taking `elapsed_ms`.
    pub fn record_served(&self, cmd: &str, elapsed_ms: f64) {
        let Some(i) = SERVED.iter().position(|(name, _)| *name == cmd) else {
            return;
        };
        self.served[i].incr();
        if let Some(j) = TIMED.iter().position(|(name, _)| *name == cmd) {
            self.latency[j].record(elapsed_ms);
        }
    }

    /// Records a rejection with protocol code `code`.
    pub fn record_rejected(&self, code: u16) {
        let i = REJECTED_CODES
            .iter()
            .position(|&c| c == code)
            .unwrap_or(REJECTED_CODES.len());
        self.rejected[i].incr();
    }

    /// Publishes the current queue depth (and tracks the peak).
    pub fn record_queue_depth(&self, depth: usize) {
        self.gauge_queue_depth.set(depth as f64);
        self.queue_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Highest queue depth seen so far.
    pub fn queue_peak(&self) -> u64 {
        self.queue_peak.load(Ordering::Relaxed)
    }

    /// `(count, p50, p99, max)` of the per-command latency histogram.
    pub fn latency_stats(&self, cmd: &str) -> (u64, f64, f64, f64) {
        let Some(j) = TIMED.iter().position(|(name, _)| *name == cmd) else {
            return (0, 0.0, 0.0, 0.0);
        };
        let snap = self.latency[j].snapshot();
        (
            snap.count,
            snap.quantile(0.5),
            snap.quantile(0.99),
            snap.max,
        )
    }

    /// The `status.served` object.
    pub fn served_json(&self) -> Json {
        counts(&SERVED, &self.served)
    }

    /// The `status.rejected` object.
    pub fn rejected_json(&self) -> Json {
        counts(&REJECTED, &self.rejected)
    }

    /// The `status.latency_ms` object: count and percentiles per timed
    /// command.
    pub fn latency_json(&self) -> Json {
        Json::Obj(
            TIMED
                .iter()
                .map(|(cmd, _)| {
                    let (count, p50, p99, max) = self.latency_stats(cmd);
                    let stats = Json::obj(vec![
                        ("count", Json::Num(count as f64)),
                        ("p50_ms", Json::Num(p50)),
                        ("p99_ms", Json::Num(p99)),
                        ("max_ms", Json::Num(max)),
                    ]);
                    ((*cmd).to_string(), stats)
                })
                .collect(),
        )
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;

    fn served(m: &ServeMetrics, cmd: &str) -> u64 {
        let i = SERVED.iter().position(|(name, _)| *name == cmd).unwrap();
        m.served[i].get()
    }

    #[test]
    fn served_and_rejected_tallies_are_exact() {
        let m = ServeMetrics::new();
        for _ in 0..3 {
            m.record_served("score", 1.0);
        }
        m.record_served("search", 250.0);
        m.record_served("pareto", 400.0);
        m.record_rejected(proto::CODE_OVERLOADED);
        m.record_rejected(proto::CODE_OVERLOADED);
        m.record_rejected(proto::CODE_BAD_REQUEST);
        m.record_rejected(proto::CODE_INTERNAL);
        assert_eq!(served(&m, "score"), 3);
        assert_eq!(served(&m, "search"), 1);
        assert_eq!(served(&m, "pareto"), 1);
        assert_eq!(m.latency_stats("pareto").0, 1);
        let rejected: Vec<u64> = m.rejected.iter().map(Counter::get).collect();
        assert_eq!(rejected, [2, 1, 0, 0, 0, 1]);
        let (count, p50, p99, max) = m.latency_stats("score");
        assert_eq!(count, 3);
        assert!(p50 > 0.0 && p50 <= p99 && p99 <= max);
    }

    #[test]
    fn every_timed_command_is_a_served_command() {
        for (cmd, _) in TIMED {
            assert!(SERVED.iter().any(|(name, _)| *name == cmd), "{cmd}");
        }
    }

    #[test]
    fn queue_depth_tracks_peak() {
        let m = ServeMetrics::new();
        m.record_queue_depth(3);
        m.record_queue_depth(7);
        m.record_queue_depth(1);
        assert_eq!(m.queue_peak(), 7);
    }
}
