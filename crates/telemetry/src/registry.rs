//! Lock-cheap metrics registry: counters, gauges, log2-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are per-instance atomic
//! cells addressed by a `&'static str` key. Updating one is a single relaxed
//! atomic op — no lock is touched on the hot path. The global registry keeps
//! only [`Weak`] references, pruned whenever a list fills, so dropping a
//! handle never leaks and handle churn does not grow it; totals from
//! dropped cells are folded into a retired ledger (guarded by a *separate*
//! mutex so a drop racing a snapshot cannot deadlock). [`snapshot`]
//! aggregates live cells plus retired totals per key, sorted by key, which is
//! what the sink layer flushes as `counter`/`gauge`/`hist` events.
//!
//! The registry is compiled unconditionally (even without the `enabled`
//! feature) because cache hit/miss accessors in `hsconas-evo` and
//! `hsconas-supernet` are functional API, not observability. Only the keyed
//! convenience helpers ([`counter_add`], [`gauge_set`], [`hist_record`]) are
//! feature-gated to no-ops, since they exist purely for instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// Number of fixed log2 histogram buckets; bucket `i` covers values in
/// `[2^(i-32), 2^(i-31))`, so the span is `2^-32 ..= 2^31`.
pub const HIST_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// cells

#[derive(Debug)]
struct CounterCell {
    key: &'static str,
    value: AtomicU64,
}

impl Drop for CounterCell {
    fn drop(&mut self) {
        let total = self.value.load(Ordering::Relaxed);
        if total > 0 {
            retire_counter(self.key, total);
        }
    }
}

#[derive(Debug)]
struct GaugeCell {
    key: &'static str,
    bits: AtomicU64,
    written: AtomicU64,
}

impl Drop for GaugeCell {
    fn drop(&mut self) {
        if self.written.load(Ordering::Relaxed) > 0 {
            retire_gauge(self.key, f64::from_bits(self.bits.load(Ordering::Relaxed)));
        }
    }
}

#[derive(Debug)]
struct HistCell {
    key: &'static str,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new(key: &'static str) -> HistCell {
        HistCell {
            key,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn data(&self) -> HistData {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistData {
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

impl Drop for HistCell {
    fn drop(&mut self) {
        let data = self.data();
        if data.count > 0 {
            retire_hist(self.key, data);
        }
    }
}

/// Raw merged histogram state (dense buckets).
#[derive(Debug, Clone)]
struct HistData {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl HistData {
    fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }
}

/// Maps a sample to its fixed log2 bucket index.
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || !value.is_finite() {
        return 0;
    }
    let exp = value.log2().floor() as i64;
    (exp + 32).clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

// ---------------------------------------------------------------------------
// global registry + retired ledgers (separate locks: cell drops may run while
// a snapshot holds the registry lock, so retirement must not re-enter it)

#[derive(Default)]
struct Registry {
    counters: Vec<(&'static str, Weak<CounterCell>)>,
    gauges: Vec<(&'static str, Weak<GaugeCell>)>,
    hists: Vec<(&'static str, Weak<HistCell>)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    hists: Vec::new(),
});

/// Registers `cell` in `list`. Dead entries are pruned only when the list
/// is full, and the list then keeps room for as many pushes again as it
/// has live entries: registering stays amortised O(1), and a process that
/// creates and drops handles per request keeps a list bounded by its live
/// handles instead of growing with traffic.
fn register_cell<T>(list: &mut Vec<(&'static str, Weak<T>)>, key: &'static str, cell: &Arc<T>) {
    if list.len() == list.capacity() {
        list.retain(|(_, w)| w.strong_count() > 0);
        list.reserve(list.len());
    }
    list.push((key, Arc::downgrade(cell)));
}

static RETIRED_COUNTERS: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());
static RETIRED_GAUGES: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());
static RETIRED_HISTS: Mutex<Vec<(&'static str, HistData)>> = Mutex::new(Vec::new());

fn retire_counter(key: &'static str, total: u64) {
    let mut retired = RETIRED_COUNTERS.lock();
    match retired.iter_mut().find(|(k, _)| *k == key) {
        Some((_, sum)) => *sum += total,
        None => retired.push((key, total)),
    }
}

fn retire_gauge(key: &'static str, value: f64) {
    let mut retired = RETIRED_GAUGES.lock();
    match retired.iter_mut().find(|(k, _)| *k == key) {
        Some((_, slot)) => *slot = value,
        None => retired.push((key, value)),
    }
}

fn retire_hist(key: &'static str, data: HistData) {
    let mut retired = RETIRED_HISTS.lock();
    match retired.iter_mut().find(|(k, _)| *k == key) {
        Some((_, merged)) => merged.merge(&data),
        None => retired.push((key, data)),
    }
}

// ---------------------------------------------------------------------------
// public handles

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying cell; dropping the last clone folds the
/// total into the process-wide retired ledger for its key.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Creates a fresh cell registered under `key`. Multiple cells may share
    /// a key (e.g. one per `MemoObjective` instance); [`snapshot`] sums them.
    pub fn register(key: &'static str) -> Counter {
        let cell = Arc::new(CounterCell {
            key,
            value: AtomicU64::new(0),
        });
        register_cell(&mut REGISTRY.lock().counters, key, &cell);
        Counter { cell }
    }

    /// Adds `n` (one relaxed atomic op).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Reads this cell's current total (not the key-wide aggregate).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }

    /// The registry key this cell reports under.
    pub fn key(&self) -> &'static str {
        self.cell.key
    }
}

/// A last-write-wins floating-point gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Creates a fresh cell registered under `key`.
    pub fn register(key: &'static str) -> Gauge {
        let cell = Arc::new(GaugeCell {
            key,
            bits: AtomicU64::new(0f64.to_bits()),
            written: AtomicU64::new(0),
        });
        register_cell(&mut REGISTRY.lock().gauges, key, &cell);
        Gauge { cell }
    }

    /// Stores `value` (two relaxed atomic ops).
    #[inline]
    pub fn set(&self, value: f64) {
        self.cell.bits.store(value.to_bits(), Ordering::Relaxed);
        self.cell.written.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the last stored value (0.0 if never set).
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.bits.load(Ordering::Relaxed))
    }
}

/// A histogram handle with [`HIST_BUCKETS`] fixed log2 buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// Creates a fresh cell registered under `key`.
    pub fn register(key: &'static str) -> Histogram {
        let cell = Arc::new(HistCell::new(key));
        register_cell(&mut REGISTRY.lock().hists, key, &cell);
        Histogram { cell }
    }

    /// Records one sample (a handful of relaxed atomic ops; the f64 sum and
    /// min/max use small CAS loops).
    pub fn record(&self, value: f64) {
        let cell = &self.cell;
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        let _ = cell
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
        let _ = cell
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (value < f64::from_bits(bits)).then(|| value.to_bits())
            });
        let _ = cell
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (value > f64::from_bits(bits)).then(|| value.to_bits())
            });
    }

    /// Snapshot of this cell alone.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot::from_data(&self.cell.data())
    }
}

// ---------------------------------------------------------------------------
// snapshots

/// Point-in-time histogram summary with sparse buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
    /// Non-empty buckets as `(log2 exponent, count)`; a sample `v` lands in
    /// the bucket whose exponent is `floor(log2(v))`.
    pub buckets: Vec<(i32, u64)>,
}

impl HistSnapshot {
    fn from_data(data: &HistData) -> HistSnapshot {
        let buckets = data
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as i32 - 32, c))
            .collect();
        HistSnapshot {
            count: data.count,
            sum: data.sum,
            min: data.min,
            max: data.max,
            buckets,
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) from the log2 buckets.
    ///
    /// The rank is located in the cumulative bucket counts and the value is
    /// interpolated linearly inside the bucket's `[2^e, 2^(e+1))` span, then
    /// clamped to the exact observed `[min, max]` — so the estimate is never
    /// outside the real sample range and is exact for single-bucket
    /// distributions at the edges. Resolution is a factor of 2 in the worst
    /// case, which is plenty for the p50/p99 service-latency summaries this
    /// backs. Returns 0.0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(exp, bucket_count) in &self.buckets {
            if seen + bucket_count >= rank {
                let lo = (exp as f64).exp2();
                let hi = ((exp + 1) as f64).exp2();
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / bucket_count as f64;
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            seen += bucket_count;
        }
        self.max
    }
}

/// A hit/miss pair read from two counters, with the ratio helper the old
/// bespoke cache-stat structs used to provide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitMissSnapshot {
    /// Number of cache hits.
    pub hits: u64,
    /// Number of cache misses.
    pub misses: u64,
}

impl HitMissSnapshot {
    /// Fraction of lookups that hit (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Aggregated process-wide metrics, sorted by key.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals (live cells summed per key + retired totals).
    pub counters: Vec<(String, u64)>,
    /// Gauge values (last write among live cells, falling back to retired).
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries (live cells merged per key + retired).
    pub hists: Vec<(String, HistSnapshot)>,
}

/// Aggregates every metric in the process: live cells (summed/merged per
/// key) plus totals retired by dropped cells, sorted by key.
pub fn snapshot() -> MetricsSnapshot {
    // Upgrade under the lock, read outside it: a cell whose last strong ref
    // is dropped while we read would otherwise retire into the ledger under
    // our feet and be double counted.
    let (counters, gauges, hists) = {
        let mut registry = REGISTRY.lock();
        registry.counters.retain(|(_, w)| w.strong_count() > 0);
        registry.gauges.retain(|(_, w)| w.strong_count() > 0);
        registry.hists.retain(|(_, w)| w.strong_count() > 0);
        (
            registry
                .counters
                .iter()
                .filter_map(|(k, w)| w.upgrade().map(|c| (*k, c)))
                .collect::<Vec<_>>(),
            registry
                .gauges
                .iter()
                .filter_map(|(k, w)| w.upgrade().map(|c| (*k, c)))
                .collect::<Vec<_>>(),
            registry
                .hists
                .iter()
                .filter_map(|(k, w)| w.upgrade().map(|c| (*k, c)))
                .collect::<Vec<_>>(),
        )
    };

    let mut counter_totals: Vec<(&'static str, u64)> = RETIRED_COUNTERS.lock().clone();
    for (key, cell) in &counters {
        let v = cell.value.load(Ordering::Relaxed);
        match counter_totals.iter_mut().find(|(k, _)| k == key) {
            Some((_, sum)) => *sum += v,
            None => counter_totals.push((key, v)),
        }
    }

    let mut gauge_values: Vec<(&'static str, f64)> = RETIRED_GAUGES.lock().clone();
    for (key, cell) in &gauges {
        if cell.written.load(Ordering::Relaxed) == 0 {
            continue;
        }
        let v = f64::from_bits(cell.bits.load(Ordering::Relaxed));
        match gauge_values.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = v,
            None => gauge_values.push((key, v)),
        }
    }

    let mut hist_data: Vec<(&'static str, HistData)> = RETIRED_HISTS.lock().clone();
    for (key, cell) in &hists {
        let data = cell.data();
        if data.count == 0 {
            continue;
        }
        match hist_data.iter_mut().find(|(k, _)| k == key) {
            Some((_, merged)) => merged.merge(&data),
            None => hist_data.push((key, data)),
        }
    }

    counter_totals.sort_by_key(|(k, _)| *k);
    gauge_values.sort_by_key(|(k, _)| *k);
    hist_data.sort_by_key(|(k, _)| *k);

    MetricsSnapshot {
        counters: counter_totals
            .into_iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        gauges: gauge_values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        hists: hist_data
            .into_iter()
            .map(|(k, d)| (k.to_string(), HistSnapshot::from_data(&d)))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// keyed instrumentation helpers (feature-gated: pure observability)

#[cfg(feature = "enabled")]
mod keyed {
    use super::*;

    #[derive(Default)]
    struct KeyedCells {
        counters: Vec<(&'static str, Counter)>,
        gauges: Vec<(&'static str, Gauge)>,
        hists: Vec<(&'static str, Histogram)>,
    }

    static KEYED: Mutex<KeyedCells> = Mutex::new(KeyedCells {
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
    });

    pub(super) fn counter_add(key: &'static str, n: u64) {
        let mut keyed = KEYED.lock();
        match keyed.counters.iter().find(|(k, _)| *k == key) {
            Some((_, c)) => c.add(n),
            None => {
                let c = Counter::register(key);
                c.add(n);
                keyed.counters.push((key, c));
            }
        }
    }

    pub(super) fn gauge_set(key: &'static str, value: f64) {
        let mut keyed = KEYED.lock();
        match keyed.gauges.iter().find(|(k, _)| *k == key) {
            Some((_, g)) => g.set(value),
            None => {
                let g = Gauge::register(key);
                g.set(value);
                keyed.gauges.push((key, g));
            }
        }
    }

    pub(super) fn hist_record(key: &'static str, value: f64) {
        let mut keyed = KEYED.lock();
        match keyed.hists.iter().find(|(k, _)| *k == key) {
            Some((_, h)) => h.record(value),
            None => {
                let h = Histogram::register(key);
                h.record(value);
                keyed.hists.push((key, h));
            }
        }
    }
}

/// Adds `n` to the process-wide counter registered under `key`.
/// No-op without the `enabled` feature.
#[cfg(feature = "enabled")]
pub fn counter_add(key: &'static str, n: u64) {
    keyed::counter_add(key, n);
}

/// Adds `n` to the process-wide counter registered under `key`.
/// No-op without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn counter_add(_key: &'static str, _n: u64) {}

/// Sets the process-wide gauge registered under `key`.
/// No-op without the `enabled` feature.
#[cfg(feature = "enabled")]
pub fn gauge_set(key: &'static str, value: f64) {
    keyed::gauge_set(key, value);
}

/// Sets the process-wide gauge registered under `key`.
/// No-op without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge_set(_key: &'static str, _value: f64) {}

/// Records a sample into the process-wide histogram registered under `key`.
/// No-op without the `enabled` feature.
#[cfg(feature = "enabled")]
pub fn hist_record(key: &'static str, value: f64) {
    keyed::hist_record(key, value);
}

/// Records a sample into the process-wide histogram registered under `key`.
/// No-op without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn hist_record(_key: &'static str, _value: f64) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_per_instance_but_aggregate_per_key() {
        let a = Counter::register("test.registry.agg");
        let b = Counter::register("test.registry.agg");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 4);
        let snap = snapshot();
        let total = snap
            .counters
            .iter()
            .find(|(k, _)| k == "test.registry.agg")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(total >= 7);
    }

    #[test]
    fn dropped_counters_retire_their_totals() {
        let a = Counter::register("test.registry.retired");
        a.add(11);
        drop(a);
        let snap = snapshot();
        let total = snap
            .counters
            .iter()
            .find(|(k, _)| k == "test.registry.retired")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(total >= 11);
    }

    #[test]
    fn registering_dropped_handles_keeps_the_registry_bounded() {
        const N: u64 = 100_000;
        for _ in 0..N {
            let c = Counter::register("test.registry.churn");
            c.incr();
        }
        // Every handle above is dead, so only the handles other tests hold
        // live can keep entries: the list must not grow with N.
        let len = REGISTRY.lock().counters.len();
        assert!(len < 4096, "registry holds {len} entries after {N} drops");
        let total = snapshot()
            .counters
            .iter()
            .find(|(k, _)| k == "test.registry.churn")
            .map(|(_, v)| *v);
        assert_eq!(total, Some(N), "pruning must not lose retired totals");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(1.0), 32);
        assert_eq!(bucket_index(1.5), 32);
        assert_eq!(bucket_index(2.0), 33);
        assert_eq!(bucket_index(0.5), 31);
        assert_eq!(bucket_index(0.26), 30);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        let h = Histogram::register("test.registry.hist");
        for v in [0.25, 0.5, 1.0, 4.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 5.75).abs() < 1e-12);
        assert_eq!(snap.min, 0.25);
        assert_eq!(snap.max, 4.0);
        assert_eq!(snap.buckets, vec![(-2, 1), (-1, 1), (0, 1), (2, 1)]);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::register("test.registry.gauge");
        g.set(1.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn hit_miss_snapshot_rate() {
        let s = HitMissSnapshot { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(HitMissSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn quantile_empty_and_single_sample() {
        let h = Histogram::register("test.registry.quantile.single");
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
        h.record(3.0);
        let snap = h.snapshot();
        // a single sample pins every quantile to the clamped exact value
        assert_eq!(snap.quantile(0.0), 3.0);
        assert_eq!(snap.quantile(0.5), 3.0);
        assert_eq!(snap.quantile(1.0), 3.0);
    }

    #[test]
    fn quantile_orders_and_bounds() {
        let h = Histogram::register("test.registry.quantile.spread");
        // 90 fast samples near 1ms, 10 slow near 100ms
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(100.0);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        assert!(p50 <= p99, "p50 {p50} <= p99 {p99}");
        assert!((1.0..2.0).contains(&p50), "p50 {p50} in the 1ms bucket");
        assert!(p99 >= 64.0, "p99 {p99} lands in the slow bucket");
        assert!(p99 <= snap.max, "clamped to observed max");
        assert!(snap.quantile(0.0) >= snap.min);
    }
}
