//! Thread-local activation arena: pooled `Vec<f32>` buffers behind every
//! [`Tensor`](crate::Tensor) allocation.
//!
//! A subnet forward/backward pass creates and drops dozens of activation,
//! gradient, and staging tensors per call. Before this module existed each
//! of those was a fresh heap allocation, so evaluating a population of
//! architectures spent a measurable fraction of its time in the allocator.
//! The arena intercepts both ends of a tensor's life:
//!
//! * allocation — [`take_buffer`] hands out a cleared buffer from the
//!   calling thread's pool (best-fit by capacity, at most [`MAX_FIT`]
//!   times the request) and only falls back to the heap on a pool miss;
//! * liveness end — `Tensor`'s `Drop` impl sends the buffer back through
//!   [`recycle`], so the next tensor of a similar size reuses it.
//!
//! After a warm-up pass the pool contains one buffer per distinct liveness
//! slot and a steady-state forward performs O(1) heap allocations instead
//! of O(layers); the allocation-regression test in `tests/alloc_budget.rs`
//! pins this down with a counting allocator.
//!
//! Pools are strictly per-thread (no locks): each long-lived worker of the
//! [`hsconas_par`] pool warms its own arena once and keeps it across
//! dispatches. A buffer joins the pool of the thread that drops its
//! tensor, so a tensor created on one thread and dropped on another moves
//! memory between pools; parallel sites therefore drop what they create
//! on the thread that created it. Reuse never changes numerics — every
//! constructor fully
//! overwrites the buffer contents it hands out — so arena on/off is
//! bit-identical by construction (property-tested in the supernet crate).
//!
//! The pool is bounded ([`MAX_BUFFERS`] buffers / [`MAX_POOLED_BYTES`]
//! bytes); beyond that, recycled buffers are simply freed, oldest-smallest
//! first, so pathological workloads degrade to plain heap allocation
//! rather than hoarding memory.

use std::cell::RefCell;

/// Maximum number of buffers a thread's pool retains.
pub const MAX_BUFFERS: usize = 1024;

/// Maximum total bytes a thread's pool retains (256 MiB).
pub const MAX_POOLED_BYTES: usize = 256 << 20;

/// Largest ratio of a pooled buffer's capacity to the requested length
/// that [`take_buffer`] still hands out; a larger buffer is a miss.
pub const MAX_FIT: usize = 2;

/// Counters describing one thread's arena activity since the last
/// [`reset_stats`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Buffer requests served from the pool.
    pub hits: u64,
    /// Buffer requests that fell through to the heap.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
    /// Buffers freed instead of pooled (caps exceeded or arena disabled).
    pub released: u64,
    /// Buffers currently held by the pool.
    pub pooled_buffers: usize,
    /// Bytes currently held by the pool.
    pub pooled_bytes: usize,
}

impl ArenaStats {
    /// Fraction of requests served from the pool (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Arena {
    enabled: bool,
    /// Free buffers, sorted ascending by capacity for best-fit lookup.
    buffers: Vec<Vec<f32>>,
    pooled_bytes: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
    released: u64,
}

impl Arena {
    const fn new() -> Self {
        Arena {
            enabled: true,
            buffers: Vec::new(),
            pooled_bytes: 0,
            hits: 0,
            misses: 0,
            recycled: 0,
            released: 0,
        }
    }

    fn take(&mut self, len: usize) -> Vec<f32> {
        if self.enabled {
            // Best fit: the smallest pooled buffer whose capacity covers
            // `len`. `buffers` is sorted by capacity, so that is the first
            // buffer past the partition point. A buffer more than
            // [`MAX_FIT`] times `len` is left for a request its size: a
            // small, long-lived tensor must not pin a large scratch buffer.
            let idx = self.buffers.partition_point(|b| b.capacity() < len);
            let fits = |b: &Vec<f32>| b.capacity() <= len.saturating_mul(MAX_FIT);
            if self.buffers.get(idx).is_some_and(fits) {
                let mut buf = self.buffers.remove(idx);
                self.pooled_bytes -= buf.capacity() * std::mem::size_of::<f32>();
                buf.clear();
                self.hits += 1;
                return buf;
            }
        }
        self.misses += 1;
        Vec::with_capacity(len)
    }

    fn put(&mut self, buf: Vec<f32>) {
        let bytes = buf.capacity() * std::mem::size_of::<f32>();
        if !self.enabled || bytes == 0 || bytes > MAX_POOLED_BYTES {
            if bytes > 0 {
                self.released += 1;
            }
            return;
        }
        // Evict smallest-first until the incoming buffer fits both caps.
        while !self.buffers.is_empty()
            && (self.buffers.len() >= MAX_BUFFERS || self.pooled_bytes + bytes > MAX_POOLED_BYTES)
        {
            let evicted = self.buffers.remove(0);
            self.pooled_bytes -= evicted.capacity() * std::mem::size_of::<f32>();
            self.released += 1;
        }
        let idx = self
            .buffers
            .partition_point(|b| b.capacity() < buf.capacity());
        self.buffers.insert(idx, buf);
        self.pooled_bytes += bytes;
        self.recycled += 1;
    }

    fn clear(&mut self) {
        self.pooled_bytes = 0;
        self.buffers.clear();
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// Takes an empty buffer with capacity ≥ `len` (and at most [`MAX_FIT`]
/// times `len`) from the calling thread's pool, falling back to a fresh
/// heap allocation on a miss. The buffer comes back with `len() == 0`;
/// callers fill it themselves.
///
/// Safe to call during thread teardown (falls back to the heap once the
/// thread-local pool is gone).
pub fn take_buffer(len: usize) -> Vec<f32> {
    ARENA
        .try_with(|a| a.borrow_mut().take(len))
        .unwrap_or_else(|_| Vec::with_capacity(len))
}

/// Returns a buffer to the calling thread's pool (or frees it when the
/// pool is full, disabled, or already torn down).
pub fn recycle(buf: Vec<f32>) {
    let _ = ARENA.try_with(|a| a.borrow_mut().put(buf));
}

/// Enables or disables pooling on the calling thread. Disabling also
/// drains the pool, so every subsequent allocation hits the heap — used by
/// the equivalence tests to compare pooled and plain allocation paths.
pub fn set_enabled(enabled: bool) {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.enabled = enabled;
        if !enabled {
            a.clear();
        }
    });
}

/// Whether pooling is enabled on the calling thread (default: yes).
pub fn is_enabled() -> bool {
    ARENA.with(|a| a.borrow().enabled)
}

/// Frees every pooled buffer on the calling thread without disabling the
/// arena.
pub fn clear() {
    ARENA.with(|a| a.borrow_mut().clear());
}

/// The calling thread's arena counters.
pub fn stats() -> ArenaStats {
    ARENA.with(|a| {
        let a = a.borrow();
        ArenaStats {
            hits: a.hits,
            misses: a.misses,
            recycled: a.recycled,
            released: a.released,
            pooled_buffers: a.buffers.len(),
            pooled_bytes: a.pooled_bytes,
        }
    })
}

/// Zeroes the calling thread's arena counters (the pool itself is kept).
pub fn reset_stats() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.hits = 0;
        a.misses = 0;
        a.recycled = 0;
        a.released = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes arena tests: they mutate the shared thread-local pool,
    /// and cargo's test harness may run them on the same thread pool.
    fn with_fresh_arena(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(f).join().unwrap();
        });
    }

    #[test]
    fn round_trip_reuses_capacity() {
        with_fresh_arena(|| {
            let mut b = take_buffer(100);
            b.resize(100, 1.0);
            let cap = b.capacity();
            recycle(b);
            let b2 = take_buffer(50);
            assert_eq!(b2.capacity(), cap, "best fit should return the same buffer");
            assert!(b2.is_empty(), "recycled buffer must come back cleared");
            let s = stats();
            assert_eq!((s.hits, s.recycled), (1, 1));
        });
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        with_fresh_arena(|| {
            let mut small = Vec::with_capacity(10);
            small.push(0.0);
            let mut large = Vec::with_capacity(1000);
            large.push(0.0);
            recycle(large);
            recycle(small);
            let got = take_buffer(5);
            assert!(got.capacity() >= 5 && got.capacity() < 1000);
        });
    }

    #[test]
    fn request_never_receives_more_than_twice_its_size() {
        with_fresh_arena(|| {
            for cap in [1, 7, 64, 100, 1000, 4096] {
                recycle(Vec::with_capacity(cap));
            }
            for len in [1, 2, 3, 4, 30, 33, 50, 64, 99, 500, 501, 2000, 2048, 3000] {
                let buf = take_buffer(len);
                assert!(buf.capacity() >= len, "{len}: {}", buf.capacity());
                assert!(
                    buf.capacity() <= MAX_FIT * len,
                    "{len} got a buffer of {}",
                    buf.capacity()
                );
                recycle(buf);
            }
            // Both a fitting hit and an oversized miss occurred.
            let s = stats();
            assert!(s.misses > 0 && s.hits > 0, "{s:?}");
        });
    }

    #[test]
    fn disabled_arena_pools_nothing() {
        with_fresh_arena(|| {
            set_enabled(false);
            assert!(!is_enabled());
            recycle(Vec::with_capacity(64));
            let s = stats();
            assert_eq!(s.pooled_buffers, 0);
            assert_eq!(s.recycled, 0);
            set_enabled(true);
        });
    }

    #[test]
    fn caps_bound_pool_size() {
        with_fresh_arena(|| {
            for _ in 0..(MAX_BUFFERS + 10) {
                recycle(Vec::with_capacity(8));
            }
            let s = stats();
            assert!(s.pooled_buffers <= MAX_BUFFERS);
            assert!(s.released >= 10);
        });
    }

    #[test]
    fn zero_capacity_buffers_are_dropped() {
        with_fresh_arena(|| {
            recycle(Vec::new());
            assert_eq!(stats().pooled_buffers, 0);
        });
    }

    #[test]
    fn stats_reset_keeps_pool() {
        with_fresh_arena(|| {
            recycle(Vec::with_capacity(16));
            reset_stats();
            let s = stats();
            assert_eq!((s.hits, s.misses, s.recycled, s.released), (0, 0, 0, 0));
            assert_eq!(s.pooled_buffers, 1);
            clear();
            assert_eq!(stats().pooled_buffers, 0);
        });
    }

    #[test]
    fn hit_rate_math() {
        let s = ArenaStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ArenaStats::default().hit_rate(), 0.0);
    }
}
