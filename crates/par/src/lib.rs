//! The shared worker pool for the NAS hot paths.
//!
//! Every parallel site in the workspace (EA population evaluation,
//! subspace-quality sampling, latency-LUT calibration sweeps, convolution
//! batch loops, GEMM row bands, compiled-graph batch shards) follows the
//! same discipline:
//!
//! 1. work items are **generated serially** (so seeded RNG streams are
//!    untouched by the thread count),
//! 2. items are claimed by the participants of one dispatch through a
//!    shared counter,
//! 3. results are **merged in item-index order**.
//!
//! Per-item work must be a pure function of the item itself; under that
//! contract every output is bit-identical to the serial loop regardless of
//! `--threads`.
//!
//! The participants are the calling thread plus helpers from one
//! process-wide pool of long-lived workers (`pool`). The pool grows
//! lazily to the largest thread count ever requested and never shrinks,
//! so a dispatch costs a queue push and a wake-up, not a thread spawn,
//! and each worker's thread-local state (its activation arena) stays warm
//! from one dispatch to the next. The caller always works on its own
//! dispatch, so a dispatch completes even when every worker is busy with
//! another caller's. A dispatch made from inside a dispatch, on a worker
//! or on the caller during its own share, runs inline ([`in_worker`]). A
//! panic in any participant is caught, and re-raised on the caller once
//! every helper has finished; the worker that caught it lives on.
//!
//! The process-wide default thread count is configurable (the experiment
//! binaries' `--threads N` flag lands in [`set_default_threads`]); `0` or
//! an unset default resolves to [`available_threads`].
//!
//! Helpers adopt the dispatching thread's `hsconas-telemetry` span scope,
//! so spans entered inside pool work roll up under the caller's span path
//! in run reports. This is observation-only: it touches no RNG, no work
//! ordering, and no results.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;
pub mod queue;

pub use queue::{BoundedQueue, PushError};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count; 0 means "auto" (use
/// [`available_threads`]).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// True on a pool worker, and on a dispatching thread while it runs its
/// own share of a dispatch. Nested parallel sites (the GEMM row bands
/// inside a batch-parallel convolution, the convolutions inside a graph
/// batch shard) consult this to stay serial; the `par_*` functions
/// themselves run inline when it is set.
///
/// Inline execution (`threads == 1`, or a single work item) runs on the
/// dispatching thread and does *not* set the flag: a serial outer loop
/// leaves inner sites free to go wide.
pub fn in_worker() -> bool {
    pool::in_worker()
}

/// Number of hardware threads reported by the OS (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the process-wide default worker count used when a call site passes
/// `threads == 0`. Passing `0` restores "auto" (hardware parallelism).
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The resolved default worker count: the value installed by
/// [`set_default_threads`], or the hardware parallelism when unset.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => available_threads(),
        n => n,
    }
}

/// Resolves a per-call `threads` request (`0` = default) against the
/// amount of work available; `1` (inline) inside a dispatch.
fn resolve_threads(threads: usize, work_items: usize) -> usize {
    if in_worker() {
        return 1;
    }
    let requested = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    requested.max(1).min(work_items.max(1))
}

/// Applies `run` to every item `next` hands out, on the calling thread
/// and `threads - 1` pool workers.
fn fan_out<I>(
    threads: usize,
    next: impl Fn() -> Option<(usize, I)> + Sync,
    run: impl Fn(usize, I) + Sync,
) {
    pool::fork(threads - 1, &|| {
        while let Some((i, item)) = next() {
            run(i, item);
        }
    });
}

/// Result slots written by item index from any participant, read back in
/// index order.
struct Ordered<R>(Mutex<Vec<Option<R>>>);

impl<R> Ordered<R> {
    fn new(n: usize) -> Self {
        Ordered(Mutex::new((0..n).map(|_| None).collect()))
    }

    fn put(&self, i: usize, r: R) {
        self.0.lock()[i] = Some(r);
    }

    fn into_vec(self) -> Vec<R> {
        self.0
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every index visited"))
            .collect()
    }
}

/// Maps `f` over `items` on the worker pool and returns the results in
/// item order.
///
/// `f` receives `(index, &item)`. With `threads == 0` the process default
/// applies; `threads == 1` (or a single item, or a call from inside a
/// dispatch) runs inline. Results are merged in index order, so for a
/// deterministic `f` the output is identical across thread counts.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads, items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let results = Ordered::new(items.len());
    fan_out(
        threads,
        || {
            let i = next.fetch_add(1, Ordering::Relaxed);
            items.get(i).map(|t| (i, t))
        },
        |i, t| results.put(i, f(i, t)),
    );
    results.into_vec()
}

/// Index-space variant of [`par_map`]: runs `f(0..n)` on the pool and
/// returns results in index order.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_map_indices<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, threads, |_, &i| f(i))
}

/// Consumes `items` (typically disjoint `&mut` sub-slices of one buffer)
/// and maps each through `f` on the pool, returning results in item
/// order. Use this when workers must write into pre-partitioned output
/// memory — e.g. one batch image each — and may also produce a value
/// (e.g. a per-sample gradient partial) to merge deterministically.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_map_owned<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = resolve_threads(threads, items.len());
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let results = Ordered::new(items.len());
    par_for_each(items, threads, |i, t| results.put(i, f(i, t)));
    results.into_vec()
}

/// [`par_map_owned`] without results — applies `f` to each owned item.
/// Beyond the caller's `items`, a dispatch allocates nothing once the
/// pool has grown to `threads`, unless a telemetry sink is installed (the
/// helpers then copy the caller's span path).
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_for_each<T, F>(items: Vec<T>, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let threads = resolve_threads(threads, items.len());
    if threads <= 1 {
        for (i, t) in items.into_iter().enumerate() {
            f(i, t);
        }
        return;
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    fan_out(threads, || queue.lock().next(), f);
}

/// Runs `foreground` on the calling thread while one pool worker runs
/// `background`, and returns `foreground`'s result once both are done.
///
/// `foreground` runs outside the worker flag, so the dispatches inside it
/// (convolution batches, GEMM row bands) still fan out. If no worker has
/// started `background` by the time `foreground` returns, the caller runs
/// it then; it runs exactly once either way. At one thread, or inside a
/// dispatch, both run inline, `foreground` first.
///
/// `background` must write only into memory the caller owns and passes in
/// (a buffer it fills, never a tensor it creates): what a worker
/// allocates from its own arena joins the pool of whichever thread drops
/// it.
///
/// # Panics
///
/// Re-raises a panic from either closure once both have finished.
pub fn overlap<R>(background: impl FnOnce() + Send, foreground: impl FnOnce() -> R) -> R {
    overlap_at(0, background, foreground)
}

/// [`overlap`] at an explicit thread count (`0` = default).
fn overlap_at<R>(
    threads: usize,
    background: impl FnOnce() + Send,
    foreground: impl FnOnce() -> R,
) -> R {
    let helpers = resolve_threads(threads, 2) - 1;
    let background = Mutex::new(Some(background));
    let mut foreground = Some(foreground);
    let mut result = None;
    pool::fork_with(
        helpers,
        &|| {
            let task = background.lock().take();
            if let Some(task) = task {
                task();
            }
        },
        &mut || result = foreground.take().map(|f| f()),
    );
    result.expect("foreground ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let serial = par_map(&items, 1, |i, &x| i * 1000 + x * x);
        let parallel = par_map(&items, 8, |i, &x| i * 1000 + x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 3 * 1000 + 9);
    }

    #[test]
    fn par_map_indices_matches_direct() {
        assert_eq!(par_map_indices(5, 4, |i| i * 2), vec![0, 2, 4, 6, 8]);
        assert!(par_map_indices(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_for_each_writes_disjoint_chunks() {
        let mut buf = vec![0u64; 64];
        let chunks: Vec<&mut [u64]> = buf.chunks_mut(8).collect();
        par_for_each(chunks, 8, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 8 + j) as u64;
            }
        });
        let want: Vec<u64> = (0..64).collect();
        assert_eq!(buf, want);
    }

    #[test]
    fn zero_threads_resolves_to_default() {
        set_default_threads(2);
        assert_eq!(default_threads(), 2);
        let out = par_map_indices(10, 0, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map(&[] as &[usize], 4, |_, &x| x);
        assert!(out.is_empty());
        par_for_each(Vec::<usize>::new(), 4, |_, _| {});
    }

    #[test]
    fn in_worker_flag_marks_pool_threads_only() {
        assert!(!in_worker(), "dispatching thread is not a worker");
        let flags = par_map_indices(4, 4, |_| in_worker());
        assert!(flags.iter().all(|&f| f), "pool threads must be flagged");
        // Inline execution (threads == 1) stays unflagged.
        let inline = par_map_indices(4, 1, |_| in_worker());
        assert!(inline.iter().all(|&f| !f));
        assert!(!in_worker(), "flag must not leak back to the dispatcher");
    }

    #[test]
    fn overlap_runs_foreground_on_the_caller_and_background_once() {
        let caller = std::thread::current().id();
        let runs = AtomicUsize::new(0);
        for _ in 0..50 {
            let (fg_thread, fg_flag) = overlap(
                || {
                    runs.fetch_add(1, Ordering::Relaxed);
                },
                || (std::thread::current().id(), in_worker()),
            );
            assert_eq!(fg_thread, caller, "foreground left the caller");
            assert!(!fg_flag, "foreground must run outside the worker flag");
        }
        assert_eq!(runs.load(Ordering::Relaxed), 50);
        assert!(!in_worker(), "flag must not leak back to the caller");
    }

    #[test]
    fn overlap_background_writes_a_caller_buffer() {
        let mut buf = vec![0u32; 16];
        let sum = overlap(
            || buf.iter_mut().enumerate().for_each(|(i, v)| *v = i as u32),
            || (0..10u32).sum::<u32>(),
        );
        assert_eq!(sum, 45);
        assert_eq!(buf, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn overlap_foreground_dispatches_still_fan_out() {
        let (fg_flag, out) = overlap(
            || std::thread::sleep(std::time::Duration::from_millis(5)),
            || {
                (
                    in_worker(),
                    par_map_indices(64, 4, |i| (i * i, in_worker())),
                )
            },
        );
        let want: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(out.iter().map(|r| r.0).collect::<Vec<_>>(), want);
        // The foreground is unflagged, so only a real dispatch flags the
        // items; inline they would read false.
        assert!(!fg_flag);
        assert!(out.iter().all(|r| r.1), "nested par_map ran inline");
    }

    #[test]
    fn overlap_reraises_a_panic_after_both_sides_finish() {
        let done = AtomicUsize::new(0);
        let fg_panics = std::panic::catch_unwind(AssertUnwindSafe(|| {
            overlap(
                || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    done.fetch_add(1, Ordering::SeqCst);
                },
                || panic!("foreground"),
            )
        }));
        assert!(fg_panics.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 1, "background cut short");

        let bg_panics = std::panic::catch_unwind(AssertUnwindSafe(|| {
            overlap(
                || panic!("background"),
                || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    done.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        assert!(bg_panics.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 2, "foreground cut short");
    }

    #[test]
    fn overlap_runs_inline_at_one_thread_and_in_a_worker() {
        let caller = std::thread::current().id();
        let inline = |threads: usize, order: &Mutex<Vec<&str>>| {
            overlap_at(
                threads,
                || order.lock().push("background"),
                || {
                    order.lock().push("foreground");
                    std::thread::current().id()
                },
            )
        };
        // Inside a dispatch: both sides on the participant, in order.
        let nested = par_map_indices(2, 2, |_| {
            let order = Mutex::new(Vec::new());
            let here = std::thread::current().id();
            (inline(2, &order) == here, order.into_inner())
        });
        for (same_thread, order) in nested {
            assert!(same_thread);
            assert_eq!(order, ["foreground", "background"]);
        }
        // At one thread both stay on the caller, in the same order.
        let order = Mutex::new(Vec::new());
        assert_eq!(inline(1, &order), caller);
        assert_eq!(order.into_inner(), ["foreground", "background"]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map_indices(4, 2, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
