//! Robustness of the long-lived worker pool: panics, nesting, concurrent
//! dispatchers and the serial default. Every test runs under a watchdog,
//! so a deadlock fails the test instead of hanging the suite.

use hsconas_par::{in_worker, par_map, par_map_indices, set_default_threads};
use std::collections::HashSet;
use std::sync::{mpsc, Barrier};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// Runs `body` on its own thread and fails if it does not finish within
/// a minute. A panic in `body` fails the test with its message.
fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => handle.join().expect("body finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool test hung for 60 s"),
    }
}

#[test]
fn pool_serves_correct_results_after_a_worker_panic() {
    watchdog(|| {
        for threads in [2, 8] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indices(16, threads, |i| {
                    assert!(i % 5 != 3, "injected failure at item {i}");
                    i
                })
            });
            assert!(caught.is_err(), "the worker panic must reach the caller");
        }
        for round in 0..100usize {
            let got = par_map_indices(33, 2 + round % 7, |i| i * i + round);
            let want: Vec<usize> = (0..33).map(|i| i * i + round).collect();
            assert_eq!(got, want, "dispatch {round} after the panic");
        }
    });
}

#[test]
fn nested_dispatch_runs_inline() {
    watchdog(|| {
        let caller = thread::current().id();
        for threads in [1, 2, 8] {
            // Each item waits until every participant holds one, so the
            // caller and each helper run exactly one item.
            let all_claimed = Barrier::new(threads);
            let outer: Vec<(ThreadId, bool, Vec<ThreadId>)> =
                par_map_indices(threads, threads, |_| {
                    all_claimed.wait();
                    let inner = par_map_indices(6, 8, |_| thread::current().id());
                    (thread::current().id(), in_worker(), inner)
                });
            let participants: HashSet<ThreadId> = outer.iter().map(|(t, ..)| *t).collect();
            assert_eq!(participants.len(), threads);
            assert!(participants.contains(&caller), "the caller took no share");
            for (outer_thread, flagged, inner) in &outer {
                if threads == 1 {
                    // A serial outer loop is no dispatch: it runs
                    // unflagged, and leaves the inner site free.
                    assert!(!flagged);
                    continue;
                }
                assert!(*flagged, "worker flag at pool size {threads}");
                assert!(
                    inner.iter().all(|t| t == outer_thread),
                    "a nested dispatch left its thread at pool size {threads}"
                );
            }
            assert!(!in_worker(), "the flag must not outlive the dispatch");
        }
    });
}

#[test]
fn concurrent_dispatchers_get_in_order_results() {
    watchdog(|| {
        thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    for round in 0..200usize {
                        let items: Vec<usize> = (0..(5 + (t + round) % 11)).collect();
                        let got = par_map(&items, 2 + t % 3, |i, &x| (i, x * 31 + t + round));
                        let want: Vec<(usize, usize)> =
                            items.iter().map(|&x| (x, x * 31 + t + round)).collect();
                        assert_eq!(got, want, "thread {t} dispatch {round}");
                    }
                });
            }
        });
    });
}

#[test]
fn serial_default_runs_on_the_caller() {
    watchdog(|| {
        set_default_threads(1);
        let caller = thread::current().id();
        let ran_on = par_map_indices(12, 0, |_| thread::current().id());
        set_default_threads(0);
        assert!(ran_on.iter().all(|&t| t == caller));
    });
}
