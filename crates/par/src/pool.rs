//! The process-wide pool of long-lived workers behind every `par_*` call.
//!
//! Workers are spawned lazily, the first time a dispatch asks for more
//! helpers than exist, and then live for the rest of the process: the
//! pool grows to the largest helper count ever requested and never
//! shrinks. A worker keeps its thread-local state between dispatches, so
//! its activation arena stays warm.
//!
//! A dispatch ([`fork`]) lives on the dispatching thread's stack. It
//! queues one job per helper, each a reference to that stack record, and
//! then runs its own share of the work on the calling thread, claiming
//! items from the same counter as the helpers ([`fork_with`] first runs a
//! caller-side closure of its own, outside the worker flag). A dispatch
//! therefore finishes even when every worker is busy with another
//! dispatcher's jobs. When its share is done, the dispatcher takes back
//! the jobs no worker has started and waits for the ones that have. Only
//! then does it return, or re-raise the first panic any participant
//! caught.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// True on pool workers for their whole life, and on a dispatching
    /// thread for the duration of its own share.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// See [`crate::in_worker`].
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the calling thread as a worker until dropped, then restores the
/// previous flag.
struct WorkerFlag(bool);

impl WorkerFlag {
    fn enter() -> WorkerFlag {
        WorkerFlag(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerFlag {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// A panic payload caught on a participant, re-raised by the dispatcher.
type Payload = Box<dyn Any + Send>;

/// One dispatch's shared state, on the dispatching thread's stack.
struct Dispatch<'a> {
    /// The claim loop every participant runs until no item is left.
    work: &'a (dyn Fn() + Sync),
    /// The dispatcher's span scope, which helpers adopt for their share.
    scope: hsconas_telemetry::ScopeToken,
    /// Helper jobs queued or running. Read and written only under the pool
    /// lock, which orders every access, so `Relaxed` suffices.
    pending: AtomicUsize,
    /// The first panic caught on any participant.
    panic: Mutex<Option<Payload>>,
}

impl Dispatch<'_> {
    /// Runs one participant's share with the worker flag set, catching a
    /// panic into `self.panic`.
    fn participate(&self) {
        let _flag = WorkerFlag::enter();
        self.run_caught(self.work);
    }

    /// Runs `f`, catching a panic into `self.panic`.
    fn run_caught(&self, f: impl FnOnce()) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            let mut first = lock(&self.panic);
            if first.is_none() {
                *first = Some(payload);
            } else {
                // Leaked, not dropped: a payload's drop could panic in turn.
                std::mem::forget(payload);
            }
        }
    }
}

/// A queued helper job: the address of a dispatch record.
type Job = &'static Dispatch<'static>;

struct State {
    jobs: VecDeque<Job>,
    workers: usize,
}

/// The pool: one job queue, and the workers that serve it.
struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is queued.
    queued: Condvar,
    /// Signalled when a worker finishes a job.
    finished: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        jobs: VecDeque::new(),
        workers: 0,
    }),
    queued: Condvar::new(),
    finished: Condvar::new(),
};

/// Locks without poisoning: no lock in this module is held across user
/// code, so a poisoned lock still guards consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn worker_main() {
    IN_WORKER.with(|w| w.set(true));
    let mut state = lock(&POOL.state);
    loop {
        let Some(job) = state.jobs.pop_front() else {
            state = wait(&POOL.queued, state);
            continue;
        };
        drop(state);
        {
            let _scope = hsconas_telemetry::enter_scope(&job.scope);
            job.participate();
        }
        state = lock(&POOL.state);
        // The last use of `job`: its dispatcher reads `pending` under this
        // lock, so it cannot return before the lock is released.
        if job.pending.fetch_sub(1, Ordering::Relaxed) == 1 {
            POOL.finished.notify_all();
        }
    }
}

/// Runs `work` on the calling thread and on `helpers` pool workers at
/// once. `work` claims its own items and returns when none are left, so
/// any subset of the participants completes the dispatch.
///
/// Returns once every participant is done. A panic caught on any of them
/// is re-raised here, after every queued job has finished or been taken
/// back.
pub(crate) fn fork(helpers: usize, work: &(dyn Fn() + Sync)) {
    fork_with(helpers, work, &mut || {});
}

/// [`fork`], with `caller` run on the calling thread before it joins
/// `work`. `caller` runs outside the worker flag, so dispatches made
/// inside it fan out as usual, while the helpers already run `work`. A
/// panic in `caller` is caught like one in `work`: the caller still
/// joins `work`, and the panic is re-raised once every participant is
/// done.
pub(crate) fn fork_with(helpers: usize, work: &(dyn Fn() + Sync), caller: &mut dyn FnMut()) {
    let dispatch = Dispatch {
        work,
        scope: hsconas_telemetry::current_scope(),
        pending: AtomicUsize::new(helpers),
        panic: Mutex::new(None),
    };
    #[allow(unsafe_code)]
    // SAFETY: the queued jobs borrow `dispatch` (and through it `work`)
    // beyond the lifetime the type system can see. This function neither
    // returns nor unwinds while a job refers to `dispatch`: jobs are queued
    // after the last call that can panic (spawning a worker), the caller's
    // closure and its own share run under `catch_unwind`, lock poisoning
    // is ignored, queued jobs are taken back under the pool lock, and the
    // wait ends only when every started job has decremented `pending`,
    // which a worker does as its last use of the job, under the same lock.
    let job: Job = unsafe { std::mem::transmute::<&Dispatch<'_>, Job>(&dispatch) };
    {
        let mut state = lock(&POOL.state);
        while state.workers < helpers {
            std::thread::Builder::new()
                .name(format!("hsconas-par-{}", state.workers))
                .spawn(worker_main)
                .expect("failed to spawn a pool worker");
            state.workers += 1;
        }
        state.jobs.extend(std::iter::repeat_n(job, helpers));
    }
    for _ in 0..helpers {
        POOL.queued.notify_one();
    }
    dispatch.run_caught(caller);
    dispatch.participate();

    let mut state = lock(&POOL.state);
    let queued = state.jobs.len();
    state.jobs.retain(|&j| !std::ptr::eq(j, job));
    dispatch
        .pending
        .fetch_sub(queued - state.jobs.len(), Ordering::Relaxed);
    while dispatch.pending.load(Ordering::Relaxed) > 0 {
        state = wait(&POOL.finished, state);
    }
    drop(state);
    if let Some(payload) = dispatch
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}
