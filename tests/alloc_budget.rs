//! Allocation-regression gate: a steady-state (arena-warm) eval-mode
//! subnet forward must perform O(1) heap allocations, not O(layers).
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the thread-local activation arena with two forwards, then asserts
//! the third stays under a checked-in budget. Raising `ALLOC_BUDGET`
//! requires a deliberate decision — it is the contract the arena work
//! established. The whole file is its own test target so the counting
//! allocator cannot perturb any other test binary. The supernet forward
//! is pinned to one thread; the sharded-execute gate counts its pool
//! worker's allocations too, once that worker's arena is warm.

use hsconas_space::Arch;
use hsconas_space::SearchSpace;
use hsconas_supernet::Supernet;
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the tests in this binary: they all read deltas of the one
/// global allocation counter, so concurrent runs would inflate each other.
static SERIAL: Mutex<()> = Mutex::new(());

/// Maximum heap allocations one steady-state eval forward may perform.
/// Measured: 4 on a warm arena (vs 12 cold) for the 4-layer tiny supernet;
/// the slack absorbs bookkeeping noise without letting an O(layers)
/// regression through.
const ALLOC_BUDGET: u64 = 16;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_forward_allocations_stay_in_budget() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Keep everything on this thread so the warm arena is the one used.
    hsconas_par::set_default_threads(1);
    let space = SearchSpace::tiny(4);
    let mut rng = SmallRng::new(1);
    let mut net = Supernet::build(space.skeleton(), &mut rng).unwrap();
    let x = Tensor::randn([8, 3, 32, 32], 1.0, &mut rng);
    let arch = Arch::widest(4);

    // Warm-up: populate the arena with every liveness slot the forward
    // needs (two passes so late-freed buffers from pass one are pooled).
    let cold_start = ALLOCS.load(Ordering::Relaxed);
    net.forward(&x, &arch, false).unwrap();
    let cold = ALLOCS.load(Ordering::Relaxed) - cold_start;
    net.forward(&x, &arch, false).unwrap();

    let warm_start = ALLOCS.load(Ordering::Relaxed);
    net.forward(&x, &arch, false).unwrap();
    let warm = ALLOCS.load(Ordering::Relaxed) - warm_start;

    assert!(
        warm <= ALLOC_BUDGET,
        "steady-state forward performed {warm} heap allocations \
         (budget {ALLOC_BUDGET}, cold run {cold}); the activation arena \
         has regressed"
    );
    // Sanity: the gate is actually measuring something — a cold forward
    // allocates far more than a warm one.
    assert!(
        cold > warm,
        "cold forward ({cold}) should out-allocate warm forward ({warm})"
    );
}

/// Maximum heap allocations one steady-state *tagged* GEMM may perform.
/// A pack-cache hit is an `Arc` clone and the activation pack reuses the
/// scratch arena, so the warm path is allocation-free; the slack absorbs
/// allocator bookkeeping noise only.
const TAGGED_GEMM_BUDGET: u64 = 4;

/// The pack-cache hit path must be O(1) allocations too: after the first
/// (miss) call packs the weight into the persistent cache and warms the
/// scratch arena, repeat calls on the same weight generation allocate
/// nothing. The tiny-supernet gate above routes its small GEMMs through
/// the direct kernel, so this measures the packed path explicitly.
#[test]
fn warm_tagged_gemm_allocations_stay_in_budget() {
    use hsconas_tensor::kernels::cache::{self, PackTag};
    use hsconas_tensor::kernels::{gemm_ext, GemmTags, Op, Variant};

    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (m, k, n) = (96, 128, 160);
    let mut rng = SmallRng::new(9);
    let a: Vec<f32> = (0..m * k).map(|_| rng.next_f32() - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.next_f32() - 0.5).collect();
    let mut c = vec![0.0f32; m * n];
    let tags = GemmTags::a_tag(PackTag {
        id: u64::MAX - 50,
        version: 1,
        offset: 0,
        mask_sig: 0,
    });
    cache::set_enabled(true);

    // Warm-up: first call misses the pack cache (allocates the panel
    // buffer) and sizes the thread-local scratch arena.
    let run = |c: &mut [f32]| {
        #[rustfmt::skip]
        gemm_ext(Variant::Scalar, 1, Op::Ab, &a, &b, c, m, k, n, false, tags);
    };
    let cold_start = ALLOCS.load(Ordering::Relaxed);
    run(&mut c);
    let cold = ALLOCS.load(Ordering::Relaxed) - cold_start;
    run(&mut c);

    let warm_start = ALLOCS.load(Ordering::Relaxed);
    run(&mut c);
    let warm = ALLOCS.load(Ordering::Relaxed) - warm_start;

    assert!(
        warm <= TAGGED_GEMM_BUDGET,
        "steady-state tagged GEMM performed {warm} heap allocations \
         (budget {TAGGED_GEMM_BUDGET}, cold run {cold}); the pack-cache \
         hit path has regressed"
    );
    assert!(
        cold > warm,
        "cold tagged GEMM ({cold}) should out-allocate warm ({warm})"
    );
}

/// Maximum heap allocations one warm, sharded batch-16 `execute` may
/// perform, counted process-wide (the pool worker included). Measured: 12
/// on a 2-vCPU x86-64 host (the topological order, the shard list, and
/// each shard's refcount and activation tables), against 31 for the cold
/// first call. A shard run on a fresh thread, or a tensor dropped on
/// another thread than the one that made it, costs a cold arena's worth
/// of allocations on every call.
const SHARDED_EXECUTE_BUDGET: u64 = 16;

/// The compiled-graph batch shards run on long-lived pool workers whose
/// arenas stay warm, and no tensor crosses threads: after two warm calls
/// at two threads, a third allocates O(1), not O(nodes) or O(images).
#[test]
fn sharded_execute_allocations_stay_in_budget() {
    use hsconas_graph::{compile, execute, CompileOptions};

    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let space = SearchSpace::tiny(10);
    let arch = Arch::decode(&[3, 3, 0, 3, 1, 5, 4, 9]).unwrap();
    let (art, _) = compile(space.skeleton(), &arch, &CompileOptions::default()).unwrap();
    let mut rng = SmallRng::new(3);
    let x = Tensor::randn([16, 3, 32, 32], 1.0, &mut rng);
    hsconas_par::set_default_threads(2);

    let cold_start = ALLOCS.load(Ordering::Relaxed);
    let reference = execute(&art.graph, &x).unwrap();
    let cold = ALLOCS.load(Ordering::Relaxed) - cold_start;
    execute(&art.graph, &x).unwrap();
    // On a busy host the caller can claim both shards of a call before the
    // worker wakes, leaving the worker's arena cold however many calls
    // warm up. So also run one shard's worth of work on each participant:
    // the barrier holds the first item until the other participant has
    // claimed the second.
    let half = Tensor::randn([8, 3, 32, 32], 1.0, &mut rng);
    let both_claimed = std::sync::Barrier::new(2);
    hsconas_par::par_map_indices(2, 2, |_| {
        both_claimed.wait();
        execute(&art.graph, &half).unwrap();
    });

    let warm_start = ALLOCS.load(Ordering::Relaxed);
    let out = execute(&art.graph, &x).unwrap();
    let warm = ALLOCS.load(Ordering::Relaxed) - warm_start;
    hsconas_par::set_default_threads(1);

    assert_eq!(out.data(), reference.data());
    assert!(
        warm <= SHARDED_EXECUTE_BUDGET,
        "steady-state sharded execute performed {warm} heap allocations \
         (budget {SHARDED_EXECUTE_BUDGET}, cold run {cold}); a shard ran \
         on a cold worker or a tensor crossed threads"
    );
    assert!(
        cold > warm,
        "cold execute ({cold}) should out-allocate warm execute ({warm})"
    );
}
