//! Runtime-dispatched GEMM kernel layer: packed panels, SIMD microkernels,
//! a per-shape kernel selector, deterministic multicore band decomposition,
//! and a persistent packed-weight cache ([`cache`]).
//!
//! Every dense product in the crate ([`crate::matmul`], and through it the
//! im2col convolution paths) funnels into [`gemm`], which
//!
//! 1. classifies the problem shape ([`ShapeClass`]),
//! 2. picks a kernel variant ([`Variant`]) — AVX2+FMA when the CPU has it,
//!    the portable scalar packed kernel otherwise, or the legacy *direct*
//!    register-tiled loops for shapes too small to amortize packing,
//! 3. picks cache blocking (`KC`/`MC`/`NC`) and a worker count for the
//!    class (tiny/skinny/moderate shapes stay single-threaded; large
//!    shapes split into row bands across `hsconas-par` workers), and
//! 4. runs a BLIS-style blocked loop nest per band: pack a `kc×nc` block
//!    of `b` into `NR`-column panels, pack each `mc×kc` block of `a` into
//!    `MR`-row panels (recording which panels are entirely zero — the
//!    supernet's channel masks zero whole rows of `a`, and those panels
//!    are skipped before any arithmetic), then walk the panel grid with
//!    the selected microkernel. Operands carrying a [`cache::PackTag`]
//!    (supernet weights) read their panels from the persistent pack cache
//!    instead of repacking per call.
//!
//! ## Parallel decomposition
//!
//! The parallel driver splits `c`'s rows into `MR`-aligned bands, one
//! worker per band. Each output element is written by exactly one worker,
//! there is no reduction along `k` across threads, and every band packs
//! (or reads from the cache) byte-identical panels over the same
//! `MR`/`NR`-aligned row/column sets as the serial driver — so each
//! element receives the same additions in the same `pc`-block order
//! regardless of the band count, and results are **bit-identical at any
//! thread count** (the `determinism_parallel` suite asserts this through
//! the full supernet). Nested parallel sites stay serial: a GEMM issued
//! from inside an `hsconas-par` dispatch (the batch-parallel convolution
//! path, a compiled graph's batch shard) detects it via
//! [`hsconas_par::in_worker`] and runs inline rather than oversubscribing
//! the machine.
//!
//! Selection is overridable for A/B benchmarking via two environment
//! variables, each read once per process and **rejected loudly** (panic)
//! when set to an unknown value: `HSCONAS_KERNEL` (`scalar`, `avx2`,
//! `direct`, `auto`) picks the variant, `HSCONAS_KERNEL_THREADS` (a
//! worker count, `0`, or `auto`) pins the band worker count. Every call
//! increments a per-variant dispatch counter plus a parallel/serial path
//! counter, registry cells keyed `kernel.dispatch.*` and `kernel.gemm.*`,
//! so benchmark numbers are attributable to the kernel and decomposition
//! that actually ran (`hsconas report`, serve `status`). Depthwise
//! convolutions never reach [`gemm`]: they run on the direct kernels in
//! `depthwise`, which count `kernel.dispatch.depthwise` once per
//! convolution call.
//!
//! Determinism contract: for a fixed variant the accumulation order is a
//! pure function of `(op, m, k, n)` — fixed blocking, fixed panel walk,
//! band splits only at `MR` boundaries — so repeated calls are
//! bit-identical and the thread-count and cache on/off determinism gates
//! hold unchanged. Numeric agreement *across* variants is
//! tolerance-bounded, not bit-exact (FMA contraction differs from
//! mul+add); DESIGN.md §11 states the contract the differential suite
//! enforces.
//!
//! NEON seam: an aarch64 kernel implements [`Micro`] over the same packed
//! layout and registers itself exactly like [`avx2`] does — add the
//! module, give [`Variant`] a `Neon` arm, and teach [`select`] to probe
//! it; nothing else changes.

use std::sync::OnceLock;

use hsconas_telemetry::Counter;

use crate::scratch::with_scratch;

pub mod cache;
pub(crate) mod depthwise;
pub(crate) mod direct;
pub mod pack;
mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

use cache::{PackTag, PackedRef};
use pack::{pack_a, pack_b, Layout};
use scalar::ScalarKernel;

/// Largest microkernel tile (`6×16`), sizing the edge-tile stack buffer.
const MAX_TILE: usize = 96;

/// Bands smaller than this many rows don't amortize a worker's panel
/// packing and spawn cost; the auto policy caps the worker count at
/// `m / MIN_BAND_ROWS`.
const MIN_BAND_ROWS: usize = 24;

/// A packed microkernel: computes `c += apanel · bpanel` for one full
/// `MR × NR` tile over a `kc`-deep packed k-block.
pub(crate) trait Micro {
    /// Tile rows (rows of `a` per panel).
    const MR: usize;
    /// Tile columns (columns of `b` per panel).
    const NR: usize;
    /// `c[r·ldc + j] += Σ_kk apanel[kk·MR + r] · bpanel[kk·NR + j]`.
    fn tile(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, kc: usize);
}

// ---------------------------------------------------------------------------
// variants & dispatch

/// Which kernel implementation executes a [`gemm`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Legacy unpacked register-tiled loops (PR 1); the tiny-shape path.
    Direct,
    /// Packed-panel scalar kernel: portable reference, 4×8 tile.
    Scalar,
    /// Packed-panel AVX2+FMA kernel, 6×16 tile (x86-64 only).
    Avx2,
}

impl Variant {
    /// Stable lowercase name, as used by `HSCONAS_KERNEL` and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Direct => "direct",
            Variant::Scalar => "scalar",
            Variant::Avx2 => "avx2",
        }
    }

    /// Whether this variant can execute on the current host.
    pub fn is_available(self) -> bool {
        match self {
            Variant::Direct | Variant::Scalar => true,
            Variant::Avx2 => avx2_available(),
        }
    }
}

/// True when the AVX2+FMA kernel can run on this host.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses an `HSCONAS_KERNEL` value. `Ok(None)` means "auto".
fn parse_kernel_env(raw: &str) -> Result<Option<Variant>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "scalar" => Ok(Some(Variant::Scalar)),
        "direct" => Ok(Some(Variant::Direct)),
        "avx2" => Ok(Some(Variant::Avx2)),
        "" | "auto" => Ok(None),
        other => Err(format!(
            "HSCONAS_KERNEL={other} not recognized; valid values are scalar|avx2|direct|auto"
        )),
    }
}

/// The `HSCONAS_KERNEL` override, parsed once per process.
///
/// # Panics
///
/// Panics on an unrecognized value — a typo'd A/B run must fail loudly,
/// not silently benchmark the auto path. `avx2` on a host without
/// AVX2+FMA is a recognized value that cannot be honored; it warns and
/// falls back to the scalar packed kernel so the same command line works
/// across a heterogeneous fleet.
fn env_override() -> Option<Variant> {
    static OVERRIDE: OnceLock<Option<Variant>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("HSCONAS_KERNEL") {
        Ok(v) => match parse_kernel_env(&v) {
            Ok(Some(Variant::Avx2)) if !avx2_available() => {
                eprintln!(
                    "HSCONAS_KERNEL=avx2 requested but the CPU lacks avx2+fma; \
                     falling back to the scalar packed kernel"
                );
                Some(Variant::Scalar)
            }
            Ok(sel) => sel,
            Err(msg) => panic!("{msg}"),
        },
        Err(_) => None,
    })
}

/// Parses an `HSCONAS_KERNEL_THREADS` value. `Ok(None)` means "auto"
/// (the per-shape-class policy decides).
fn parse_threads_env(raw: &str) -> Result<Option<usize>, String> {
    let v = raw.trim().to_ascii_lowercase();
    match v.as_str() {
        "" | "auto" => Ok(None),
        s => match s.parse::<usize>() {
            Ok(0) => Ok(None),
            Ok(t) => Ok(Some(t)),
            Err(_) => Err(format!(
                "HSCONAS_KERNEL_THREADS={raw} not recognized; \
                 valid values are a worker count, 0, or auto"
            )),
        },
    }
}

/// The `HSCONAS_KERNEL_THREADS` override, parsed once per process.
///
/// # Panics
///
/// Panics on an unrecognized value (same loud-failure policy as
/// [`env_override`]).
fn env_threads() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("HSCONAS_KERNEL_THREADS") {
        Ok(v) => match parse_threads_env(&v) {
            Ok(sel) => sel,
            Err(msg) => panic!("{msg}"),
        },
        Err(_) => None,
    })
}

/// The variant [`select`] resolves to for large, packed-eligible shapes on
/// this host — i.e. what the hot paths actually run.
pub fn selected_variant() -> Variant {
    env_override().unwrap_or({
        if avx2_available() {
            Variant::Avx2
        } else {
            Variant::Scalar
        }
    })
}

// ---------------------------------------------------------------------------
// shape classes & blocking

/// Coarse problem-shape classes driving kernel and blocking choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// Under ~32k MACs: packing costs more than it saves.
    Tiny,
    /// A dimension is below the smallest tile (`m < 4`, `n < 8`, `k < 8`):
    /// the packed grid would be all edge tiles.
    Skinny,
    /// Few rows, many columns (`m ≤ 64`, `n ≥ 4m`) — the im2col forward
    /// shape: one weight panel against a wide activation matrix.
    Panel,
    /// `k ≥ 512`: dominated by the k-loop; smaller `NC` keeps the packed
    /// `b` block cache-resident across more reuse.
    Deep,
    /// Everything else.
    Square,
}

/// Classifies a `(m, k, n)` problem; pure function of the dimensions.
pub fn classify(m: usize, k: usize, n: usize) -> ShapeClass {
    if m * k * n < 32 * 1024 {
        ShapeClass::Tiny
    } else if m < 4 || n < 8 || k < 8 {
        ShapeClass::Skinny
    } else if k >= 512 {
        ShapeClass::Deep
    } else if m <= 64 && n >= 4 * m {
        ShapeClass::Panel
    } else {
        ShapeClass::Square
    }
}

impl ShapeClass {
    /// Stable lowercase name (bench snapshot schema).
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Tiny => "tiny",
            ShapeClass::Skinny => "skinny",
            ShapeClass::Panel => "panel",
            ShapeClass::Deep => "deep",
            ShapeClass::Square => "square",
        }
    }

    /// MAC count below which the class stays single-threaded. The values
    /// were tuned when the pool spawned fresh scoped threads per call
    /// (tens of µs); dispatching to the long-lived pool is cheaper, but
    /// re-deriving them needs a scripted A/B (see ROADMAP.md). Panel
    /// shapes need more work in flight than the others: their small `m`
    /// limits the band count, so per-band packing overhead is amortized
    /// over fewer rows.
    fn parallel_mac_threshold(self) -> usize {
        match self {
            ShapeClass::Tiny | ShapeClass::Skinny => usize::MAX,
            ShapeClass::Panel => 16_000_000,
            ShapeClass::Deep | ShapeClass::Square => 8_000_000,
        }
    }
}

/// Cache-blocking parameters for the packed loop nest.
///
/// `kc` bounds the packed k-depth (`a`-panel rows resident in L1 across
/// the tile), `mc` bounds the packed `a` block (≤ 64 panels so the
/// zero-panel bitmask fits a `u64`), `nc` bounds the packed `b` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// k-dimension cache block.
    pub kc: usize,
    /// m-dimension cache block (clamped to `64·MR` by the driver).
    pub mc: usize,
    /// n-dimension cache block.
    pub nc: usize,
}

impl Blocking {
    /// Blocking tuned per shape class (see DESIGN.md §11 for rationale).
    pub fn for_class(class: ShapeClass) -> Blocking {
        match class {
            ShapeClass::Panel => Blocking {
                kc: 256,
                mc: 72,
                nc: 1024,
            },
            ShapeClass::Deep => Blocking {
                kc: 256,
                mc: 120,
                nc: 512,
            },
            _ => Blocking {
                kc: 256,
                mc: 120,
                nc: 1024,
            },
        }
    }
}

/// A resolved kernel choice for one problem shape.
#[derive(Debug, Clone, Copy)]
pub struct Selection {
    /// Kernel variant to execute.
    pub variant: Variant,
    /// Cache blocking for the packed driver (ignored by `Direct`).
    pub blocking: Blocking,
    /// The shape class that drove the choice.
    pub class: ShapeClass,
    /// Row-band worker count the parallel driver will use (`1` = serial).
    pub threads: usize,
}

/// Resolves the band worker count for a packed-eligible shape: serial
/// inside pool workers (no nested pools), else the
/// `HSCONAS_KERNEL_THREADS` override, else the per-class MAC threshold
/// with the band count capped so each worker keeps at least
/// [`MIN_BAND_ROWS`] rows.
fn auto_band_threads(class: ShapeClass, m: usize, k: usize, n: usize) -> usize {
    if hsconas_par::in_worker() {
        return 1;
    }
    if let Some(t) = env_threads() {
        return t;
    }
    let macs = m.saturating_mul(k).saturating_mul(n);
    if macs < class.parallel_mac_threshold() {
        return 1;
    }
    hsconas_par::default_threads().min(m / MIN_BAND_ROWS).max(1)
}

/// The kernel selector: shape class → variant + blocking + band worker
/// count, with the `HSCONAS_KERNEL` / `HSCONAS_KERNEL_THREADS` overrides
/// applied to packed-eligible shapes.
///
/// Tiny and skinny problems always take the direct serial path — packing
/// or forking them is a net loss under every variant — so the overrides
/// steer the kernels that matter without pessimizing the long tail of
/// small products.
pub fn select(m: usize, k: usize, n: usize) -> Selection {
    select_class(classify(m, k, n), m, k, n)
}

/// [`select`] for an already classified problem: the one place the
/// Tiny/Skinny → `Direct` rule and the band worker count are decided.
/// `class` may come from a different (reference) shape than `(m, k, n)`,
/// which only feeds the band worker count ([`gemm_pinned`]).
fn select_class(class: ShapeClass, m: usize, k: usize, n: usize) -> Selection {
    let variant = match class {
        ShapeClass::Tiny | ShapeClass::Skinny => Variant::Direct,
        _ => selected_variant(),
    };
    let threads = if variant == Variant::Direct {
        1
    } else {
        auto_band_threads(class, m, k, n)
    };
    Selection {
        variant,
        blocking: Blocking::for_class(class),
        class,
        threads,
    }
}

// ---------------------------------------------------------------------------
// dispatch counters

/// Per-variant dispatch counters (`kernel.dispatch.*`), indexed by
/// `Variant as usize`. The registry cells are the only store: the
/// registry is compiled unconditionally, so [`dispatch_counts`] reads
/// them in every build.
fn dispatch_counters() -> &'static [Counter; 3] {
    static CELLS: OnceLock<[Counter; 3]> = OnceLock::new();
    CELLS.get_or_init(|| {
        [
            Counter::register("kernel.dispatch.direct"),
            Counter::register("kernel.dispatch.scalar"),
            Counter::register("kernel.dispatch.avx2"),
        ]
    })
}

/// Packed-driver decomposition counters (`kernel.gemm.{serial,parallel}`).
fn band_counters() -> &'static [Counter; 2] {
    static CELLS: OnceLock<[Counter; 2]> = OnceLock::new();
    CELLS.get_or_init(|| {
        [
            Counter::register("kernel.gemm.serial"),
            Counter::register("kernel.gemm.parallel"),
        ]
    })
}

/// Per-variant totals of GEMM calls executed by this process, plus the
/// depthwise convolutions that run on their own kernels instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchCounts {
    /// Calls taken by the legacy direct path.
    pub direct: u64,
    /// Calls taken by the scalar packed kernel.
    pub scalar: u64,
    /// Calls taken by the AVX2+FMA kernel.
    pub avx2: u64,
    /// Depthwise convolution calls (forward or backward, one per call,
    /// not per channel plane) run by the direct depthwise kernels; no GEMM
    /// is dispatched for them.
    pub depthwise: u64,
}

/// Snapshot of the dispatch counters (serve `status`, reports, tests).
pub fn dispatch_counts() -> DispatchCounts {
    let [direct, scalar, avx2] = dispatch_counters();
    DispatchCounts {
        direct: direct.get(),
        scalar: scalar.get(),
        avx2: avx2.get(),
        depthwise: depthwise::counter().get(),
    }
}

/// Packed-driver decomposition totals: how many packed GEMM calls ran
/// serially vs fanned out across row-band workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelCounts {
    /// Packed calls executed on the calling thread (one band).
    pub serial: u64,
    /// Packed calls split into row bands across pool workers.
    pub parallel: u64,
}

/// Snapshot of the decomposition counters (serve `status`, bench).
pub fn parallel_counts() -> ParallelCounts {
    let [serial, parallel] = band_counters();
    ParallelCounts {
        serial: serial.get(),
        parallel: parallel.get(),
    }
}

// ---------------------------------------------------------------------------
// public GEMM entry points

/// Operand storage for a [`gemm`] call. Logical dimensions are always
/// `c (m×n) += a' (m×k) · b' (k×n)`; the op names how `a'`/`b'` map onto
/// the caller's row-major buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `a` stored `(m, k)`, `b` stored `(k, n)` — plain product.
    Ab,
    /// `a` stored `(k, m)`, product `aᵀ·b`: the conv input gradient
    /// `Wᵀ·dOut` and the `Linear` weight gradient `dyᵀ·x`.
    AtB,
    /// `b` stored `(n, k)`, product `a·bᵀ`: the conv weight gradient
    /// `dOut·colᵀ` and the `Linear` forward `x·Wᵀ`.
    ABt,
}

impl Op {
    fn a_len(self, m: usize, k: usize) -> usize {
        match self {
            Op::Ab | Op::ABt => m * k,
            Op::AtB => k * m,
        }
    }

    fn b_len(self, k: usize, n: usize) -> usize {
        match self {
            Op::Ab | Op::AtB => k * n,
            Op::ABt => n * k,
        }
    }

    fn layouts(self, m: usize, k: usize, n: usize) -> (Layout, Layout) {
        match self {
            Op::Ab => (Layout::row_major(k), Layout::row_major(n)),
            Op::AtB => (Layout::transposed(m), Layout::row_major(n)),
            Op::ABt => (Layout::row_major(k), Layout::transposed(k)),
        }
    }
}

/// Cache identities of a GEMM call's operands. A `Some` tag routes that
/// operand's panels through the persistent pack cache ([`cache`]):
/// supernet weights are tagged (via [`crate::Tensor::pack_tag`]) so they
/// pack once per mutation generation; activations stay untagged and pack
/// into per-call scratch.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmTags {
    /// Tag for the `a'` operand (e.g. the conv weight in `W·col`).
    pub a: Option<PackTag>,
    /// Tag for the `b'` operand (e.g. the linear weight in `x·Wᵀ`).
    pub b: Option<PackTag>,
}

impl GemmTags {
    /// Tags only the `a'` operand.
    pub fn a_tag(tag: PackTag) -> GemmTags {
        GemmTags {
            a: Some(tag),
            b: None,
        }
    }

    /// Tags only the `b'` operand.
    pub fn b_tag(tag: PackTag) -> GemmTags {
        GemmTags {
            a: None,
            b: Some(tag),
        }
    }
}

/// `c (m×n) ⟵ a' · b'` (overwrite) or `c += a' · b'` (accumulate), with
/// the kernel, blocking, and band worker count chosen by [`select`].
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions for `op`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    gemm_tagged(op, a, b, c, m, k, n, accumulate, GemmTags::default());
}

/// [`gemm`] with operand cache tags: tagged operands read their packed
/// panels from the persistent weight cache. Results are bit-identical to
/// the untagged call (cached panels hold the same bytes the per-call
/// packing produces).
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions for `op`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tagged(
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    tags: GemmTags,
) {
    let sel = select(m, k, n);
    gemm_ext(
        sel.variant,
        sel.threads,
        op,
        a,
        b,
        c,
        m,
        k,
        n,
        accumulate,
        tags,
    );
}

/// [`gemm`] with an explicit kernel variant (band worker count still
/// resolved by the auto policy) — the A/B hook the differential suite and
/// criterion benches are built on. An unavailable variant (AVX2 on a
/// non-AVX2 host) falls back to `Scalar`.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions for `op`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    variant: Variant,
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    gemm_ext(
        variant,
        0,
        op,
        a,
        b,
        c,
        m,
        k,
        n,
        accumulate,
        GemmTags::default(),
    );
}

/// [`gemm_with`] with an explicit band worker count (`0` = auto policy,
/// `1` = serial, `t` = up to `t` row bands) — the thread-scaling A/B
/// hook. Results are bit-identical across worker counts.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions for `op`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_threads(
    variant: Variant,
    threads: usize,
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    gemm_ext(
        variant,
        threads,
        op,
        a,
        b,
        c,
        m,
        k,
        n,
        accumulate,
        GemmTags::default(),
    );
}

/// The fully explicit entry point: variant, band worker count (`0` =
/// auto), and operand cache tags. Everything above delegates here.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions for `op`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ext(
    variant: Variant,
    threads: usize,
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    tags: GemmTags,
) {
    let class = classify(m, k, n);
    let threads = if threads == 0 {
        auto_band_threads(class, m, k, n)
    } else {
        threads
    };
    gemm_resolved(
        variant,
        Blocking::for_class(class),
        threads,
        op,
        a,
        b,
        c,
        m,
        k,
        n,
        accumulate,
        tags,
    );
}

/// [`gemm_tagged`] with variant and blocking derived from a *reference*
/// problem shape instead of the actual one.
///
/// The graph compiler's channel-mask specialization physically removes
/// masked rows/columns from a product whose reference run computed them
/// as zeros. Per-element bits depend on the kernel variant (FMA vs
/// mul+add) and on the `KC` blocking (each `kc`-deep block is accumulated
/// in registers before being added to `c`), and both are normally chosen
/// from `(m, k, n)` — so a shrunken product could cross the tiny/skinny
/// threshold and flip to a different accumulation order. Pinning the
/// selection to the reference shape keeps every surviving addend in the
/// same block of the same kernel, which makes dropping exactly-zero
/// addends bit-preserving (modulo IEEE zero sign; `±0.0` compare equal).
/// The band worker count still follows the auto policy on the actual
/// shape — band count never affects bits (module docs).
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions for `op`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_pinned(
    ref_mkn: (usize, usize, usize),
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    tags: GemmTags,
) {
    let (rm, rk, rn) = ref_mkn;
    let sel = select_class(classify(rm, rk, rn), m, k, n);
    gemm_resolved(
        sel.variant,
        sel.blocking,
        sel.threads,
        op,
        a,
        b,
        c,
        m,
        k,
        n,
        accumulate,
        tags,
    );
}

/// Shared tail of [`gemm_ext`] / [`gemm_pinned`]: validation, dispatch
/// counting, and the variant match, with blocking and band worker count
/// fully decided by the caller.
#[allow(clippy::too_many_arguments)]
fn gemm_resolved(
    variant: Variant,
    blocking: Blocking,
    threads: usize,
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    tags: GemmTags,
) {
    assert_eq!(a.len(), op.a_len(m, k), "gemm: a has wrong length");
    assert_eq!(b.len(), op.b_len(k, n), "gemm: b has wrong length");
    assert_eq!(c.len(), m * n, "gemm: c has wrong length");
    if !accumulate {
        c.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let resolved = if variant.is_available() {
        variant
    } else {
        Variant::Scalar
    };
    dispatch_counters()[resolved as usize].incr();
    match resolved {
        // The direct loops neither pack nor fork; tags and threads are
        // moot for the tiny shapes routed here.
        Variant::Direct => match op {
            Op::Ab => direct::matmul_accumulate(a, b, c, m, k, n),
            Op::AtB => direct::matmul_at_b(a, b, c, k, m, n),
            Op::ABt => direct::matmul_a_bt(a, b, c, m, k, n),
        },
        Variant::Scalar => {
            gemm_packed::<ScalarKernel>(op, a, b, c, m, k, n, blocking, threads, tags)
        }
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2 => {
            gemm_packed::<avx2::Avx2Kernel>(op, a, b, c, m, k, n, blocking, threads, tags)
        }
        #[cfg(not(target_arch = "x86_64"))]
        Variant::Avx2 => unreachable!("avx2 unavailable off x86-64"),
    }
}

// ---------------------------------------------------------------------------
// packed driver

/// Packed-driver front end: resolves cached panels for tagged operands,
/// then either runs one serial band or splits `c` into `MR`-aligned row
/// bands across pool workers. See the module docs for why the
/// decomposition is bit-identical at any band count.
#[allow(clippy::too_many_arguments)]
fn gemm_packed<K: Micro>(
    op: Op,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    blk: Blocking,
    threads: usize,
    tags: GemmTags,
) {
    debug_assert!(K::MR * K::NR <= MAX_TILE);
    let (la, lb) = op.layouts(m, k, n);
    let kc_max = blk.kc.min(k);
    let ca_arc = tags
        .a
        .and_then(|t| cache::get_or_pack_a(t, a, la, m, k, kc_max, K::MR));
    let cb_arc = tags
        .b
        .and_then(|t| cache::get_or_pack_b(t, b, lb, k, n, kc_max, K::NR));
    let ca = ca_arc.as_deref().map(cache::PackedMatrix::as_ref);
    let cb = cb_arc.as_deref().map(cache::PackedMatrix::as_ref);
    let nbands = threads.min(m.div_ceil(K::MR)).max(1);
    if nbands <= 1 {
        band_counters()[0].incr();
        gemm_band::<K>(a, la, b, lb, c, 0, m, m, k, n, blk, ca, cb);
        return;
    }
    band_counters()[1].incr();
    let band_rows = m.div_ceil(nbands).next_multiple_of(K::MR);
    if cb.is_some() {
        run_bands::<K>(a, la, b, lb, c, m, k, n, blk, band_rows, nbands, ca, cb);
    } else {
        // Pack all of b once on the dispatching thread and share the
        // read-only panels across bands. The bytes equal the per-block
        // packs the serial driver produces (asserted in cache::tests), so
        // results are unchanged — only the per-band repacking is gone.
        with_scratch(cache::full_b_len(k, n, K::NR), |bfull| {
            cache::pack_full_b(b, lb, k, n, kc_max, K::NR, bfull);
            let shared = PackedRef {
                data: bfull,
                masks: &[],
                words_per_block: 0,
            };
            run_bands::<K>(
                a,
                la,
                b,
                lb,
                c,
                m,
                k,
                n,
                blk,
                band_rows,
                nbands,
                ca,
                Some(shared),
            );
        });
    }
}

/// Fans `MR`-aligned row bands of `c` out to pool workers. Each band is
/// written by exactly one worker; `a`/`b` (and any resolved packed
/// panels) are shared read-only.
#[allow(clippy::too_many_arguments)]
fn run_bands<K: Micro>(
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    blk: Blocking,
    band_rows: usize,
    nbands: usize,
    ca: Option<PackedRef<'_>>,
    cb: Option<PackedRef<'_>>,
) {
    let bands: Vec<&mut [f32]> = c.chunks_mut(band_rows * n).collect();
    hsconas_par::par_for_each(bands, nbands, |i, band| {
        let r0 = i * band_rows;
        let mb = band.len() / n;
        gemm_band::<K>(a, la, b, lb, band, r0, mb, m, k, n, blk, ca, cb);
    });
}

/// BLIS-style blocked loop nest over one row band (`rows r0 .. r0+mb` of
/// the full problem; the serial path is the single band `r0 = 0, mb = m`).
/// `c` is the band's `mb × n` slice of the output. Cached operands
/// (`ca`/`cb`) supply pre-packed panels — indexed by *global* panel
/// number, hence the full `m` parameter — and skip the scratch packing
/// entirely; uncached operands pack per cache block exactly as before.
#[allow(clippy::too_many_arguments)]
fn gemm_band<K: Micro>(
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    c: &mut [f32],
    r0: usize,
    mb: usize,
    m: usize,
    k: usize,
    n: usize,
    blk: Blocking,
    ca: Option<PackedRef<'_>>,
    cb: Option<PackedRef<'_>>,
) {
    debug_assert!(
        r0.is_multiple_of(K::MR),
        "bands must start on a panel boundary"
    );
    debug_assert_eq!(c.len(), mb * n);
    let kc_max = blk.kc.min(k);
    // The zero-panel bitmask is a u64: never more than 64 a-panels per block.
    let mc_max = blk.mc.min(64 * K::MR).min(mb.max(1));
    let nc_max = blk.nc.min(n.max(1));
    let apack_len = if ca.is_some() {
        0
    } else {
        mc_max.div_ceil(K::MR) * K::MR * kc_max
    };
    let bpack_len = if cb.is_some() {
        0
    } else {
        nc_max.div_ceil(K::NR) * K::NR * kc_max
    };
    let a_panels_total = m.div_ceil(K::MR);
    let b_panels_total = n.div_ceil(K::NR);
    with_scratch(bpack_len, |bpack| {
        with_scratch(apack_len, |apack| {
            let mut jc = 0;
            while jc < n {
                let nc = nc_max.min(n - jc);
                let b_panels = nc.div_ceil(K::NR);
                let mut pc = 0;
                let mut pc_idx = 0;
                while pc < k {
                    let kc = kc_max.min(k - pc);
                    let bblock: &[f32] = match cb {
                        Some(full) => {
                            // jc is NR-aligned (nc_max is, when multiple
                            // blocks exist), so the block's panels start
                            // at global panel jc/NR.
                            let base = b_panels_total * K::NR * pc + (jc / K::NR) * kc * K::NR;
                            &full.data[base..base + b_panels * kc * K::NR]
                        }
                        None => {
                            pack_b(b, lb, pc, kc, jc, nc, K::NR, bpack);
                            bpack.as_slice()
                        }
                    };
                    let mut ic = 0;
                    while ic < mb {
                        let mc = mc_max.min(mb - ic);
                        let a_panels = mc.div_ceil(K::MR);
                        let (ablock, zero_mask): (&[f32], u64) = match ca {
                            Some(full) => {
                                let p0 = (r0 + ic) / K::MR;
                                let base = a_panels_total * K::MR * pc + p0 * kc * K::MR;
                                let words = full.words_per_block;
                                let mask = cache::extract_mask(
                                    &full.masks[pc_idx * words..(pc_idx + 1) * words],
                                    p0,
                                    a_panels,
                                );
                                (&full.data[base..base + a_panels * kc * K::MR], mask)
                            }
                            None => {
                                let mask = pack_a(a, la, r0 + ic, mc, pc, kc, K::MR, apack);
                                (apack.as_slice(), mask)
                            }
                        };
                        for q in 0..b_panels {
                            let nr = K::NR.min(nc - q * K::NR);
                            let bp = &bblock[q * kc * K::NR..(q + 1) * kc * K::NR];
                            for p in 0..a_panels {
                                if zero_mask >> p & 1 == 1 {
                                    // All-zero a panel (masked channels):
                                    // contributes nothing, skip the tile.
                                    continue;
                                }
                                let mr = K::MR.min(mc - p * K::MR);
                                let ap = &ablock[p * kc * K::MR..(p + 1) * kc * K::MR];
                                let c_off = (ic + p * K::MR) * n + jc + q * K::NR;
                                if mr == K::MR && nr == K::NR {
                                    K::tile(ap, bp, &mut c[c_off..], n, kc);
                                } else {
                                    // Edge tile: compute the full padded
                                    // tile on the stack, write back only
                                    // the live mr×nr corner.
                                    let mut tmp = [0.0f32; MAX_TILE];
                                    let tile = &mut tmp[..K::MR * K::NR];
                                    K::tile(ap, bp, tile, K::NR, kc);
                                    for r in 0..mr {
                                        let dst = &mut c[c_off + r * n..c_off + r * n + nr];
                                        let src = &tile[r * K::NR..r * K::NR + nr];
                                        for (cv, &tv) in dst.iter_mut().zip(src) {
                                            *cv += tv;
                                        }
                                    }
                                }
                            }
                        }
                        ic += mc;
                    }
                    pc += kc;
                    pc_idx += 1;
                }
                jc += nc;
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    fn naive(op: Op, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    let av = match op {
                        Op::Ab | Op::ABt => a[i * k + kk],
                        Op::AtB => a[kk * m + i],
                    } as f64;
                    let bv = match op {
                        Op::Ab | Op::AtB => b[kk * n + j],
                        Op::ABt => b[j * k + kk],
                    } as f64;
                    c[i * n + j] += av * bv;
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn rand_vec(len: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..len).map(|_| rng.next_normal() as f32).collect()
    }

    fn check(variant: Variant, op: Op, m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = SmallRng::new(seed);
        let a = rand_vec(op.a_len(m, k), &mut rng);
        let b = rand_vec(op.b_len(k, n), &mut rng);
        let mut c = vec![0.0; m * n];
        gemm_with(variant, op, &a, &b, &mut c, m, k, n, false);
        let want = naive(op, &a, &b, m, k, n);
        for (i, (x, y)) in c.iter().zip(&want).enumerate() {
            let tol = 1e-4 * (1.0 + y.abs()) * (1.0 + k as f32 / 256.0);
            assert!(
                (x - y).abs() < tol,
                "{variant:?} {op:?} ({m},{k},{n})[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn packed_scalar_matches_naive_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 9, 17),
            (6, 300, 24),
            (13, 513, 31),
            (64, 144, 576),
            (120, 70, 130),
            (121, 256, 16),
        ] {
            check(Variant::Scalar, Op::Ab, m, k, n, 1);
            check(Variant::Scalar, Op::AtB, m, k, n, 2);
            check(Variant::Scalar, Op::ABt, m, k, n, 3);
        }
    }

    #[test]
    fn packed_avx2_matches_naive_across_shapes() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        for &(m, k, n) in &[
            (1, 1, 1),
            (6, 16, 16),
            (5, 9, 17),
            (7, 300, 33),
            (13, 513, 31),
            (64, 144, 576),
            (120, 70, 130),
        ] {
            check(Variant::Avx2, Op::Ab, m, k, n, 4);
            check(Variant::Avx2, Op::AtB, m, k, n, 5);
            check(Variant::Avx2, Op::ABt, m, k, n, 6);
        }
    }

    #[test]
    fn accumulate_adds_onto_existing_c() {
        let mut rng = SmallRng::new(7);
        let (m, k, n) = (9, 40, 21);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        for variant in [Variant::Direct, Variant::Scalar, Variant::Avx2] {
            let mut c = vec![2.0; m * n];
            gemm_with(variant, Op::Ab, &a, &b, &mut c, m, k, n, true);
            let mut base = vec![0.0; m * n];
            gemm_with(variant, Op::Ab, &a, &b, &mut base, m, k, n, false);
            for (x, y) in c.iter().zip(&base) {
                assert!((x - (y + 2.0)).abs() < 1e-5, "{x} vs {}", y + 2.0);
            }
        }
    }

    #[test]
    fn zero_rows_skip_and_stay_zero() {
        // Masked-channel pattern: zeroed rows of `a` must produce exactly
        // zero output rows through the zero-panel skip.
        let mut rng = SmallRng::new(8);
        let (m, k, n) = (24, 64, 48);
        let mut a = rand_vec(m * k, &mut rng);
        for r in [0usize, 1, 2, 3, 9, 17, 23] {
            a[r * k..(r + 1) * k].fill(0.0);
        }
        let b = rand_vec(k * n, &mut rng);
        let want = naive(Op::Ab, &a, &b, m, k, n);
        for variant in [Variant::Scalar, Variant::Avx2] {
            let mut c = vec![0.0; m * n];
            gemm_with(variant, Op::Ab, &a, &b, &mut c, m, k, n, false);
            for r in [0usize, 1, 2, 3, 9, 17, 23] {
                assert!(
                    c[r * n..(r + 1) * n].iter().all(|&v| v == 0.0),
                    "{variant:?} row {r} not exactly zero"
                );
            }
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()));
            }
        }
    }

    #[test]
    fn degenerate_dimensions_are_safe() {
        for variant in [Variant::Direct, Variant::Scalar, Variant::Avx2] {
            for &(m, k, n) in &[(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0), (1, 0, 1)] {
                let a = vec![1.0; m * k];
                let b = vec![1.0; k * n];
                let mut c = vec![7.0; m * n];
                gemm_with(variant, Op::Ab, &a, &b, &mut c, m, k, n, false);
                assert!(c.iter().all(|&v| v == 0.0), "{variant:?} ({m},{k},{n})");
                let mut c2 = vec![7.0; m * n];
                gemm_with(variant, Op::Ab, &a, &b, &mut c2, m, k, n, true);
                assert!(c2.iter().all(|&v| v == 7.0), "{variant:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        let mut rng = SmallRng::new(9);
        let (m, k, n) = (33, 270, 47);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        for variant in [Variant::Direct, Variant::Scalar, Variant::Avx2] {
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm_with(variant, Op::Ab, &a, &b, &mut c1, m, k, n, false);
            gemm_with(variant, Op::Ab, &a, &b, &mut c2, m, k, n, false);
            assert_eq!(c1, c2, "{variant:?} not deterministic");
        }
    }

    #[test]
    fn band_parallel_is_bit_identical_to_serial() {
        // The central decomposition claim: any band count, any op, any
        // edge geometry — bitwise the same output, overwrite and
        // accumulate alike.
        let mut rng = SmallRng::new(12);
        for &(m, k, n) in &[(37, 300, 129), (130, 64, 257), (8, 520, 96), (96, 96, 96)] {
            for op in [Op::Ab, Op::AtB, Op::ABt] {
                let a = rand_vec(op.a_len(m, k), &mut rng);
                let b = rand_vec(op.b_len(k, n), &mut rng);
                let seed = rand_vec(m * n, &mut rng);
                for variant in [Variant::Scalar, Variant::Avx2] {
                    if !variant.is_available() {
                        continue;
                    }
                    let mut serial = seed.clone();
                    gemm_with_threads(variant, 1, op, &a, &b, &mut serial, m, k, n, true);
                    for threads in [2, 3, 8] {
                        let mut par = seed.clone();
                        gemm_with_threads(variant, threads, op, &a, &b, &mut par, m, k, n, true);
                        assert_eq!(
                            serial, par,
                            "{variant:?} {op:?} ({m},{k},{n}) threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tagged_operands_are_bit_identical_and_hit_the_cache() {
        let _guard = cache::test_lock();
        let mut rng = SmallRng::new(13);
        let (m, k, n) = (48, 96, 80);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut plain = vec![0.0; m * n];
        gemm_with(Variant::Scalar, Op::Ab, &a, &b, &mut plain, m, k, n, false);
        // Unique synthetic ids so this test cannot collide with others.
        let tags = GemmTags {
            a: Some(PackTag {
                id: u64::MAX - 10,
                version: 1,
                offset: 0,
                mask_sig: 0,
            }),
            b: Some(PackTag {
                id: u64::MAX - 11,
                version: 1,
                offset: 0,
                mask_sig: 0,
            }),
        };
        let before = cache::stats();
        for round in 0..3 {
            let mut tagged = vec![0.0; m * n];
            gemm_ext(
                Variant::Scalar,
                1,
                Op::Ab,
                &a,
                &b,
                &mut tagged,
                m,
                k,
                n,
                false,
                tags,
            );
            assert_eq!(plain, tagged, "round {round}: cache must not change bits");
        }
        let after = cache::stats();
        assert!(after.misses >= before.misses + 2, "first round packs both");
        assert!(after.hits >= before.hits + 4, "later rounds hit both");
        // Parallel run over the cached panels: still bitwise identical.
        let mut par = vec![0.0; m * n];
        gemm_ext(
            Variant::Scalar,
            4,
            Op::Ab,
            &a,
            &b,
            &mut par,
            m,
            k,
            n,
            false,
            tags,
        );
        assert_eq!(plain, par);
    }

    #[test]
    fn tagged_masked_rows_skip_through_the_cached_panels() {
        let _guard = cache::test_lock();
        let mut rng = SmallRng::new(14);
        let (m, k, n) = (24, 64, 48);
        let mut a = rand_vec(m * k, &mut rng);
        for r in 4..12 {
            a[r * k..(r + 1) * k].fill(0.0);
        }
        let b = rand_vec(k * n, &mut rng);
        let tag = PackTag {
            id: u64::MAX - 12,
            version: 1,
            offset: 0,
            mask_sig: 0,
        };
        for round in 0..2 {
            let mut c = vec![0.0; m * n];
            gemm_ext(
                Variant::Scalar,
                1,
                Op::Ab,
                &a,
                &b,
                &mut c,
                m,
                k,
                n,
                false,
                GemmTags::a_tag(tag),
            );
            for r in 4..12 {
                assert!(
                    c[r * n..(r + 1) * n].iter().all(|&v| v == 0.0),
                    "round {round} row {r} not exactly zero via cached mask"
                );
            }
        }
    }

    #[test]
    fn selector_routes_tiny_to_direct_and_large_to_simd() {
        assert_eq!(select(2, 4, 8).variant, Variant::Direct);
        assert_eq!(select(1, 1000, 1000).variant, Variant::Direct); // skinny m
        let large = select(128, 256, 512);
        // Large shapes take the packed path (exact variant is host + env
        // dependent, but never the direct loops).
        assert_ne!(large.variant, Variant::Direct);
        assert_eq!(classify(32, 144, 576), ShapeClass::Panel);
        assert_eq!(classify(64, 1024, 256), ShapeClass::Deep);
        assert_eq!(classify(128, 256, 128), ShapeClass::Square);
    }

    #[test]
    fn selector_threads_policy() {
        // Tiny/skinny shapes are always serial.
        assert_eq!(select(2, 4, 8).threads, 1);
        assert_eq!(select(1, 1000, 1000).threads, 1);
        // Below the per-class MAC threshold: serial.
        assert_eq!(select(64, 64, 64).threads, 1);
        if std::env::var_os("HSCONAS_KERNEL_THREADS").is_some() {
            return; // pinned by the CI thread matrix; auto policy is moot
        }
        // Above the threshold the band count tracks the pool default,
        // capped so each band keeps at least MIN_BAND_ROWS rows.
        hsconas_par::set_default_threads(4);
        let sel = select(512, 512, 512);
        assert_eq!(sel.threads, 4);
        let narrow = select(64, 1024, 1024); // 67M MACs but only 64 rows
        assert_eq!(narrow.threads, 64 / MIN_BAND_ROWS);
        hsconas_par::set_default_threads(0);
    }

    #[test]
    fn env_parsers_accept_known_and_reject_unknown() {
        assert_eq!(parse_kernel_env("scalar"), Ok(Some(Variant::Scalar)));
        assert_eq!(parse_kernel_env("AVX2"), Ok(Some(Variant::Avx2)));
        assert_eq!(parse_kernel_env("direct"), Ok(Some(Variant::Direct)));
        assert_eq!(parse_kernel_env("auto"), Ok(None));
        assert_eq!(parse_kernel_env(""), Ok(None));
        assert!(parse_kernel_env("sse2").is_err());
        assert!(parse_kernel_env("fastest").is_err());

        assert_eq!(parse_threads_env("8"), Ok(Some(8)));
        assert_eq!(parse_threads_env(" 2 "), Ok(Some(2)));
        assert_eq!(parse_threads_env("0"), Ok(None));
        assert_eq!(parse_threads_env("auto"), Ok(None));
        assert_eq!(parse_threads_env(""), Ok(None));
        assert!(parse_threads_env("-1").is_err());
        assert!(parse_threads_env("many").is_err());
        assert!(parse_threads_env("8x").is_err());
    }

    #[test]
    fn dispatch_counters_attribute_calls() {
        let before = dispatch_counts();
        let pbefore = parallel_counts();
        let a = vec![1.0; 64 * 64];
        let b = vec![1.0; 64 * 64];
        let mut c = vec![0.0; 64 * 64];
        gemm_with(Variant::Scalar, Op::Ab, &a, &b, &mut c, 64, 64, 64, false);
        gemm_with(Variant::Direct, Op::Ab, &a, &b, &mut c, 64, 64, 64, false);
        gemm_with_threads(
            Variant::Scalar,
            4,
            Op::Ab,
            &a,
            &b,
            &mut c,
            64,
            64,
            64,
            false,
        );
        let after = dispatch_counts();
        let pafter = parallel_counts();
        assert!(after.scalar > before.scalar);
        assert!(after.direct > before.direct);
        assert!(pafter.serial > pbefore.serial);
        assert!(pafter.parallel > pbefore.parallel);
    }

    #[test]
    fn wide_n_exercises_multiple_nc_blocks() {
        // n > NC forces the outermost jc loop around; accumulate across
        // two k blocks too (k > KC).
        check(Variant::Scalar, Op::Ab, 8, 300, 1100, 10);
        if avx2_available() {
            check(Variant::Avx2, Op::Ab, 8, 300, 1100, 11);
        }
    }
}
