//! Differential tests for the GEMM kernel layer (DESIGN.md §11).
//!
//! Every kernel variant (`direct`, packed `scalar`, packed `avx2` where the
//! host supports it) must agree with an f64 naive reference — and with each
//! other — within the documented tolerance contract for all three operand
//! layouts, with and without accumulation, across randomly drawn shapes
//! that include the degenerate cases around the microkernel tile sizes
//! (`m/k/n ∈ {0, 1, MR±1, NR±1}`) and all-zero masked row panels.
//!
//! Within a single variant the contract is stronger: repeat calls must be
//! bit-identical (fixed blocking ⇒ fixed accumulation order).

use hsconas_tensor::kernels::{gemm_ext, GemmTags, Op, Variant};
use hsconas_tensor::rng::SmallRng;
use proptest::prelude::*;

/// Shape values concentrated on the microkernel edges: 0, 1, MR±1 for both
/// tile heights (4-row scalar, 6-row AVX2), NR±1 for both tile widths
/// (8-col scalar, 16-col AVX2), plus interior and large values.
const EDGES: [usize; 12] = [0, 1, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17];

fn dim() -> impl Strategy<Value = usize> {
    (0u64..10, 0usize..EDGES.len(), 18usize..160).prop_map(|(bucket, e, interior)| {
        if bucket < 6 {
            EDGES[e]
        } else {
            interior
        }
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop::sample::select(vec![Op::Ab, Op::AtB, Op::ABt])
}

/// Operand lengths for each layout (mirrors `Op::a_len`/`b_len`).
fn lens(op: Op, m: usize, k: usize, n: usize) -> (usize, usize) {
    match op {
        Op::Ab => (m * k, k * n),
        Op::AtB => (k * m, k * n),
        Op::ABt => (m * k, n * k),
    }
}

/// f64 naive reference for all three layouts.
fn naive(op: Op, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                let av = match op {
                    Op::Ab | Op::ABt => a[i * k + p],
                    Op::AtB => a[p * m + i],
                };
                let bv = match op {
                    Op::Ab | Op::AtB => b[p * n + j],
                    Op::ABt => b[j * k + p],
                };
                acc += f64::from(av) * f64::from(bv);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Tolerance contract from DESIGN.md §11: relative to magnitude, scaled by
/// accumulation depth (FMA vs mul+add round differently along k).
fn tol(reference: f64, k: usize) -> f64 {
    1e-4 * (1.0 + reference.abs()) * (1.0 + k as f64 / 256.0)
}

fn variants() -> Vec<Variant> {
    let mut v = vec![Variant::Direct, Variant::Scalar];
    if Variant::Avx2.is_available() {
        v.push(Variant::Avx2);
    }
    v
}

/// Fill `a`/`b` with pseudorandom values, then zero whole rows of the
/// logical `a` matrix according to `mask_seed` (mimicking supernet channel
/// masks, which zero trailing output-channel rows).
fn make_inputs(
    op: Op,
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
    mask_rows: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (al, bl) = lens(op, m, k, n);
    let mut rng = SmallRng::new(seed);
    let mut a: Vec<f32> = (0..al).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    let b: Vec<f32> = (0..bl).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    // Zero the *last* `mask_rows` logical rows of a (rows index m).
    let start = m.saturating_sub(mask_rows);
    for i in start..m {
        for p in 0..k {
            match op {
                Op::Ab | Op::ABt => a[i * k + p] = 0.0,
                Op::AtB => a[p * m + i] = 0.0,
            }
        }
    }
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every available variant matches the f64 naive reference within the
    /// tolerance contract, for random shapes (including degenerate ones),
    /// all three layouts, and both accumulate modes.
    #[test]
    fn variants_match_naive_reference(
        m in dim(),
        k in dim(),
        n in dim(),
        op in op(),
        accumulate in prop::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let (a, b) = make_inputs(op, m, k, n, seed, 0);
        let reference = naive(op, &a, &b, m, k, n);
        let init = if accumulate { 0.5f32 } else { -7.0 };
        for v in variants() {
            let mut c = vec![init; m * n];
            gemm_ext(v, 0, op, &a, &b, &mut c, m, k, n, accumulate, GemmTags::default());
            for (i, (&got, &want)) in c.iter().zip(&reference).enumerate() {
                let want = if accumulate { want + 0.5 } else { want };
                let err = (f64::from(got) - want).abs();
                prop_assert!(
                    err <= tol(want, k),
                    "{} {op:?} {m}x{k}x{n} acc={accumulate} c[{i}]: got {got}, want {want}",
                    v.name()
                );
            }
        }
    }

    /// All variants agree with each other (pairwise, against `direct` as
    /// the anchor) within the same tolerance.
    #[test]
    fn variants_agree_pairwise(
        m in dim(),
        k in dim(),
        n in dim(),
        op in op(),
        seed in 0u64..10_000,
    ) {
        let (a, b) = make_inputs(op, m, k, n, seed, 0);
        let mut anchor = vec![0.0f32; m * n];
        gemm_ext(Variant::Direct, 0, op, &a, &b, &mut anchor, m, k, n, false, GemmTags::default());
        for v in variants() {
            let mut c = vec![0.0f32; m * n];
            gemm_ext(v, 0, op, &a, &b, &mut c, m, k, n, false, GemmTags::default());
            for (i, (&got, &want)) in c.iter().zip(&anchor).enumerate() {
                let err = (f64::from(got) - f64::from(want)).abs();
                prop_assert!(
                    err <= tol(f64::from(want), k),
                    "{} vs direct {op:?} {m}x{k}x{n} c[{i}]: {got} vs {want}",
                    v.name()
                );
            }
        }
    }

    /// Zeroed trailing rows of `a` (supernet channel masks) produce output
    /// rows that are *exactly* zero in overwrite mode for every variant —
    /// the packed path must skip, not approximate, masked panels.
    #[test]
    fn masked_rows_stay_exactly_zero(
        m in 1usize..48,
        k in dim(),
        n in dim(),
        op in op(),
        seed in 0u64..10_000,
        mask_frac in 0usize..=4,
    ) {
        let mask_rows = m * mask_frac / 4;
        let (a, b) = make_inputs(op, m, k, n, seed, mask_rows);
        for v in variants() {
            let mut c = vec![9.0f32; m * n];
            gemm_ext(v, 0, op, &a, &b, &mut c, m, k, n, false, GemmTags::default());
            for i in (m - mask_rows)..m {
                for j in 0..n {
                    prop_assert_eq!(
                        c[i * n + j], 0.0,
                        "{} {:?} {}x{}x{} masked row {} col {} nonzero",
                        v.name(), op, m, k, n, i, j
                    );
                }
            }
        }
    }

    /// Repeat calls with the same variant are bit-identical: for a fixed
    /// kernel the accumulation order is a pure function of (op, m, k, n).
    #[test]
    fn repeat_calls_bit_identical(
        m in dim(),
        k in dim(),
        n in dim(),
        op in op(),
        seed in 0u64..10_000,
    ) {
        let (a, b) = make_inputs(op, m, k, n, seed, 0);
        for v in variants() {
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            gemm_ext(v, 0, op, &a, &b, &mut c1, m, k, n, false, GemmTags::default());
            gemm_ext(v, 0, op, &a, &b, &mut c2, m, k, n, false, GemmTags::default());
            let b1: Vec<u32> = c1.iter().map(|x| x.to_bits()).collect();
            let b2: Vec<u32> = c2.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(b1, b2, "{} {:?} {}x{}x{} not bit-identical", v.name(), op, m, k, n);
        }
    }
}

/// An all-zero `a` operand yields an exactly-zero product for every variant
/// (the packed path skips every panel; direct multiplies through) — and in
/// accumulate mode leaves `c` untouched bitwise.
#[test]
fn all_zero_a_is_exact() {
    let (m, k, n) = (24, 96, 40);
    let mut rng = SmallRng::new(11);
    let a = vec![0.0f32; m * k];
    let b: Vec<f32> = (0..k * n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    for v in variants() {
        let mut c = vec![3.25f32; m * n];
        gemm_ext(
            v,
            0,
            Op::Ab,
            &a,
            &b,
            &mut c,
            m,
            k,
            n,
            true,
            GemmTags::default(),
        );
        assert!(c.iter().all(|&x| x == 3.25), "{} polluted c", v.name());
        gemm_ext(
            v,
            0,
            Op::Ab,
            &a,
            &b,
            &mut c,
            m,
            k,
            n,
            false,
            GemmTags::default(),
        );
        assert!(c.iter().all(|&x| x == 0.0), "{} nonzero product", v.name());
    }
}

/// Band-parallel execution is bit-identical to serial for every packed
/// variant and layout: row bands are `MR`-aligned, each output element is
/// owned by exactly one worker, and its accumulation order is unchanged by
/// the split. CI runs this whole binary at `HSCONAS_KERNEL_THREADS` 1 and
/// 8 on top, so the auto path is pinned too.
#[test]
fn thread_counts_are_bit_identical() {
    let (m, k, n) = (130, 96, 257);
    for op in [Op::Ab, Op::AtB, Op::ABt] {
        let (a, b) = make_inputs(op, m, k, n, 31, 0);
        for v in variants() {
            if v == Variant::Direct {
                continue; // the direct loops never fork
            }
            let mut serial = vec![0.25f32; m * n];
            gemm_ext(
                v,
                1,
                op,
                &a,
                &b,
                &mut serial,
                m,
                k,
                n,
                true,
                GemmTags::default(),
            );
            for threads in [2, 3, 8] {
                let mut par = vec![0.25f32; m * n];
                gemm_ext(
                    v,
                    threads,
                    op,
                    &a,
                    &b,
                    &mut par,
                    m,
                    k,
                    n,
                    true,
                    GemmTags::default(),
                );
                let sb: Vec<u32> = serial.iter().map(|x| x.to_bits()).collect();
                let pb: Vec<u32> = par.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    sb,
                    pb,
                    "{} {op:?} threads={threads} diverged from serial",
                    v.name()
                );
            }
        }
    }
}

/// Tagged operands served from the persistent pack cache are bitwise the
/// same as per-call packing — across repeat calls (hits), and after the
/// operand mutates (a new version, as every `Tensor` mutator produces,
/// must drop the stale panels rather than serve them).
#[test]
fn pack_cache_round_trip_is_bit_identical_and_invalidates() {
    use hsconas_tensor::kernels::cache::{self, PackTag};

    let (m, k, n) = (96, 64, 200);
    let (mut a, b) = make_inputs(Op::Ab, m, k, n, 57, 0);
    // Synthetic id far above anything the monotonic tensor-id counter
    // reaches, so this test cannot collide with real tensors.
    let tag = |version: u64| PackTag {
        id: u64::MAX - 40,
        version,
        offset: 0,
        mask_sig: 0,
    };
    let untagged = |a: &[f32], b: &[f32]| -> Vec<u32> {
        let mut c = vec![0.0f32; m * n];
        #[rustfmt::skip]
        gemm_ext(Variant::Scalar, 1, Op::Ab, a, b, &mut c, m, k, n, false, GemmTags::default());
        c.iter().map(|x| x.to_bits()).collect()
    };

    let want = untagged(&a, &b);
    for round in 0..3 {
        let mut c = vec![0.0f32; m * n];
        #[rustfmt::skip]
        gemm_ext(Variant::Scalar, 1, Op::Ab, &a, &b, &mut c, m, k, n, false, GemmTags::a_tag(tag(1)));
        let got: Vec<u32> = c.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            want, got,
            "cached round {round} diverged from per-call packing"
        );
    }

    let before = cache::stats();
    for v in a.iter_mut() {
        *v = -*v;
    }
    let want2 = untagged(&a, &b);
    let mut c = vec![0.0f32; m * n];
    #[rustfmt::skip]
    gemm_ext(Variant::Scalar, 1, Op::Ab, &a, &b, &mut c, m, k, n, false, GemmTags::a_tag(tag(2)));
    let got: Vec<u32> = c.iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        want2, got,
        "stale cached panels served after operand mutation"
    );
    let after = cache::stats();
    assert!(
        after.invalidations > before.invalidations,
        "version bump did not record an invalidation"
    );
}

/// The suite is meaningful only if it actually exercises the SIMD path on
/// hosts that have it; surface which variants ran (visible with
/// `--nocapture`, and keeps CI logs honest about coverage).
#[test]
fn report_tested_variants() {
    let names: Vec<&str> = variants().iter().map(|v| v.name()).collect();
    eprintln!("kernel_differential: testing variants {names:?}");
    assert!(names.contains(&"scalar"));
}
