//! Dense single-precision matrix multiplication entry points.
//!
//! Matrices are plain row-major `&[f32]` slices with explicit dimensions;
//! the convolution kernels in [`crate::conv`] lower onto these via im2col.
//!
//! Since PR 6 these functions are façades over the runtime-dispatched
//! kernel layer in [`crate::kernels`]: each call is classified by shape
//! and routed to the AVX2+FMA packed microkernel, the portable scalar
//! packed kernel, or the legacy direct register-tiled loops for shapes too
//! small to amortize packing. The supernet channel-mask zero-skip is
//! preserved at packed-panel granularity — all-zero `MR`-row panels of `a`
//! are detected during packing and skipped before any arithmetic. Set
//! `HSCONAS_KERNEL=scalar|avx2|direct` to pin the variant and
//! `HSCONAS_KERNEL_THREADS` to pin the band worker count for A/B runs.
//!
//! The `_tagged` variants additionally carry [`GemmTags`] naming which
//! operand is a long-lived weight (via [`crate::Tensor::pack_tag`]); those
//! operands read their packed panels from the persistent weight cache
//! ([`crate::kernels::cache`]) instead of repacking per call. Results are
//! bit-identical with tags present or absent.

use crate::kernels::{gemm, gemm_tagged, GemmTags, Op};

/// `c = a (m×k) · b (k×n)`, overwriting `c` (m×n).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul: a has wrong length");
    assert_eq!(b.len(), k * n, "matmul: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul: c has wrong length");
    gemm(Op::Ab, a, b, c, m, k, n, false);
}

/// `c += a (m×k) · b (k×n)`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_accumulate(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul: a has wrong length");
    assert_eq!(b.len(), k * n, "matmul: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul: c has wrong length");
    gemm(Op::Ab, a, b, c, m, k, n, true);
}

/// [`matmul_accumulate`] with operand cache tags (e.g. the conv forward's
/// weight operand `a`, or the linear backward's weight operand `b`).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_accumulate_tagged(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    tags: GemmTags,
) {
    assert_eq!(a.len(), m * k, "matmul: a has wrong length");
    assert_eq!(b.len(), k * n, "matmul: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul: c has wrong length");
    gemm_tagged(Op::Ab, a, b, c, m, k, n, true, tags);
}

/// `c += aᵀ (k×m, given as m×k) · b (k×n)` — the conv input gradient
/// `Wᵀ·dOut` and the `Linear` weight gradient `dyᵀ·x`.
///
/// `a` is stored row-major with shape `(k, m)`; conceptually we compute
/// `a_transposed · b` where `a_transposed` is `(m, k)`. The kernel layer
/// absorbs the transpose into panel packing, so the inner loops still run
/// at unit stride.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_at_b: a has wrong length");
    assert_eq!(b.len(), k * n, "matmul_at_b: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul_at_b: c has wrong length");
    gemm(Op::AtB, a, b, c, m, k, n, true);
}

/// [`matmul_at_b`] with operand cache tags (the conv backward's `Wᵀ·dOut`
/// product tags the weight operand `a`; its transposed panels — the
/// "At-panels" — cache separately from the forward's).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_at_b_tagged(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    tags: GemmTags,
) {
    assert_eq!(a.len(), k * m, "matmul_at_b: a has wrong length");
    assert_eq!(b.len(), k * n, "matmul_at_b: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul_at_b: c has wrong length");
    gemm_tagged(Op::AtB, a, b, c, m, k, n, true, tags);
}

/// `c += a (m×k) · bᵀ (n×k, given row-major)` — the conv weight gradient
/// `dOut·colᵀ` and the `Linear` forward `x·Wᵀ`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_a_bt: a has wrong length");
    assert_eq!(b.len(), n * k, "matmul_a_bt: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul_a_bt: c has wrong length");
    gemm(Op::ABt, a, b, c, m, k, n, true);
}

/// [`matmul_a_bt`] with operand cache tags (the linear forward's `x·Wᵀ`
/// product tags the weight operand `b`).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_a_bt_tagged(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    tags: GemmTags,
) {
    assert_eq!(a.len(), m * k, "matmul_a_bt: a has wrong length");
    assert_eq!(b.len(), n * k, "matmul_a_bt: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul_a_bt: c has wrong length");
    gemm_tagged(Op::ABt, a, b, c, m, k, n, true, tags);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn rand_vec(len: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..len).map(|_| rng.next_normal() as f32).collect()
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = SmallRng::new(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8), (13, 1, 17)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(&a, &b, &mut c, m, k, n);
            let want = naive(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_matches_naive_across_tile_boundaries() {
        // Sizes straddling the MR/NR/KC tile edges, including k > KC so
        // multiple k-blocks accumulate into the same c tile.
        let mut rng = SmallRng::new(7);
        for &(m, k, n) in &[
            (4, 8, 8),
            (5, 9, 9),
            (3, 300, 7),
            (6, 257, 24),
            (9, 511, 17),
            (12, 256, 8),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(&a, &b, &mut c, m, k, n);
            let want = naive(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                let tol = 1e-3 * (1.0 + y.abs());
                assert!((x - y).abs() < tol, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_accumulate_adds() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        matmul_accumulate(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn zeroed_rows_do_not_contaminate() {
        // Masked-channel pattern: whole rows of `a` zero; the panel-level
        // zero-skip must leave exactly the nonzero rows' products.
        let mut rng = SmallRng::new(8);
        let (m, k, n) = (10, 40, 12);
        let mut a = rand_vec(m * k, &mut rng);
        for r in [1usize, 4, 5, 6, 7, 9] {
            a[r * k..(r + 1) * k].fill(0.0);
        }
        let b = rand_vec(k * n, &mut rng);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for r in [1usize, 4, 5, 6, 7, 9] {
            assert!(c[r * n..(r + 1) * n].iter().all(|&v| v == 0.0));
        }
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn at_b_matches_transposed_naive() {
        let mut rng = SmallRng::new(2);
        for &(k, m, n) in &[(6, 4, 5), (300, 9, 17), (257, 4, 8), (64, 13, 31)] {
            let a = rand_vec(k * m, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul_at_b(&a, &b, &mut c, k, m, n);
            // transpose a into (m, k) and multiply
            let mut at = vec![0.0; m * k];
            for kk in 0..k {
                for i in 0..m {
                    at[i * k + kk] = a[kk * m + i];
                }
            }
            let want = naive(&at, &b, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                let tol = 1e-3 * (1.0 + y.abs());
                assert!((x - y).abs() < tol, "({k},{m},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn a_bt_matches_transposed_naive() {
        let mut rng = SmallRng::new(3);
        for &(m, k, n) in &[(4, 6, 5), (7, 300, 9), (5, 64, 16), (1, 23, 1)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(n * k, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul_a_bt(&a, &b, &mut c, m, k, n);
            let mut bt = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    bt[kk * n + j] = b[j * k + kk];
                }
            }
            let want = naive(&a, &bt, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                let tol = 1e-3 * (1.0 + y.abs());
                assert!((x - y).abs() < tol, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        // Same inputs must give bit-identical outputs on repeated calls
        // (the determinism regression suite relies on this).
        let mut rng = SmallRng::new(4);
        let (m, k, n) = (11, 270, 19);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        matmul(&a, &b, &mut c1, m, k, n);
        matmul(&a, &b, &mut c2, m, k, n);
        assert_eq!(c1, c2);
    }

    #[test]
    fn overwrite_equals_accumulate_onto_zeroed_c() {
        // `matmul` must be bit-identical to `matmul_accumulate` on a
        // zeroed output — same kernel, same accumulation order.
        let mut rng = SmallRng::new(12);
        let (m, k, n) = (40, 100, 96);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        matmul(&a, &b, &mut c1, m, k, n);
        let mut c2 = vec![0.0; m * n];
        matmul_accumulate(&a, &b, &mut c2, m, k, n);
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_dims_panic() {
        let mut c = vec![0.0; 4];
        matmul(&[1.0; 3], &[1.0; 4], &mut c, 2, 2, 2);
    }
}
