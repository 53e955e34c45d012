//! Legacy unpacked register-tiled kernels (the PR 1 implementation),
//! preserved bit-for-bit as the *direct* path.
//!
//! The [`crate::kernels`] selector routes tiny and skinny problems here:
//! below the packing threshold the `O(m·k + k·n)` panel copies of the
//! packed path cost more than they save, and these loops already keep a
//! `4×8` accumulator block in registers with a contiguous inner loop that
//! LLVM autovectorizes. They are also the historical reference the
//! differential suite pins the packed kernels against.
//!
//! Semantics are accumulate-only (`c += …`); the public wrappers in
//! [`crate::matmul`] zero `c` first when overwrite semantics are wanted.

/// Rows of the register tile (rows of `a` per microkernel call).
const MR: usize = 4;
/// Columns of the register tile (columns of `c` per microkernel call).
pub(crate) const NR: usize = 8;
/// Cache block along the shared `k` dimension; 256 rows of `b` at NR
/// lanes stay resident in L1/L2 alongside the `a` panel.
pub(crate) const KC: usize = 256;

/// `c += a (m×k) · b (k×n)`, both row-major, no packing.
pub(crate) fn matmul_accumulate(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        let mut ib = 0;
        while ib < m {
            let mr = MR.min(m - ib);
            // Zero-skip at panel granularity: masked channels zero whole
            // rows of `a`, so this prunes their entire k-block.
            let panel_zero = (0..mr).all(|r| {
                a[(ib + r) * k + kb..(ib + r) * k + kb + kc]
                    .iter()
                    .all(|&v| v == 0.0)
            });
            if !panel_zero {
                panel_ab(a, b, c, k, n, ib, mr, kb, kc);
            }
            ib += MR;
        }
        kb += KC;
    }
}

/// Microkernel driver for one `mr x kc` panel of `a` against all of `b`'s
/// columns: tiles `n` by `NR` and keeps the `mr x NR` accumulator block in
/// registers across the `kc`-deep inner loop.
#[inline]
#[allow(clippy::too_many_arguments)]
fn panel_ab(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    ib: usize,
    mr: usize,
    kb: usize,
    kc: usize,
) {
    let mut jb = 0;
    while jb + NR <= n {
        if mr == MR {
            // Full 4x8 register tile, fixed-width loops throughout.
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..kc {
                let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + NR];
                for r in 0..MR {
                    let av = a[(ib + r) * k + kb + kk];
                    for (jj, &bv) in b_row.iter().enumerate() {
                        acc[r][jj] += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + jb + NR];
                for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            }
        } else {
            for r in 0..mr {
                let mut acc = [0.0f32; NR];
                for kk in 0..kc {
                    let av = a[(ib + r) * k + kb + kk];
                    let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + NR];
                    for (jj, &bv) in b_row.iter().enumerate() {
                        acc[jj] += av * bv;
                    }
                }
                let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + jb + NR];
                for (cv, &av) in c_row.iter_mut().zip(&acc) {
                    *cv += av;
                }
            }
        }
        jb += NR;
    }
    if jb < n {
        // Remainder columns: plain i-k-j with the panel's k-block.
        for r in 0..mr {
            let a_row = &a[(ib + r) * k + kb..(ib + r) * k + kb + kc];
            let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// `c += aᵀ · b` with `a` stored row-major `(k, m)`.
pub(crate) fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        let mut ib = 0;
        while ib < m {
            let mr = MR.min(m - ib);
            // `a` is (k, m): column ib+r of the block, strided by m.
            let panel_zero = (0..mr).all(|r| (0..kc).all(|kk| a[(kb + kk) * m + ib + r] == 0.0));
            if !panel_zero {
                panel_atb(a, b, c, m, n, ib, mr, kb, kc);
            }
            ib += MR;
        }
        kb += KC;
    }
}

/// Microkernel driver for [`matmul_at_b`]: identical tiling to
/// [`panel_ab`], with the `a` operand read column-wise (stride `m`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn panel_atb(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    ib: usize,
    mr: usize,
    kb: usize,
    kc: usize,
) {
    let mut jb = 0;
    while jb + NR <= n {
        if mr == MR {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..kc {
                let a_row = &a[(kb + kk) * m + ib..(kb + kk) * m + ib + MR];
                let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + NR];
                for (r, &av) in a_row.iter().enumerate() {
                    for (jj, &bv) in b_row.iter().enumerate() {
                        acc[r][jj] += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + jb + NR];
                for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            }
        } else {
            for r in 0..mr {
                let mut acc = [0.0f32; NR];
                for kk in 0..kc {
                    let av = a[(kb + kk) * m + ib + r];
                    let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + jb + NR];
                    for (jj, &bv) in b_row.iter().enumerate() {
                        acc[jj] += av * bv;
                    }
                }
                let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + jb + NR];
                for (cv, &av) in c_row.iter_mut().zip(&acc) {
                    *cv += av;
                }
            }
        }
        jb += NR;
    }
    if jb < n {
        for kk in 0..kc {
            let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + n];
            for r in 0..mr {
                let av = a[(kb + kk) * m + ib + r];
                if av == 0.0 {
                    continue;
                }
                let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// `c += a · bᵀ` with `b` stored row-major `(n, k)`.
pub(crate) fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    // Both operands are walked along `k`, so each (i, j) pair is a dot
    // product; eight independent lanes break the serial FP dependency
    // chain and autovectorize.
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        if a_row.iter().all(|&v| v == 0.0) {
            continue;
        }
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *cv += dot_lanes(a_row, b_row);
        }
    }
}

/// Accumulator lanes of [`dot_lanes`].
pub(crate) const LANES: usize = 8;

/// Dot product with eight parallel accumulator lanes: element `l` of each
/// full eight-element chunk goes to lane `l`, the lanes are reduced by
/// [`reduce_lanes`], then the tail is added in order.
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for ck in 0..chunks {
        let a_c = &a[ck * LANES..(ck + 1) * LANES];
        let b_c = &b[ck * LANES..(ck + 1) * LANES];
        for l in 0..LANES {
            lanes[l] += a_c[l] * b_c[l];
        }
    }
    let mut acc = reduce_lanes(&lanes);
    for l in chunks * LANES..a.len() {
        acc += a[l] * b[l];
    }
    acc
}

/// The lane reduction of [`dot_lanes`].
#[inline]
pub(crate) fn reduce_lanes(lanes: &[f32; LANES]) -> f32 {
    lanes.iter().sum::<f32>()
}
