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
//! Semantics are accumulate-only (`c += …`); the entry points in
//! [`crate::kernels`] zero `c` first when overwrite semantics are wanted.

use crate::scratch::with_scratch;

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
    if k < LANES {
        matmul_a_bt_short(a, b, c, m, k, n);
        return;
    }
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

/// [`matmul_a_bt`] for `k < LANES`, where every [`dot_lanes`] call is all
/// tail: `c[i][j] += ((+0 + a[i][0]·b[j][0]) + a[i][1]·b[j][1]) + …` in
/// `k` order, one output per call. The same sequence run across `j` over
/// a transposed copy of `b` gives the same bits, `n` outputs per
/// multiply-add. All-zero rows of `a` are skipped, as there.
fn matmul_a_bt_short(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    if k == 0 {
        return;
    }
    with_scratch((k + 1) * n, |buf| {
        let (bt, acc) = buf.split_at_mut(k * n);
        for (j, b_row) in b[..n * k].chunks_exact(k).enumerate() {
            for (l, &v) in b_row.iter().enumerate() {
                bt[l * n + j] = v;
            }
        }
        for (a_row, c_row) in a[..m * k].chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            if a_row.iter().all(|&v| v == 0.0) {
                continue;
            }
            acc.fill(0.0);
            for (&av, bt_row) in a_row.iter().zip(bt.chunks_exact(n)) {
                for (s, &bv) in acc.iter_mut().zip(bt_row) {
                    *s += av * bv;
                }
            }
            for (cv, &s) in c_row.iter_mut().zip(acc.iter()) {
                *cv += s;
            }
        }
    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    /// The one-dot-per-output loop [`matmul_a_bt`] runs for every `k`,
    /// kept as the reference for its `k < LANES` route.
    fn a_bt_by_dot_lanes(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            if a_row.iter().all(|&v| v == 0.0) {
                continue;
            }
            for (j, cv) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
                *cv += dot_lanes(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    #[test]
    fn short_a_bt_matches_dot_lanes_bit_for_bit() {
        let mut rng = SmallRng::new(7);
        let mut normal = || rng.next_normal() as f32;
        for k in 1..=LANES + 1 {
            for (m, n) in [(1, 1), (3, 5), (64, 128), (5, 17)] {
                let mut a: Vec<f32> = (0..m * k).map(|_| normal()).collect();
                let mut b: Vec<f32> = (0..n * k).map(|_| normal()).collect();
                let mut c: Vec<f32> = (0..m * n).map(|_| normal()).collect();
                // An all-zero row of `a` (one zero negative), signed-zero
                // products, and a column of `c` holding negative zeros.
                a[..k].fill(0.0);
                a[0] = -0.0;
                if m > 1 {
                    a[k] = -0.0;
                    a[k + k - 1] = 0.0;
                }
                b[0] = -0.0;
                b[n * k - 1] = 0.0;
                for row in c.chunks_exact_mut(n) {
                    row[0] = -0.0;
                }
                let mut want = c.clone();
                a_bt_by_dot_lanes(&a, &b, &mut want, m, k, n);
                matmul_a_bt(&a, &b, &mut c, m, k, n);
                for (i, (got, want)) in c.iter().zip(&want).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "k{k} m{m} n{n} [{i}]");
                }
            }
        }
    }
}
