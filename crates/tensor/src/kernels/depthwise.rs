//! Direct depthwise convolution kernels (`groups == c_in == c_out`), one
//! image at a time, with no im2col lowering and no GEMM dispatch.
//!
//! Lowered through im2col, a depthwise channel is a `1 × k² × cols`
//! product (forward), a `1 × cols × k²` one (weight gradient) and a
//! `k² × 1 × cols` one (input gradient). Every one of those shapes is
//! tiny or skinny, so the selector always ran them on the fixed
//! [`super::direct`] loops, whose per-element accumulation order is known.
//! These kernels reproduce that order exactly, without the staging:
//!
//! - **forward**: each output is `+0 + Σ_t w[t]·x[t]` in tap order
//!   `(ky, kx)`, one separate multiply and add per tap — the running sum
//!   the direct `W·col` loop keeps within one `KC` block (`k² ≤ 256`);
//! - **input gradient**: `dIn += w[t]·dOut` in (tap, position) order, which
//!   is `Wᵀ·dOut` followed by `col2im`;
//! - **weight gradient**: `dW[t] += dOut · col_t` with the direct
//!   `dOut·colᵀ` product's eight-lane dot order: position `p` of each full
//!   eight-element chunk goes to lane `p mod 8`, the lanes are reduced,
//!   then the tail positions are added in order.
//!
//! Each image's planes are copied position-major (channels innermost), so
//! every inner loop is a contiguous multiply-add across channels. Taps
//! run outermost, and each tap's valid output window is computed
//! analytically once per image instead of reading padded zeros. The old
//! route added `w·0` at every padded tap; a `±0` added to an accumulator
//! that starts at `+0` changes nothing, so dropping the padded taps is
//! exact for finite operands. The forward also drops masked (all-zero
//! weight) channels outright: a scaled-down candidate pays only for its
//! live channels, and their outputs stay bitwise `+0.0`.

use std::sync::OnceLock;

use hsconas_telemetry::Counter;

use super::direct::{reduce_lanes, LANES};
use crate::im2col::ConvGeom;
use crate::scratch::with_scratch;

/// The `kernel.dispatch.depthwise` registry cell: one count per depthwise
/// convolution call (forward or backward), not per image or plane.
pub(crate) fn counter() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    CELL.get_or_init(|| Counter::register("kernel.dispatch.depthwise"))
}

/// Output indices `[lo, hi)` along one axis whose input index
/// `o·stride + t − pad` lands inside `[0, in_len)` for kernel offset `t`.
fn tap_span(t: usize, out_len: usize, in_len: usize, stride: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = if in_len + pad > t {
        ((in_len + pad - t - 1) / stride + 1).min(out_len)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// A kernel tap that reaches at least one output: its index in the
/// channel's `k²` weights, the size of its valid output window, the plane
/// offsets of the window's first output and of that output's input, and
/// the window's steps (output row, input row, input column).
struct Tap {
    t: usize,
    rows: usize,
    cols: usize,
    out0: usize,
    in0: usize,
    out_row: usize,
    in_row: usize,
    in_col: usize,
}

impl Tap {
    /// `(output index, input index)` of every position of the window, in
    /// ascending output order.
    fn window(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (o, i) = (self.out0 + r * self.out_row, self.in0 + r * self.in_row);
            (0..self.cols).map(move |col| (o + col, i + col * self.in_col))
        })
    }
}

/// The taps of `geom` that reach an output, in tap order `(ky, kx)`.
fn taps(geom: &ConvGeom) -> impl Iterator<Item = Tap> + '_ {
    let (k, s, pad) = (geom.kernel, geom.stride, geom.pad);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    (0..k).flat_map(move |ky| {
        let (oy_lo, oy_hi) = tap_span(ky, oh, geom.in_h, s, pad);
        (0..k).filter_map(move |kx| {
            let (ox_lo, ox_hi) = tap_span(kx, ow, geom.in_w, s, pad);
            (oy_lo < oy_hi && ox_lo < ox_hi).then(|| Tap {
                t: ky * k + kx,
                rows: oy_hi - oy_lo,
                cols: ox_hi - ox_lo,
                out0: oy_lo * ow + ox_lo,
                in0: (oy_lo * s + ky - pad) * geom.in_w + ox_lo * s + kx - pad,
                out_row: ow,
                in_row: s * geom.in_w,
                in_col: s,
            })
        })
    })
}

/// Copies channel planes `src` (`channels × plane`) into position-major
/// rows of width `n` in `dst`: element `q` of channel `c` lands at
/// `dst[q·n + j]`, where `j` is `c`'s rank among the channels `keep`
/// selects.
fn to_rows(src: &[f32], plane: usize, n: usize, dst: &mut [f32], keep: impl Fn(usize) -> bool) {
    let kept = (0..src.len() / plane.max(1)).filter(|&c| keep(c));
    for (j, c) in kept.enumerate() {
        for (q, &v) in src[c * plane..(c + 1) * plane].iter().enumerate() {
            dst[q * n + j] = v;
        }
    }
}

/// The inverse of [`to_rows`]: writes each kept channel's plane back.
fn from_rows(src: &[f32], plane: usize, n: usize, dst: &mut [f32], keep: impl Fn(usize) -> bool) {
    let kept = (0..dst.len() / plane.max(1)).filter(|&c| keep(c));
    for (j, c) in kept.enumerate() {
        for (q, d) in dst[c * plane..(c + 1) * plane].iter_mut().enumerate() {
            *d = src[q * n + j];
        }
    }
}

/// `acc[j] += a[j] · b[j]` across one position's channels.
#[inline]
fn mul_add(acc: &mut [f32], a: &[f32], b: &[f32]) {
    for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *o += x * y;
    }
}

/// One convolution call's weights, gathered once for all of its images:
/// each tap's weights across the kept channels, contiguous. The buffer
/// comes from the calling thread's arena and returns to it on drop.
pub(crate) struct Weights {
    /// `[kept | rows]`: `kept[c]` is `1.0` for a kept channel and `0.0`
    /// for a dropped one; `rows[t·n + j]` is tap `t` of kept channel `j`.
    buf: Vec<f32>,
    channels: usize,
    n: usize,
}

impl Weights {
    /// Gathers `w` (`k2` weights per channel). With `live_only`, the
    /// all-zero (masked) channels are dropped.
    pub(crate) fn gather(w: &[f32], k2: usize, live_only: bool) -> Weights {
        let channels = w.len() / k2;
        let mut buf = crate::arena::take_buffer(channels + w.len());
        buf.extend(w.chunks_exact(k2).map(|w_c| {
            if !live_only || w_c.iter().any(|&v| v != 0.0) {
                1.0
            } else {
                0.0
            }
        }));
        let n = buf.iter().filter(|&&k| k != 0.0).count();
        buf.resize(channels + k2 * n, 0.0);
        let (kept, rows) = buf.split_at_mut(channels);
        to_rows(w, k2, n, rows, |c| kept[c] != 0.0);
        Weights { buf, channels, n }
    }

    fn kept(&self, c: usize) -> bool {
        self.buf[c] != 0.0
    }

    /// Tap `t`'s weights across the kept channels.
    fn tap(&self, t: usize) -> &[f32] {
        &self.buf[self.channels + t * self.n..self.channels + (t + 1) * self.n]
    }
}

impl Drop for Weights {
    fn drop(&mut self) {
        crate::arena::recycle(std::mem::take(&mut self.buf));
    }
}

/// The convolution of one image: `x` holds its input planes and `out` its
/// zeroed output planes, of which only the kept channels' are written.
///
/// The kept channels are gathered position-major so the inner loop runs
/// across channels; dropped (masked) channels cost nothing.
pub(crate) fn forward_image(x: &[f32], w: &Weights, out: &mut [f32], geom: &ConvGeom) {
    let (in_plane, out_plane) = (geom.in_h * geom.in_w, geom.out_h() * geom.out_w());
    let n = w.n;
    if n == 0 {
        return;
    }
    with_scratch((in_plane + out_plane) * n, |buf| {
        let (xs, acc) = buf.split_at_mut(in_plane * n);
        to_rows(x, in_plane, n, xs, |c| w.kept(c));
        for tap in taps(geom) {
            let wt = w.tap(tap.t);
            for (p, q) in tap.window() {
                mul_add(&mut acc[p * n..(p + 1) * n], wt, &xs[q * n..(q + 1) * n]);
            }
        }
        from_rows(acc, out_plane, n, out, |c| w.kept(c));
    });
}

/// Both gradients of one image, with every channel kept in `w`: `din`
/// (its zeroed input-gradient planes) receives `Wᵀ·dout` scattered back by
/// `col2im`, and `gw` (`k²` weights per channel) accumulates
/// `dout · colᵀ`, reading each tap's im2col row straight from the input.
pub(crate) fn backward_image(
    x: &[f32],
    dout: &[f32],
    w: &Weights,
    din: &mut [f32],
    gw: &mut [f32],
    geom: &ConvGeom,
) {
    let (in_plane, out_plane) = (geom.in_h * geom.in_w, geom.out_h() * geom.out_w());
    let (n, k2) = (w.n, geom.kernel * geom.kernel);
    // Positions below `chunked` fill the eight lanes; the rest are the tail.
    let chunked = out_plane - out_plane % LANES;
    let all = |_: usize| true;
    with_scratch((2 * in_plane + out_plane + k2 + LANES) * n, |buf| {
        let (xs, rest) = buf.split_at_mut(in_plane * n);
        let (ds, rest) = rest.split_at_mut(out_plane * n);
        let (dxs, rest) = rest.split_at_mut(in_plane * n);
        let (gws, lanes) = rest.split_at_mut(k2 * n);
        to_rows(x, in_plane, n, xs, all);
        to_rows(dout, out_plane, n, ds, all);
        for tap in taps(geom) {
            let wt = w.tap(tap.t);
            let gt = &mut gws[tap.t * n..(tap.t + 1) * n];
            lanes.fill(0.0);
            let mut reduced = false;
            for (p, q) in tap.window() {
                let d = &ds[p * n..(p + 1) * n];
                mul_add(&mut dxs[q * n..(q + 1) * n], wt, d);
                let xq = &xs[q * n..(q + 1) * n];
                if p < chunked {
                    let l = p % LANES;
                    mul_add(&mut lanes[l * n..(l + 1) * n], d, xq);
                    continue;
                }
                if !reduced {
                    reduce_into(gt, lanes, n);
                    reduced = true;
                }
                mul_add(gt, d, xq);
            }
            if !reduced {
                reduce_into(gt, lanes, n);
            }
        }
        from_rows(dxs, in_plane, n, din, all);
        for (c, g) in gw.chunks_exact_mut(k2).enumerate() {
            for (t, v) in g.iter_mut().enumerate() {
                *v += gws[t * n + c];
            }
        }
    });
}

/// `dst[j] = reduce_lanes(lanes[·][j])` for each of the `n` channels.
fn reduce_into(dst: &mut [f32], lanes: &[f32], n: usize) {
    for (j, d) in dst.iter_mut().enumerate() {
        let column: [f32; LANES] = std::array::from_fn(|l| lanes[l * n + j]);
        *d = reduce_lanes(&column);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_span_matches_bounds_check() {
        for in_len in 1usize..10 {
            for k in [1, 3, 5, 7] {
                for stride in [1, 2, 3] {
                    for pad in 0..=k {
                        let out_len = (in_len + 2 * pad).saturating_sub(k) / stride + 1;
                        for t in 0..k {
                            let valid: Vec<usize> = (0..out_len)
                                .filter(|&o| {
                                    let i = (o * stride + t) as isize - pad as isize;
                                    i >= 0 && i < in_len as isize
                                })
                                .collect();
                            let (lo, hi) = tap_span(t, out_len, in_len, stride, pad);
                            assert_eq!(
                                (lo..hi).collect::<Vec<_>>(),
                                valid,
                                "in {in_len} k {k} s {stride} pad {pad} t {t}"
                            );
                        }
                    }
                }
            }
        }
    }
}
