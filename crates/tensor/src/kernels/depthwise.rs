//! Direct depthwise convolution kernels (`groups == c_in == c_out`), with
//! no im2col lowering and no GEMM dispatch.
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
//! A run of consecutive images is copied position-major with the lane
//! `(image, kept channel)` innermost, so every inner loop is one
//! contiguous multiply-add across all of the run's channels: at 8
//! channels a run of 8 images fills 64 lanes instead of 8. Each tap's
//! weights are repeated once per image of the run. Folding is exact:
//! every lane still sees its own image's taps and positions in the
//! per-image order, and each image's weight gradient is reduced in that
//! image's own lanes and added into `dW` in image order, which is how the
//! per-image partials were merged. A run stages at most [`RUN_BUDGET`]
//! floats, so large planes still run one image at a time, and a batch
//! loop that fans out over the pool gives each worker one image.
//!
//! Taps run outermost, and each tap's valid output window is computed
//! analytically once per run instead of reading padded zeros. The old
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

/// Scratch floats one run of folded images may stage (256 KB). A run
/// holds `RUN_BUDGET / per-image scratch` images, at least one: the tiny
/// net's widest depthwise backward stages about 5.5 K floats per image, so
/// its whole batch folds, while an ImageNet-sized plane runs alone.
const RUN_BUDGET: usize = 64 * 1024;

/// Images per run for `per_image` scratch floats each, out of `batch`.
fn run_len(per_image: usize, batch: usize) -> usize {
    (RUN_BUDGET / per_image.max(1)).clamp(1, batch.max(1))
}

/// One convolution call's weights, gathered once for all of its images:
/// each tap's weights across the kept channels, contiguous. The buffer
/// comes from the calling thread's arena and returns to it on drop.
struct Weights {
    /// `[kept | rows]`: `kept[c]` is `1.0` for a kept channel and `0.0`
    /// for a dropped one; `rows[t·n + j]` is tap `t` of kept channel `j`.
    buf: Vec<f32>,
    channels: usize,
    n: usize,
}

impl Weights {
    /// Gathers `w` (`k2` weights per channel). With `live_only`, the
    /// all-zero (masked) channels are dropped.
    fn gather(w: &[f32], k2: usize, live_only: bool) -> Weights {
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

    /// Writes every tap's weights once per image of a run into `dst`
    /// (`k²` rows of `images · n` lanes): lane `(i, j)` of row `t` holds
    /// tap `t` of kept channel `j`.
    fn repeat(&self, images: usize, dst: &mut [f32]) {
        for (t, row) in dst.chunks_exact_mut(images * self.n).enumerate() {
            for lanes in row.chunks_exact_mut(self.n) {
                lanes.copy_from_slice(self.tap(t));
            }
        }
    }
}

impl Drop for Weights {
    fn drop(&mut self) {
        crate::arena::recycle(std::mem::take(&mut self.buf));
    }
}

/// Input and output plane sizes of `geom`.
fn planes(geom: &ConvGeom) -> (usize, usize) {
    (geom.in_h * geom.in_w, geom.out_h() * geom.out_w())
}

/// Scratch floats [`forward_run`] stages per image with `n` kept channels.
fn forward_scratch(geom: &ConvGeom, n: usize) -> usize {
    let (in_plane, out_plane) = planes(geom);
    (in_plane + out_plane + geom.kernel * geom.kernel) * n
}

/// Scratch floats [`backward_run`] stages per image with `n` channels;
/// the input gradient adds its planes and the repeated weights.
fn backward_scratch(geom: &ConvGeom, n: usize, input_grad: bool) -> usize {
    let (in_plane, out_plane) = planes(geom);
    let k2 = geom.kernel * geom.kernel;
    let din = if input_grad { in_plane + k2 } else { 0 };
    (in_plane + out_plane + k2 + LANES + din) * n
}

/// Depthwise forward over a batch: `x` holds the input images, `out` their
/// zeroed outputs and `weights` `k²` taps per channel. Masked (all-zero)
/// channels are dropped and their outputs stay `+0`. With `threads == 1`
/// the batch runs inline in budget-bounded runs; otherwise each image is
/// one task on the worker pool.
pub(crate) fn forward(
    x: &[f32],
    weights: &[f32],
    out: &mut [f32],
    geom: &ConvGeom,
    threads: usize,
) {
    counter().incr();
    let w = Weights::gather(weights, geom.kernel * geom.kernel, true);
    if w.n == 0 {
        return;
    }
    let (in_plane, out_plane) = planes(geom);
    let (in_image, out_image) = (w.channels * in_plane, w.channels * out_plane);
    let run = if threads == 1 {
        run_len(forward_scratch(geom, w.n), x.len() / in_image)
    } else {
        1
    };
    let runs = x
        .chunks(run * in_image)
        .zip(out.chunks_mut(run * out_image));
    if threads == 1 {
        // Inline path: no per-call run vector, so a steady-state forward
        // stays allocation-free (the alloc-budget gate depends on this).
        for (x, out) in runs {
            forward_run(x, &w, out, geom);
        }
    } else {
        hsconas_par::par_for_each(runs.collect(), threads, |_, (x, out)| {
            forward_run(x, &w, out, geom);
        });
    }
}

/// Depthwise backward over a batch. `din`, when given, is the zeroed input
/// gradient and receives `Wᵀ·dout` scattered back by `col2im`; `gw` (`k²`
/// weights per channel) accumulates each image's `dout · colᵀ`, in image
/// order. Runs and pool fan-out follow [`forward`]; a pool worker's image
/// fills a zeroed partial that is merged in image order afterwards.
pub(crate) fn backward(
    x: &[f32],
    weights: &[f32],
    dout: &[f32],
    din: Option<&mut [f32]>,
    gw: &mut [f32],
    geom: &ConvGeom,
    threads: usize,
) {
    counter().incr();
    // Every channel is kept: masked channels still have a weight gradient.
    let w = Weights::gather(weights, geom.kernel * geom.kernel, false);
    let (in_plane, out_plane) = planes(geom);
    let (in_image, out_image) = (w.channels * in_plane, w.channels * out_plane);
    let batch = x.len() / in_image;
    let run = if threads == 1 {
        run_len(backward_scratch(geom, w.n, din.is_some()), batch)
    } else {
        1
    };
    let mut din_runs = din.map(|d| d.chunks_mut(run * in_image));
    let runs = x
        .chunks(run * in_image)
        .zip(dout.chunks(run * out_image))
        .map(|(x, dout)| (x, dout, din_runs.as_mut().and_then(Iterator::next)));
    if threads == 1 {
        for (x, dout, din) in runs {
            backward_run(x, dout, &w, din, gw, geom);
        }
        return;
    }
    let w_len = gw.len();
    let partials = hsconas_par::par_map_owned(runs.collect(), threads, |_, (x, dout, din)| {
        let mut partial = crate::arena::take_buffer(w_len);
        partial.resize(w_len, 0.0);
        backward_run(x, dout, &w, din, &mut partial, geom);
        partial
    });
    for partial in partials {
        for (g, p) in gw.iter_mut().zip(&partial) {
            *g += p;
        }
        crate::arena::recycle(partial);
    }
}

/// The forward of one run of images: `x` holds their input planes and
/// `out` their zeroed output planes, of which only the kept channels' are
/// written.
fn forward_run(x: &[f32], w: &Weights, out: &mut [f32], geom: &ConvGeom) {
    let (in_plane, out_plane) = planes(geom);
    let n = w.n;
    let images = x.len() / (w.channels * in_plane);
    let width = images * n;
    with_scratch(forward_scratch(geom, n) * images, |buf| {
        let (xs, rest) = buf.split_at_mut(in_plane * width);
        let (acc, wr) = rest.split_at_mut(out_plane * width);
        w.repeat(images, wr);
        let image_len = w.channels * in_plane;
        for (i, image) in x.chunks_exact(image_len).enumerate() {
            to_rows(image, in_plane, width, &mut xs[i * n..], |c| w.kept(c));
        }
        for tap in taps(geom) {
            let wt = &wr[tap.t * width..(tap.t + 1) * width];
            for (p, q) in tap.window() {
                mul_add(
                    &mut acc[p * width..(p + 1) * width],
                    wt,
                    &xs[q * width..(q + 1) * width],
                );
            }
        }
        for (i, out) in out.chunks_exact_mut(w.channels * out_plane).enumerate() {
            from_rows(&acc[i * n..], out_plane, width, out, |c| w.kept(c));
        }
    });
}

/// Both gradients of one run of images, with every channel kept in `w`:
/// `din` (their zeroed input-gradient planes), when given, receives
/// `Wᵀ·dout` scattered back by `col2im`, and `gw` (`k²` weights per
/// channel) accumulates each image's `dout · colᵀ` in image order, reading
/// each tap's im2col row straight from the input.
fn backward_run(
    x: &[f32],
    dout: &[f32],
    w: &Weights,
    din: Option<&mut [f32]>,
    gw: &mut [f32],
    geom: &ConvGeom,
) {
    let (in_plane, out_plane) = planes(geom);
    let (n, k2) = (w.n, geom.kernel * geom.kernel);
    let images = x.len() / (n * in_plane);
    let width = images * n;
    // Positions below `chunked` fill the eight lanes; the rest are the tail.
    let chunked = out_plane - out_plane % LANES;
    let all = |_: usize| true;
    let input_grad = din.is_some();
    with_scratch(backward_scratch(geom, n, input_grad) * images, |buf| {
        let (xs, rest) = buf.split_at_mut(in_plane * width);
        let (ds, rest) = rest.split_at_mut(out_plane * width);
        let (gws, rest) = rest.split_at_mut(k2 * width);
        let (lanes, rest) = rest.split_at_mut(LANES * width);
        // Only the input gradient stages its planes and repeated weights.
        let (dxs, wr) = rest.split_at_mut(if input_grad { in_plane * width } else { 0 });
        if input_grad {
            w.repeat(images, wr);
        }
        let runs = x
            .chunks_exact(n * in_plane)
            .zip(dout.chunks_exact(n * out_plane));
        for (i, (image, d)) in runs.enumerate() {
            to_rows(image, in_plane, width, &mut xs[i * n..], all);
            to_rows(d, out_plane, width, &mut ds[i * n..], all);
        }
        for tap in taps(geom) {
            let gt = &mut gws[tap.t * width..(tap.t + 1) * width];
            lanes.fill(0.0);
            let mut reduced = false;
            for (p, q) in tap.window() {
                let d = &ds[p * width..(p + 1) * width];
                if input_grad {
                    let wt = &wr[tap.t * width..(tap.t + 1) * width];
                    mul_add(&mut dxs[q * width..(q + 1) * width], wt, d);
                }
                let xq = &xs[q * width..(q + 1) * width];
                if p < chunked {
                    let l = p % LANES;
                    mul_add(&mut lanes[l * width..(l + 1) * width], d, xq);
                    continue;
                }
                if !reduced {
                    reduce_into(gt, lanes, width);
                    reduced = true;
                }
                mul_add(gt, d, xq);
            }
            if !reduced {
                reduce_into(gt, lanes, width);
            }
        }
        if let Some(din) = din {
            for (i, din) in din.chunks_exact_mut(n * in_plane).enumerate() {
                from_rows(&dxs[i * n..], in_plane, width, din, all);
            }
        }
        for i in 0..images {
            for (c, g) in gw.chunks_exact_mut(k2).enumerate() {
                for (t, v) in g.iter_mut().enumerate() {
                    *v += gws[t * width + i * n + c];
                }
            }
        }
    });
}

/// `dst[j] = reduce_lanes(lanes[·][j])` for each of the `n` lanes.
fn reduce_into(dst: &mut [f32], lanes: &[f32], n: usize) {
    for (j, d) in dst.iter_mut().enumerate() {
        let column: [f32; LANES] = std::array::from_fn(|l| lanes[l * n + j]);
        *d = reduce_lanes(&column);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    /// The per-image forward the runs replaced, kept as the reference:
    /// one image's kept channels in `n` lanes.
    fn forward_image(x: &[f32], w: &Weights, out: &mut [f32], geom: &ConvGeom) {
        let (in_plane, out_plane) = planes(geom);
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

    /// The per-image backward the runs replaced, kept as the reference.
    fn backward_image(
        x: &[f32],
        dout: &[f32],
        w: &Weights,
        din: &mut [f32],
        gw: &mut [f32],
        geom: &ConvGeom,
    ) {
        let (in_plane, out_plane) = planes(geom);
        let (n, k2) = (w.n, geom.kernel * geom.kernel);
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

    fn normals(len: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..len).map(|_| rng.next_normal() as f32).collect()
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
        }
    }

    /// Runs of `(image, channel)` lanes against the per-image kernels:
    /// output, input gradient and weight gradient agree bit for bit, with
    /// masked channels and zero output-gradient planes, on batches the
    /// scratch budget splits into several runs (48 channels at 16×16 run
    /// one image at a time, 8 channels at 16×16 stride 1 split 16 images
    /// into runs of 9 and 7).
    #[test]
    fn runs_match_per_image_kernels_bit_for_bit() {
        let mut rng = SmallRng::new(26);
        let mut split = false;
        for channels in [3, 8, 29, 48] {
            for kernel in [3, 5, 7] {
                for stride in [1, 2] {
                    for plane in [1, 2, 4, 16] {
                        for batch in [1, 2, 3, 8, 16] {
                            let geom = ConvGeom {
                                channels: 1,
                                in_h: plane,
                                in_w: plane,
                                kernel,
                                stride,
                                pad: kernel / 2,
                            };
                            let (in_plane, out_plane) = planes(&geom);
                            let k2 = kernel * kernel;
                            let x = normals(batch * channels * in_plane, &mut rng);
                            let mut wt = normals(channels * k2, &mut rng);
                            // Channel 1 is masked; an isolated zero tap too.
                            wt[k2..2 * k2].fill(0.0);
                            wt[0] = 0.0;
                            let mut dy = normals(batch * channels * out_plane, &mut rng);
                            // Image 0's last channel has a zero gradient,
                            // one element a negative zero.
                            let last = (channels - 1) * out_plane;
                            dy[last..last + out_plane].fill(0.0);
                            dy[0] = -0.0;
                            let case = format!("c{channels} k{kernel} s{stride} {plane}² n{batch}");

                            let mut want_y = vec![0.0; dy.len()];
                            let mut want_din = vec![0.0; x.len()];
                            let mut want_dw = vec![0.0; wt.len()];
                            let live = Weights::gather(&wt, k2, true);
                            let every = Weights::gather(&wt, k2, false);
                            for i in 0..batch {
                                let xi = &x[i * channels * in_plane..(i + 1) * channels * in_plane];
                                let yi = i * channels * out_plane..(i + 1) * channels * out_plane;
                                forward_image(xi, &live, &mut want_y[yi.clone()], &geom);
                                let mut partial = vec![0.0; wt.len()];
                                backward_image(
                                    xi,
                                    &dy[yi],
                                    &every,
                                    &mut want_din
                                        [i * channels * in_plane..(i + 1) * channels * in_plane],
                                    &mut partial,
                                    &geom,
                                );
                                for (acc, p) in want_dw.iter_mut().zip(&partial) {
                                    *acc += p;
                                }
                            }

                            let mut y = vec![0.0; dy.len()];
                            forward(&x, &wt, &mut y, &geom, 1);
                            let mut din = vec![0.0; x.len()];
                            let mut dw = vec![0.0; wt.len()];
                            backward(&x, &wt, &dy, Some(&mut din), &mut dw, &geom, 1);
                            let mut dw_only = vec![0.0; wt.len()];
                            backward(&x, &wt, &dy, None, &mut dw_only, &geom, 1);
                            assert_bits(&format!("{case} y"), &y, &want_y);
                            assert_bits(&format!("{case} dIn"), &din, &want_din);
                            assert_bits(&format!("{case} dW"), &dw, &want_dw);
                            assert_bits(&format!("{case} dW only"), &dw_only, &want_dw);
                            let per_image = backward_scratch(&geom, channels, true);
                            split |= run_len(per_image, batch) < batch && batch > 1;
                        }
                    }
                }
            }
        }
        assert!(split, "no case split its batch into several runs");
    }

    #[test]
    fn run_len_stays_within_budget_and_batch() {
        assert_eq!(run_len(5_456, 8), 8);
        assert_eq!(run_len(5_456, 16), RUN_BUDGET / 5_456);
        assert_eq!(run_len(RUN_BUDGET * 3, 16), 1);
        assert_eq!(run_len(0, 4), 4);
        assert_eq!(run_len(10, 0), 1);
    }

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
