//! 2-D convolution forward and backward kernels (dense and depthwise)
//! built on [`crate::im2col`] and [`crate::matmul`].
//!
//! Weights are stored as `[c_out, c_in / groups, k, k]` tensors. Only two
//! groupings exist: dense (`groups == 1`) and depthwise
//! (`groups == c_in == c_out`); any other grouping is rejected by
//! [`Conv2dParams::validate`].
//!
//! Dense convolutions lower to three GEMM products (forward `W·col`,
//! weight gradient `dOut·colᵀ`, input gradient `Wᵀ·dOut`) that dispatch
//! through the packed SIMD kernel layer ([`crate::kernels`]); the forward
//! product's weight operand carries the supernet's channel masks as zero
//! rows, which the packing step detects per `MR`-row panel and skips
//! outright, so a scaled-down candidate pays only for its live channels.
//! The weight operands (forward and the `Wᵀ·dOut` input-gradient product)
//! carry pack-cache tags, so their panels pack once per weight generation
//! in the persistent cache instead of once per image.
//!
//! Depthwise convolutions skip that lowering: per channel it would be a
//! `1 × k²` GEMM, so they run on direct kernels instead
//! (`kernels::depthwise`) that reproduce the direct GEMM loops'
//! accumulation order bit for bit, stage no im2col patch, and skip masked
//! (all-zero) channels outright.
//!
//! Pointwise convolutions (`kernel == 1`, `stride == 1`, `pad == 0`) skip
//! the im2col staging copy entirely: the column matrix is exactly the
//! input plane matrix (the identity proven in [`crate::im2col`]'s tests),
//! so the GEMMs read the input — and write the input gradient — in place,
//! with bit-identical results to the staged path. On planes narrower than
//! one direct-kernel register tile (`oh·ow < 8`) a per-image product would
//! run entirely in the kernel's scalar remainder loop, so the forward
//! `W·X` and the input gradient `Wᵀ·dOut` fold the batch into the GEMM's
//! columns instead ([`folded_product`]), bit-identically ([`folds`] gives
//! the argument and its limit). The weight gradient stays per image:
//! folding its summation axis would change the addition order.
//!
//! The unfolded passes reuse per-thread im2col staging buffers
//! ([`crate::scratch`]) and fan the batch dimension out over the shared
//! worker pool when the per-image work is large enough to amortize a
//! dispatch, unless they already run inside one. Each image's output (and
//! input gradient) is a disjoint slice and is computed by a pure per-image
//! function, so results are bit-identical to the serial loop at any thread
//! count; the weight gradient is accumulated from per-image partials
//! merged in batch order, which reproduces the serial addition order
//! exactly.

use crate::im2col::{col2im, im2col, ConvGeom};
use crate::kernels::{depthwise, direct, gemm_pinned, GemmTags, Op};
use crate::matmul::{matmul_a_bt, matmul_at_b_tagged};
use crate::scratch::with_scratch;
use crate::{Shape4, Tensor, TensorError};

/// Minimum per-image multiply-accumulate count before a per-image batch
/// loop is worth fanning out to the worker pool; batch-folded pointwise
/// products ([`folds`]) run as one serial direct GEMM and never fan out,
/// and a folded input gradient leaves only the weight gradient's MACs in
/// the per-image backward loop. A dispatch to the long-lived pool
/// costs a queue push and a worker wake-up, not a thread spawn; this value
/// dates from when every call spawned its own threads and has not been
/// re-derived since (that needs a scripted A/B; see ROADMAP.md).
const PAR_MAC_THRESHOLD: usize = 250_000;

/// Static parameters of a convolution operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Input channel count.
    pub c_in: usize,
    /// Output channel count.
    pub c_out: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on all sides.
    pub pad: usize,
    /// Number of groups: `1` (dense) or `c_in == c_out` (depthwise).
    pub groups: usize,
}

impl Conv2dParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when any parameter is zero
    /// or the conv is neither dense (`groups == 1`) nor depthwise
    /// (`groups == c_in == c_out`).
    pub fn validate(&self) -> Result<(), TensorError> {
        let bad = |detail: String| TensorError::InvalidDimension {
            op: "conv2d",
            detail,
        };
        if self.c_in == 0 || self.c_out == 0 || self.kernel == 0 || self.stride == 0 {
            return Err(bad(format!("zero-sized parameter: {self:?}")));
        }
        if self.groups != 1 && !self.is_depthwise() {
            return Err(bad(format!(
                "groups {} must be 1 or equal c_in {} and c_out {}",
                self.groups, self.c_in, self.c_out
            )));
        }
        Ok(())
    }

    /// Expected weight tensor shape `[c_out, c_in/groups, k, k]`.
    pub fn weight_shape(&self) -> Shape4 {
        Shape4::new(
            self.c_out,
            self.c_in / self.groups,
            self.kernel,
            self.kernel,
        )
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad).saturating_sub(self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad).saturating_sub(self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// True for 1×1/stride-1/no-pad convolutions, whose im2col matrix is
    /// exactly the input plane matrix — the staging copy is skipped.
    fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.pad == 0
    }

    /// True for depthwise convolutions (one input and one output channel
    /// per group), which run on the direct depthwise kernels.
    fn is_depthwise(&self) -> bool {
        self.groups == self.c_in && self.c_in == self.c_out
    }

    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            channels: self.c_in / self.groups,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }
}

/// Computes the convolution forward pass.
///
/// # Errors
///
/// Returns [`TensorError`] if `params` are inconsistent or the input /
/// weight shapes do not match them.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    params: &Conv2dParams,
) -> Result<Tensor, TensorError> {
    conv2d_forward_pinned(input, weight, params, None)
}

/// [`conv2d_forward`] with the per-image GEMM's kernel selection pinned
/// to a reference `(m, k, n)` shape ([`crate::kernels::gemm_pinned`]).
///
/// Used by the graph compiler for channel-specialized convolutions: the
/// pruned product must accumulate in the same order as the full-width
/// reference product so that removing exactly-zero rows/columns is
/// bit-preserving. `None` behaves exactly like [`conv2d_forward`].
/// Depthwise convolutions ignore `ref_gemm`: their direct kernels have one
/// accumulation order at every channel count.
///
/// # Errors
///
/// Returns [`TensorError`] if `params` are inconsistent or the input /
/// weight shapes do not match them.
pub fn conv2d_forward_pinned(
    input: &Tensor,
    weight: &Tensor,
    params: &Conv2dParams,
    ref_gemm: Option<(usize, usize, usize)>,
) -> Result<Tensor, TensorError> {
    params.validate()?;
    let ishape = input.shape();
    if ishape.c != params.c_in {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward(input)",
            expected: vec![ishape.n, params.c_in, ishape.h, ishape.w],
            actual: ishape.to_vec(),
        });
    }
    if weight.shape() != params.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward(weight)",
            expected: params.weight_shape().to_vec(),
            actual: weight.shape().to_vec(),
        });
    }
    let geom = params.geom(ishape.h, ishape.w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let cols = oh * ow;
    let krows = geom.channels * params.kernel * params.kernel;

    let mut out = Tensor::zeros([ishape.n, params.c_out, oh, ow]);
    let in_plane = ishape.h * ishape.w;
    let out_plane = oh * ow;
    let in_stride = params.c_in * in_plane;
    let out_stride = params.c_out * out_plane;

    let input_data = input.data();
    let weight_data = weight.data();
    let pointwise = params.is_pointwise();
    // The weight operand is tagged so its packed panels come from the
    // persistent cache; without a graph reference the selection follows
    // the per-image shape, as an unpinned call would.
    let tags = GemmTags::a_tag(weight.pack_tag());
    let reference = ref_gemm.unwrap_or((params.c_out, krows, cols));
    if folds(params, ishape.n, cols, krows) {
        folded_product(
            Op::Ab,
            reference,
            weight_data,
            tags,
            input_data,
            out.data_mut(),
            ishape.n,
            (params.c_out, krows, cols),
        );
        return Ok(out);
    }
    // Depthwise weights are gathered once per call, masked channels dropped.
    let dw = params.is_depthwise().then(|| {
        depthwise::counter().incr();
        depthwise::Weights::gather(weight_data, krows, true)
    });
    let forward_one = |n: usize, out_image: &mut [f32]| {
        let image = &input_data[n * in_stride..(n + 1) * in_stride];
        if let Some(w) = &dw {
            depthwise::forward_image(image, w, out_image, &geom);
            return;
        }
        // out = W · col
        let product = |col: &[f32], out_image: &mut [f32]| {
            gemm_pinned(
                reference,
                Op::Ab,
                weight_data,
                col,
                out_image,
                params.c_out,
                krows,
                cols,
                true,
                tags,
            );
        };
        if pointwise {
            // col ≡ the input plane matrix: multiply in place, no staging.
            product(image, out_image);
        } else {
            with_scratch(krows * cols, |col| {
                im2col(image, &geom, col);
                product(col, out_image);
            });
        }
    };

    let threads = batch_threads(ishape.n, params.c_out * out_plane * krows);
    if threads == 1 {
        // Inline path: no per-call slice vector, so a steady-state forward
        // stays allocation-free (the alloc-budget gate depends on this).
        for (n, image) in out.data_mut().chunks_mut(out_stride).enumerate() {
            forward_one(n, image);
        }
    } else {
        let images: Vec<&mut [f32]> = out.data_mut().chunks_mut(out_stride).collect();
        hsconas_par::par_for_each(images, threads, forward_one);
    }
    Ok(out)
}

/// True when a dense pointwise product over `batch` planes of `cols`
/// columns, summing over `k`, runs as one GEMM over the whole batch
/// ([`folded_product`]) instead of one GEMM per image.
///
/// Below one register tile width a per-image product runs entirely in the
/// direct kernel's scalar remainder loop; folded, the batch fills whole
/// `4×8` tiles. The direct kernel computes each output column
/// independently of where it falls: a full tile accumulates a `KC`-deep
/// block from `+0` and adds it into `c`, the remainder loop accumulates
/// straight into `c` in the same `k` order, and the `a == 0` terms only it
/// skips add `±0`. Into a zeroed `c` both land on the same bits for finite
/// operands — while `k` fits one `KC` block. Past that the tile adds each
/// block's partial sum where the remainder loop keeps accumulating, so
/// deeper products stay per image. Wider planes stay per image too: they
/// already fill tiles, and the per-image loop keeps its pool fan-out.
fn folds(params: &Conv2dParams, batch: usize, cols: usize, k: usize) -> bool {
    params.groups == 1 && params.is_pointwise() && batch > 1 && cols < direct::NR && k <= direct::KC
}

/// `dst[i] = a' · src[i]` for every image `i` of a batch, as one GEMM of
/// per-image shape `mkn` widened to `batch · n` columns: the `k × n`
/// planes of `src` are gathered side by side into a `k × batch·n` arena
/// matrix, multiplied with the kernel selection pinned to the per-image
/// `reference` shape, and the `m × batch·n` product is scattered back to
/// `dst`'s `[batch, m, n]` layout. `dst` must be zeroed, as the per-image
/// products it replaces accumulate into zeroed slices.
#[allow(clippy::too_many_arguments)]
fn folded_product(
    op: Op,
    reference: (usize, usize, usize),
    a: &[f32],
    tags: GemmTags,
    src: &[f32],
    dst: &mut [f32],
    batch: usize,
    (m, k, n): (usize, usize, usize),
) {
    let wide = batch * n;
    with_scratch(k * wide, |b| {
        swap_outer(src, b, batch, k, n);
        with_scratch(m * wide, |c| {
            gemm_pinned(reference, op, a, b, c, m, k, wide, true, tags);
            swap_outer(c, dst, m, batch, n);
        });
    });
}

/// Copies `[outer][inner][len]` rows of `src` into `[inner][outer][len]`
/// order in `dst`.
fn swap_outer(src: &[f32], dst: &mut [f32], outer: usize, inner: usize, len: usize) {
    for (o, block) in src.chunks_exact(inner * len).enumerate() {
        for (i, row) in block.chunks_exact(len).enumerate() {
            let at = (i * outer + o) * len;
            dst[at..at + len].copy_from_slice(row);
        }
    }
}

/// Worker count for a batch loop: 1 (inline) unless there are several
/// images, each image carries enough MACs to amortize a dispatch, and the
/// caller is not already inside one, in which case the process default
/// (`hsconas_par::default_threads`) applies.
fn batch_threads(batch: usize, macs_per_image: usize) -> usize {
    if batch > 1 && macs_per_image >= PAR_MAC_THRESHOLD && !hsconas_par::in_worker() {
        0
    } else {
        1
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input tensor.
    pub input: Tensor,
    /// Gradient with respect to the weight tensor.
    pub weight: Tensor,
}

/// Computes input and weight gradients for a convolution.
///
/// `grad_out` must have the shape produced by [`conv2d_forward`] for the
/// same `input` and `params`.
///
/// # Errors
///
/// Returns [`TensorError`] on any shape inconsistency.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    params: &Conv2dParams,
) -> Result<Conv2dGrads, TensorError> {
    params.validate()?;
    let ishape = input.shape();
    let geom = params.geom(ishape.h, ishape.w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let expected_out = Shape4::new(ishape.n, params.c_out, oh, ow);
    if grad_out.shape() != expected_out {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward(grad_out)",
            expected: expected_out.to_vec(),
            actual: grad_out.shape().to_vec(),
        });
    }
    if weight.shape() != params.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward(weight)",
            expected: params.weight_shape().to_vec(),
            actual: weight.shape().to_vec(),
        });
    }
    let cols = oh * ow;
    let krows = geom.channels * params.kernel * params.kernel;
    let in_plane = ishape.h * ishape.w;
    let out_plane = oh * ow;

    let mut grad_in = Tensor::zeros(ishape);
    let mut grad_w = Tensor::zeros(params.weight_shape());
    let in_stride = params.c_in * in_plane;
    let out_stride = params.c_out * out_plane;
    let w_len = grad_w.len();

    let input_data = input.data();
    let weight_data = weight.data();
    let grad_out_data = grad_out.data();
    let pointwise = params.is_pointwise();
    let tags = GemmTags::a_tag(weight.pack_tag());
    // dIn = Wᵀ (krows × c_out) · dOut (c_out × cols), one GEMM for the
    // whole batch when the planes are narrower than a register tile.
    let fold_din = folds(params, ishape.n, cols, params.c_out);
    if fold_din {
        let din = (krows, params.c_out, cols);
        folded_product(
            Op::AtB,
            din,
            weight_data,
            tags,
            grad_out_data,
            grad_in.data_mut(),
            ishape.n,
            din,
        );
    }
    // Depthwise weights are gathered once per call, every channel kept:
    // masked channels still have a weight gradient.
    let dw = params.is_depthwise().then(|| {
        depthwise::counter().incr();
        depthwise::Weights::gather(weight_data, krows, false)
    });
    // Per-image work: fills this image's slice of dInput and returns its
    // dW contribution. Scratch buffers come from the thread's pool.
    let backward_one = |n: usize, gin_image: &mut [f32]| -> Vec<f32> {
        let mut gw = crate::arena::take_buffer(w_len);
        gw.resize(w_len, 0.0);
        let image = &input_data[n * in_stride..(n + 1) * in_stride];
        let dout = &grad_out_data[n * out_stride..(n + 1) * out_stride];
        if let Some(w) = &dw {
            depthwise::backward_image(image, dout, w, gin_image, &mut gw, &geom);
            return gw;
        }
        if pointwise {
            // col ≡ the input plane matrix and col2im is the identity
            // accumulation, so both products run in place: dW reads the
            // input directly and dIn is written straight into its zeroed
            // slice (bit-identical to staging through dcol).
            // dW += dOut (c_out × cols) · inᵀ (cols × krows)
            matmul_a_bt(dout, image, &mut gw, params.c_out, cols, krows);
            if !fold_din {
                // dIn += Wᵀ (krows × c_out) · dOut (c_out × cols)
                matmul_at_b_tagged(
                    weight_data,
                    dout,
                    gin_image,
                    params.c_out,
                    krows,
                    cols,
                    tags,
                );
            }
            return gw;
        }
        with_scratch(krows * cols, |col| {
            with_scratch(krows * cols, |dcol| {
                // dW += dOut (c_out × cols) · colᵀ (cols × krows)
                im2col(image, &geom, col);
                matmul_a_bt(dout, col, &mut gw, params.c_out, cols, krows);
                // dCol = Wᵀ (krows × c_out) · dOut (c_out × cols)
                dcol.fill(0.0);
                matmul_at_b_tagged(weight_data, dout, dcol, params.c_out, krows, cols, tags);
                col2im(dcol, &geom, gin_image);
            });
        });
        gw
    };

    let products = if fold_din { 1 } else { 2 };
    let threads = batch_threads(ishape.n, products * params.c_out * out_plane * krows);
    if threads == 1 {
        // Inline path mirrors the parallel merge exactly: one zeroed
        // partial per image, added in batch order, buffer recycled.
        for (n, gin_image) in grad_in.data_mut().chunks_mut(in_stride).enumerate() {
            let partial = backward_one(n, gin_image);
            for (w, p) in grad_w.data_mut().iter_mut().zip(&partial) {
                *w += p;
            }
            crate::arena::recycle(partial);
        }
    } else {
        let images: Vec<&mut [f32]> = grad_in.data_mut().chunks_mut(in_stride).collect();
        let partials = hsconas_par::par_map_owned(images, threads, backward_one);
        // Merge dW partials in batch order: each image's contribution is a
        // single addend per weight, so this reproduces the serial per-image
        // accumulation order bit-for-bit.
        for partial in partials {
            for (w, p) in grad_w.data_mut().iter_mut().zip(&partial) {
                *w += p;
            }
            crate::arena::recycle(partial);
        }
    }
    Ok(Conv2dGrads {
        input: grad_in,
        weight: grad_w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    fn naive_conv(input: &Tensor, weight: &Tensor, p: &Conv2dParams) -> Tensor {
        let s = input.shape();
        let (oh, ow) = p.out_hw(s.h, s.w);
        let cinpg = p.c_in / p.groups;
        let coutpg = p.c_out / p.groups;
        let mut out = Tensor::zeros([s.n, p.c_out, oh, ow]);
        for n in 0..s.n {
            for co in 0..p.c_out {
                let g = co / coutpg;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..cinpg {
                            for ky in 0..p.kernel {
                                for kx in 0..p.kernel {
                                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                                    let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                    if iy < 0 || ix < 0 || iy >= s.h as isize || ix >= s.w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(n, g * cinpg + ci, iy as usize, ix as usize)
                                        * weight.at(co, ci, ky, kx);
                                }
                            }
                        }
                        *out.at_mut(n, co, oy, ox) = acc;
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_naive_standard() {
        let mut rng = SmallRng::new(1);
        let p = Conv2dParams {
            c_in: 4,
            c_out: 6,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        };
        let x = Tensor::randn([2, 4, 7, 5], 1.0, &mut rng);
        let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
        let got = conv2d_forward(&x, &w, &p).unwrap();
        assert_close(&got, &naive_conv(&x, &w, &p), 1e-3);
    }

    fn dw_params(c: usize, kernel: usize, stride: usize) -> Conv2dParams {
        Conv2dParams {
            c_in: c,
            c_out: c,
            kernel,
            stride,
            pad: kernel / 2,
            groups: c,
        }
    }

    #[test]
    fn forward_matches_naive_depthwise() {
        let mut rng = SmallRng::new(3);
        for kernel in [3, 5, 7] {
            for stride in [1, 2] {
                for (h, w) in [(6, 6), (7, 5), (1, 1), (2, 2)] {
                    let p = dw_params(8, kernel, stride);
                    let x = Tensor::randn([2, 8, h, w], 1.0, &mut rng);
                    let wt = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
                    let got = conv2d_forward(&x, &wt, &p).unwrap();
                    assert_close(&got, &naive_conv(&x, &wt, &p), 1e-3);
                }
            }
        }
    }

    /// The per-channel route depthwise convolutions took before the
    /// direct kernels: one im2col + `1×k²×cols` GEMM per channel forward,
    /// `matmul_a_bt` for dW and `matmul_at_b` + `col2im` for dIn, with
    /// per-image dW partials merged in batch order.
    fn staged_depthwise(
        x: &Tensor,
        w: &Tensor,
        dy: &Tensor,
        p: &Conv2dParams,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        use crate::matmul::{matmul_a_bt, matmul_accumulate, matmul_at_b};
        let s = x.shape();
        let geom = p.geom(s.h, s.w);
        let (in_plane, cols, taps) = (s.h * s.w, geom.col_cols(), geom.col_rows());
        let mut y = vec![0.0f32; s.n * p.c_out * cols];
        let mut din = vec![0.0f32; x.len()];
        let mut dw = vec![0.0f32; w.len()];
        let mut col = vec![0.0f32; taps * cols];
        let mut dcol = vec![0.0f32; taps * cols];
        for n in 0..s.n {
            let mut partial = vec![0.0f32; w.len()];
            for c in 0..p.c_in {
                let xi = (n * p.c_in + c) * in_plane;
                let yi = (n * p.c_out + c) * cols;
                let wc = &w.data()[c * taps..(c + 1) * taps];
                im2col(&x.data()[xi..xi + in_plane], &geom, &mut col);
                matmul_accumulate(wc, &col, &mut y[yi..yi + cols], 1, taps, cols);
                let dout = &dy.data()[yi..yi + cols];
                let pw = &mut partial[c * taps..(c + 1) * taps];
                matmul_a_bt(dout, &col, pw, 1, cols, taps);
                dcol.fill(0.0);
                matmul_at_b(wc, dout, &mut dcol, 1, taps, cols);
                col2im(&dcol, &geom, &mut din[xi..xi + in_plane]);
            }
            for (acc, v) in dw.iter_mut().zip(&partial) {
                *acc += v;
            }
        }
        (y, din, dw)
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn depthwise_matches_staged_gemm_bit_for_bit() {
        let mut rng = SmallRng::new(31);
        // (channels, batch, kernel, stride, plane): every kernel × stride
        // over planes from 1×1 (pad ≥ plane) up, cols not a multiple of 8
        // included; the last shape carries 32·16·16·49 ≈ 400k MACs per
        // image, above PAR_MAC_THRESHOLD, so it fans out over the pool.
        let mut cases = Vec::new();
        for kernel in [3, 5, 7] {
            for stride in [1, 2] {
                for plane in [1, 2, 4, 8, 9, 16] {
                    cases.push((5, 2, kernel, stride, plane));
                }
            }
        }
        cases.push((32, 3, 7, 1, 16));
        for threads in [1, 4] {
            hsconas_par::set_default_threads(threads);
            for &(c, batch, kernel, stride, plane) in &cases {
                let p = dw_params(c, kernel, stride);
                let x = Tensor::randn([batch, c, plane, plane], 1.0, &mut rng);
                let mut w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
                let taps = kernel * kernel;
                // Channel 2 is masked; isolated zero taps elsewhere.
                w.data_mut()[2 * taps..3 * taps].fill(0.0);
                w.data_mut()[0] = 0.0;
                w.data_mut()[taps + taps / 2] = 0.0;
                w.data_mut()[4 * taps - 1] = 0.0;
                let y = conv2d_forward(&x, &w, &p).unwrap();
                let mut dy = Tensor::randn(y.shape(), 1.0, &mut rng);
                // An all-zero output-gradient plane (image 0, channel 1).
                let out_plane = y.shape().h * y.shape().w;
                dy.data_mut()[out_plane..2 * out_plane].fill(0.0);
                let g = conv2d_backward(&x, &w, &dy, &p).unwrap();

                let (want_y, want_din, want_dw) = staged_depthwise(&x, &w, &dy, &p);
                let case = format!("c{c} n{batch} k{kernel} s{stride} {plane}x{plane} t{threads}");
                assert_bits(&format!("{case} y"), y.data(), &want_y);
                assert_bits(&format!("{case} dIn"), g.input.data(), &want_din);
                assert_bits(&format!("{case} dW"), g.weight.data(), &want_dw);
                let masked = &y.data()[2 * out_plane..3 * out_plane];
                assert!(masked.iter().all(|v| v.to_bits() == 0), "{case}: masked");
            }
        }
        hsconas_par::set_default_threads(0);
    }

    #[test]
    fn invalid_params_rejected() {
        let p = Conv2dParams {
            c_in: 5,
            c_out: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 2,
        };
        assert!(p.validate().is_err());
        // Grouped but neither dense nor depthwise: no route runs it.
        let grouped = Conv2dParams {
            c_in: 4,
            c_out: 4,
            groups: 2,
            ..p
        };
        assert!(matches!(
            grouped.validate(),
            Err(TensorError::InvalidDimension { op: "conv2d", .. })
        ));
        let x = Tensor::zeros([1, 4, 4, 4]);
        let w = Tensor::zeros(grouped.weight_shape());
        assert!(conv2d_forward(&x, &w, &grouped).is_err());
        let dy = Tensor::zeros([1, 4, 4, 4]);
        assert!(conv2d_backward(&x, &w, &dy, &grouped).is_err());
        let p2 = Conv2dParams {
            c_in: 0,
            c_out: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        };
        assert!(p2.validate().is_err());
    }

    #[test]
    fn wrong_input_channels_rejected() {
        let p = Conv2dParams {
            c_in: 4,
            c_out: 4,
            kernel: 1,
            stride: 1,
            pad: 0,
            groups: 1,
        };
        let x = Tensor::zeros([1, 3, 4, 4]);
        let w = Tensor::zeros(p.weight_shape());
        assert!(conv2d_forward(&x, &w, &p).is_err());
    }

    /// Finite-difference gradient check of both input and weight gradients.
    #[test]
    fn backward_finite_difference() {
        let mut rng = SmallRng::new(5);
        let p = Conv2dParams {
            c_in: 3,
            c_out: 4,
            kernel: 3,
            stride: 2,
            pad: 1,
            groups: 1,
        };
        let x = Tensor::randn([1, 3, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
        // loss = sum(conv(x, w) * m) for a fixed random mask m
        let y0 = conv2d_forward(&x, &w, &p).unwrap();
        let m = Tensor::randn(y0.shape(), 1.0, &mut rng);
        let grads = conv2d_backward(&x, &w, &m, &p).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            let y = conv2d_forward(x, w, &p).unwrap();
            y.data().iter().zip(m.data()).map(|(a, b)| a * b).sum()
        };
        // check a sample of coordinates for input gradient
        for idx in [0usize, 7, 23, 40, 74] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            let ana = grads.input.data()[idx];
            assert!((num - ana).abs() < 5e-2, "input[{idx}]: {num} vs {ana}");
        }
        // and weight gradient
        for idx in [0usize, 10, 33, 57, 100] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!((num - ana).abs() < 5e-2, "weight[{idx}]: {num} vs {ana}");
        }
    }

    #[test]
    fn pointwise_fast_path_matches_naive_and_gradcheck() {
        let mut rng = SmallRng::new(21);
        let p = Conv2dParams {
            c_in: 6,
            c_out: 8,
            kernel: 1,
            stride: 1,
            pad: 0,
            groups: 1,
        };
        let x = Tensor::randn([2, 6, 7, 5], 1.0, &mut rng);
        let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
        let got = conv2d_forward(&x, &w, &p).unwrap();
        assert_close(&got, &naive_conv(&x, &w, &p), 1e-3);

        let m = Tensor::randn(got.shape(), 1.0, &mut rng);
        let grads = conv2d_backward(&x, &w, &m, &p).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            let y = conv2d_forward(x, w, &p).unwrap();
            y.data().iter().zip(m.data()).map(|(a, b)| a * b).sum()
        };
        for idx in [0usize, 11, 47, 90] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            let ana = grads.input.data()[idx];
            assert!((num - ana).abs() < 5e-2, "input[{idx}]: {num} vs {ana}");
        }
        for idx in [0usize, 7, 15, 23] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!((num - ana).abs() < 5e-2, "weight[{idx}]: {num} vs {ana}");
        }
    }

    /// The per-image pointwise route: one `W·X` and one `Wᵀ·dY` GEMM per
    /// image (the forward pinned to `reference` when given) and per-image
    /// dW partials merged in batch order.
    fn per_image_pointwise(
        x: &Tensor,
        w: &Tensor,
        dy: &Tensor,
        p: &Conv2dParams,
        reference: Option<(usize, usize, usize)>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        use crate::matmul::{matmul_accumulate, matmul_at_b};
        let s = x.shape();
        let cols = s.h * s.w;
        let (xs, ys) = (p.c_in * cols, p.c_out * cols);
        let mut y = vec![0.0f32; s.n * ys];
        let mut din = vec![0.0f32; x.len()];
        let mut dw = vec![0.0f32; w.len()];
        for n in 0..s.n {
            let image = &x.data()[n * xs..(n + 1) * xs];
            let out = &mut y[n * ys..(n + 1) * ys];
            match reference {
                Some(r) => gemm_pinned(
                    r,
                    Op::Ab,
                    w.data(),
                    image,
                    out,
                    p.c_out,
                    p.c_in,
                    cols,
                    true,
                    GemmTags::default(),
                ),
                None => matmul_accumulate(w.data(), image, out, p.c_out, p.c_in, cols),
            }
            let dout = &dy.data()[n * ys..(n + 1) * ys];
            let gin = &mut din[n * xs..(n + 1) * xs];
            matmul_at_b(w.data(), dout, gin, p.c_out, p.c_in, cols);
            let mut partial = vec![0.0f32; w.len()];
            matmul_a_bt(dout, image, &mut partial, p.c_out, cols, p.c_in);
            for (acc, v) in dw.iter_mut().zip(&partial) {
                *acc += v;
            }
        }
        (y, din, dw)
    }

    #[test]
    fn pointwise_fast_path_is_bit_identical_to_staged_math() {
        // Narrow planes (< 8 columns) fold the batch into one GEMM per
        // product, wider ones run per image; both must reproduce the
        // per-image products bitwise, not just within tolerance. Channel
        // pairs cover Tiny and Skinny per-image shapes and a side deeper
        // than one direct-kernel `KC` block (320), where that product must
        // stay per image.
        let mut rng = SmallRng::new(22);
        let planes = [(1, 1), (2, 2), (1, 7), (2, 3), (3, 3), (4, 4)];
        let channels = [(6, 10), (64, 64), (256, 256), (320, 24), (24, 320)];
        for threads in [1, 4] {
            hsconas_par::set_default_threads(threads);
            for &(c_in, c_out) in &channels {
                let p = Conv2dParams {
                    c_in,
                    c_out,
                    kernel: 1,
                    stride: 1,
                    pad: 0,
                    groups: 1,
                };
                let mut w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
                // Masked output channels (all-zero rows of W, and so
                // all-zero columns of Wᵀ) and one masked input channel.
                for co in [1, 2, 3, 5] {
                    w.data_mut()[co * c_in..(co + 1) * c_in].fill(0.0);
                }
                for co in 0..c_out {
                    w.data_mut()[co * c_in + 4] = 0.0;
                }
                let batches: Vec<usize> = if c_in * c_out > 10_000 {
                    vec![1, 2, 8, 9]
                } else {
                    (1..=9).collect()
                };
                for &(h, wd) in &planes {
                    let cols = h * wd;
                    // A full-width reference shape, as the graph compiler
                    // records for a channel-specialized conv.
                    let pinned = Some((c_out + 4, c_in + 8, cols));
                    for &batch in &batches {
                        let x = Tensor::randn([batch, c_in, h, wd], 1.0, &mut rng);
                        let dy = Tensor::randn([batch, c_out, h, wd], 1.0, &mut rng);
                        for reference in [None, pinned] {
                            let y = conv2d_forward_pinned(&x, &w, &p, reference).unwrap();
                            let g = conv2d_backward(&x, &w, &dy, &p).unwrap();
                            let (want_y, want_din, want_dw) =
                                per_image_pointwise(&x, &w, &dy, &p, reference);
                            let case = format!(
                                "{c_in}->{c_out} n{batch} {h}x{wd} ref {reference:?} t{threads}"
                            );
                            assert_bits(&format!("{case} y"), y.data(), &want_y);
                            assert_bits(&format!("{case} dIn"), g.input.data(), &want_din);
                            assert_bits(&format!("{case} dW"), g.weight.data(), &want_dw);
                        }
                    }
                }
            }
        }
        hsconas_par::set_default_threads(0);
    }

    #[test]
    fn batch_parallel_is_bit_identical_to_serial() {
        // Force the worker pool on (threshold-sized work, explicit thread
        // count) and require bit-exact agreement with the 1-thread path.
        let mut rng = SmallRng::new(11);
        let p = Conv2dParams {
            c_in: 8,
            c_out: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        };
        // 16 * 24*24 * 8*9 = 663k MACs per image: above PAR_MAC_THRESHOLD.
        let x = Tensor::randn([6, 8, 24, 24], 1.0, &mut rng);
        let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
        let y = conv2d_forward(&x, &w, &p).unwrap();
        let dy = Tensor::randn(y.shape(), 1.0, &mut rng);

        hsconas_par::set_default_threads(1);
        let y_serial = conv2d_forward(&x, &w, &p).unwrap();
        let g_serial = conv2d_backward(&x, &w, &dy, &p).unwrap();
        hsconas_par::set_default_threads(4);
        let y_par = conv2d_forward(&x, &w, &p).unwrap();
        let g_par = conv2d_backward(&x, &w, &dy, &p).unwrap();
        hsconas_par::set_default_threads(0);

        assert_eq!(y_serial.data(), y_par.data());
        assert_eq!(g_serial.input.data(), g_par.input.data());
        assert_eq!(g_serial.weight.data(), g_par.weight.data());
    }

    #[test]
    fn backward_finite_difference_depthwise() {
        let mut rng = SmallRng::new(6);
        let p = Conv2dParams {
            c_in: 4,
            c_out: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 4,
        };
        let x = Tensor::randn([1, 4, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
        let y0 = conv2d_forward(&x, &w, &p).unwrap();
        let m = Tensor::randn(y0.shape(), 1.0, &mut rng);
        let grads = conv2d_backward(&x, &w, &m, &p).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            let y = conv2d_forward(x, w, &p).unwrap();
            y.data().iter().zip(m.data()).map(|(a, b)| a * b).sum()
        };
        for idx in [0usize, 5, 17, 31] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!((num - ana).abs() < 5e-2, "weight[{idx}]: {num} vs {ana}");
        }
        for idx in [0usize, 13, 29, 63] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            let ana = grads.input.data()[idx];
            assert!((num - ana).abs() < 5e-2, "input[{idx}]: {num} vs {ana}");
        }
    }
}
