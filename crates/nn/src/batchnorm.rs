//! Batch normalization over the channel axis of NCHW tensors.

use crate::layer::{BnMode, Layer, LayerExport, ParamVisitor};
use crate::NnError;
use hsconas_tensor::{Shape4, Tensor, TensorError};

/// 2-D batch normalization with learnable scale (`gamma`) and shift
/// (`beta`) and exponentially averaged running statistics for evaluation.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<Cache>,
    /// `Some(n)` while in [`BnMode::Accumulate`]: `n` batches have been
    /// folded into the cumulative-average running statistics so far.
    accumulate_count: Option<u32>,
}

#[derive(Debug, Clone)]
struct Cache {
    normalized: Tensor,
    batch_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels with the
    /// conventional `eps = 1e-5` and running-average `momentum = 0.1`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::full([1, channels, 1, 1], 1.0),
            beta: Tensor::zeros([1, channels, 1, 1]),
            grad_gamma: Tensor::zeros([1, channels, 1, 1]),
            grad_beta: Tensor::zeros([1, channels, 1, 1]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
            accumulate_count: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        if input.shape().c != self.channels {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "batchnorm",
                expected: vec![
                    input.shape().n,
                    self.channels,
                    input.shape().h,
                    input.shape().w,
                ],
                actual: input.shape().to_vec(),
            }));
        }
        Ok(())
    }
}

/// Channels whose running sums [`channel_sums`] advances side by side.
const LANES: usize = 8;

/// Adds `term(a[k], b[k], c)` to `acc[c]` for every flat NCHW index `k`
/// in channel `c` (`b` is `a` when the term reads one tensor). Each
/// channel's sum starts from `acc[c]` and visits its elements `n`-major,
/// then `h`, then `w`, one add at a time, so it rounds exactly as a scalar
/// walk over the tensor does. [`LANES`] channels' chains run interleaved,
/// so a short plane does not wait on one add's latency per element; the
/// chains never mix.
fn channel_sums(
    s: Shape4,
    acc: &mut [f32],
    a: &[f32],
    b: &[f32],
    term: impl Fn(f32, f32, usize) -> f32,
) {
    let mut c0 = 0;
    while c0 + LANES <= s.c {
        sum_lanes::<LANES>(s, c0, acc, a, b, &term);
        c0 += LANES;
    }
    for c in c0..s.c {
        sum_lanes::<1>(s, c, acc, a, b, &term);
    }
}

/// [`channel_sums`] for channels `c0..c0 + L`.
fn sum_lanes<const L: usize>(
    s: Shape4,
    c0: usize,
    acc: &mut [f32],
    a: &[f32],
    b: &[f32],
    term: &impl Fn(f32, f32, usize) -> f32,
) {
    let hw = s.h * s.w;
    let mut sums: [f32; L] = std::array::from_fn(|j| acc[c0 + j]);
    for n in 0..s.n {
        let plane = |j: usize| (n * s.c + c0 + j) * hw..(n * s.c + c0 + j + 1) * hw;
        let a: [&[f32]; L] = std::array::from_fn(|j| &a[plane(j)]);
        let b: [&[f32]; L] = std::array::from_fn(|j| &b[plane(j)]);
        for i in 0..hw {
            for (j, sum) in sums.iter_mut().enumerate() {
                *sum += term(a[j][i], b[j][i], c0 + j);
            }
        }
    }
    acc[c0..c0 + L].copy_from_slice(&sums);
}

/// Elements in one `(n, c)` plane: the chunk size for per-plane loops. At
/// least 1, so a tensor with an empty plane yields no chunks.
fn plane_len(s: Shape4) -> usize {
    (s.h * s.w).max(1)
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let s = input.shape();
        let count = (s.n * s.h * s.w) as f32;
        let plane = plane_len(s);
        let x = input.data();
        let gamma = self.gamma.data();
        let beta = self.beta.data();
        let mut out = Tensor::zeros(s);

        if train {
            // Batch statistics per channel.
            let mut mean = vec![0.0f32; self.channels];
            let mut var = vec![0.0f32; self.channels];
            channel_sums(s, &mut mean, x, x, |x, _, _| x);
            for m in &mut mean {
                *m /= count;
            }
            channel_sums(s, &mut var, x, x, |x, _, c| {
                let d = x - mean[c];
                d * d
            });
            for v in &mut var {
                *v /= count;
            }
            let std: Vec<f32> = var.iter().map(|v| (v + self.eps).sqrt()).collect();

            let mut normalized = Tensor::zeros(s);
            let planes = out
                .data_mut()
                .chunks_exact_mut(plane)
                .zip(normalized.data_mut().chunks_exact_mut(plane))
                .zip(x.chunks_exact(plane));
            for (c, ((o, xn), x)) in (0..s.c).cycle().zip(planes) {
                let (g, b, m, sd) = (gamma[c], beta[c], mean[c], std[c]);
                for ((o, xn), &x) in o.iter_mut().zip(xn).zip(x) {
                    *xn = (x - m) / sd;
                    *o = g * *xn + b;
                }
            }
            if let Some(count) = self.accumulate_count {
                // Cumulative average: after k batches the running stats are
                // exactly the mean of those k batches' statistics.
                let k = count as f32;
                for c in 0..self.channels {
                    self.running_mean[c] = (self.running_mean[c] * k + mean[c]) / (k + 1.0);
                    self.running_var[c] = (self.running_var[c] * k + var[c]) / (k + 1.0);
                }
                self.accumulate_count = Some(count + 1);
            } else {
                for c in 0..self.channels {
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
                }
            }
            self.cache = Some(Cache {
                normalized,
                batch_std: std,
            });
        } else {
            let planes = out
                .data_mut()
                .chunks_exact_mut(plane)
                .zip(x.chunks_exact(plane));
            for (c, (o, x)) in (0..s.c).cycle().zip(planes) {
                let (g, b) = (gamma[c], beta[c]);
                let std = (self.running_var[c] + self.eps).sqrt();
                let mean = self.running_mean[c];
                for (o, &x) in o.iter_mut().zip(x) {
                    *o = g * (x - mean) / std + b;
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache {
            layer: "BatchNorm2d",
        })?;
        let s = grad_out.shape();
        if s != cache.normalized.shape() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "batchnorm_backward",
                expected: cache.normalized.shape().to_vec(),
                actual: s.to_vec(),
            }));
        }
        let count = (s.n * s.h * s.w) as f32;
        let plane = plane_len(s);
        let dy = grad_out.data();
        let normalized = cache.normalized.data();
        // Accumulate dGamma, dBeta, and the per-channel sums needed for the
        // standard batch-norm input gradient.
        let mut sum_dy = vec![0.0f32; self.channels];
        let mut sum_dy_xn = vec![0.0f32; self.channels];
        channel_sums(s, &mut sum_dy, dy, dy, |dy, _, _| dy);
        channel_sums(s, &mut sum_dy_xn, dy, normalized, |dy, xn, _| dy * xn);
        for (g, d) in self.grad_gamma.data_mut().iter_mut().zip(&sum_dy_xn) {
            *g += d;
        }
        for (g, d) in self.grad_beta.data_mut().iter_mut().zip(&sum_dy) {
            *g += d;
        }
        let gamma = self.gamma.data();
        let mut grad_in = Tensor::zeros(s);
        let planes = grad_in
            .data_mut()
            .chunks_exact_mut(plane)
            .zip(dy.chunks_exact(plane))
            .zip(normalized.chunks_exact(plane));
        for (c, ((gi, dy), xn)) in (0..s.c).cycle().zip(planes) {
            // Only whole sub-expressions are hoisted: the per-element
            // `xn * sum_dy_xn / count` keeps its multiply-then-divide order.
            let scale = gamma[c] / cache.batch_std[c];
            let mean_dy = sum_dy[c] / count;
            let sum_dy_xn = sum_dy_xn[c];
            for ((gi, &dy), &xn) in gi.iter_mut().zip(dy).zip(xn) {
                *gi = scale * (dy - mean_dy - xn * sum_dy_xn / count);
            }
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor) {
        // Batch-norm parameters are conventionally exempt from weight decay.
        f(&mut self.gamma, &mut self.grad_gamma, false);
        f(&mut self.beta, &mut self.grad_beta, false);
    }

    fn set_bn_mode(&mut self, mode: BnMode) {
        match mode {
            BnMode::Accumulate => {
                self.running_mean.fill(0.0);
                self.running_var.fill(0.0);
                self.accumulate_count = Some(0);
            }
            BnMode::Normal => self.accumulate_count = None,
        }
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn export(&self, out: &mut Vec<LayerExport>) {
        out.push(LayerExport::BatchNorm {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            eps: self.eps,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_tensor::rng::SmallRng;

    #[test]
    fn train_forward_normalizes() {
        let mut rng = SmallRng::new(1);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn([4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 2.0);
        let y = bn.forward(&x, true).unwrap();
        // each channel of y should have ~zero mean and ~unit variance
        let s = y.shape();
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..s.n {
                for h in 0..s.h {
                    for w in 0..s.w {
                        vals.push(y.at(n, c, h, w));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = SmallRng::new(2);
        let mut bn = BatchNorm2d::new(2);
        // Train on many batches so running stats converge to data stats.
        for _ in 0..200 {
            let x = Tensor::randn([8, 2, 4, 4], 2.0, &mut rng).map(|v| v + 1.0);
            bn.forward(&x, true).unwrap();
        }
        let x = Tensor::randn([8, 2, 4, 4], 2.0, &mut rng).map(|v| v + 1.0);
        let y = bn.forward(&x, false).unwrap();
        let mean: f32 = y.sum() / y.len() as f32;
        assert!(mean.abs() < 0.1, "eval mean {mean}");
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::zeros([1, 4, 2, 2]);
        assert!(bn.forward(&x, true).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut bn = BatchNorm2d::new(2);
        assert!(bn.backward(&Tensor::zeros([1, 2, 1, 1])).is_err());
    }

    #[test]
    fn backward_finite_difference() {
        let mut rng = SmallRng::new(3);
        let x = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let mask = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, true).unwrap();
            y.data().iter().zip(mask.data()).map(|(a, b)| a * b).sum()
        };
        let mut bn = BatchNorm2d::new(2);
        loss(&mut bn, &x);
        let grad_in = bn.backward(&mask).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 11, 17, 23, 35] {
            // fresh layer each evaluation so running stats don't interfere
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = loss(&mut BatchNorm2d::new(2), &xp);
            let fm = loss(&mut BatchNorm2d::new(2), &xm);
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!((num - ana).abs() < 5e-2, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn accumulate_mode_yields_exact_mean_of_batches() {
        let mut rng = SmallRng::new(9);
        let mut bn = BatchNorm2d::new(2);
        // pollute stats first
        for _ in 0..5 {
            let x = Tensor::randn([4, 2, 3, 3], 5.0, &mut rng).map(|v| v + 10.0);
            bn.forward(&x, true).unwrap();
        }
        // recalibrate on a fixed set of batches
        bn.set_bn_mode(BnMode::Accumulate);
        let batches: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([4, 2, 3, 3], 1.0, &mut rng))
            .collect();
        for b in &batches {
            bn.forward(b, true).unwrap();
        }
        bn.set_bn_mode(BnMode::Normal);
        // rerunning the same recalibration must give identical eval output
        let probe = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let y1 = bn.forward(&probe, false).unwrap();
        bn.set_bn_mode(BnMode::Accumulate);
        for b in &batches {
            bn.forward(b, true).unwrap();
        }
        bn.set_bn_mode(BnMode::Normal);
        let y2 = bn.forward(&probe, false).unwrap();
        assert_eq!(y1, y2, "recalibration must be idempotent");
        // and the stats must be near the batches' true statistics (≈0 mean)
        let y = bn.forward(&probe, false).unwrap();
        let mean = y.sum() / y.len() as f32;
        assert!(mean.abs() < 0.3, "recalibrated eval mean {mean}");
    }

    #[test]
    fn normal_mode_still_uses_ema_after_recalibration() {
        let mut rng = SmallRng::new(10);
        let mut bn = BatchNorm2d::new(1);
        bn.set_bn_mode(BnMode::Accumulate);
        bn.forward(&Tensor::randn([4, 1, 3, 3], 1.0, &mut rng), true)
            .unwrap();
        bn.set_bn_mode(BnMode::Normal);
        // one EMA update must not fully replace the stats (momentum 0.1)
        let shifted = Tensor::randn([4, 1, 3, 3], 1.0, &mut rng).map(|v| v + 100.0);
        bn.forward(&shifted, true).unwrap();
        assert!(
            bn.running_mean[0] < 50.0,
            "EMA jumped: {}",
            bn.running_mean[0]
        );
    }

    /// The scalar-loop batch norm that the slice code replaced, kept as the
    /// bit-exactness reference: `forward` and `backward` walk every element
    /// through `Tensor::at` / `at_mut` in NCHW order.
    mod scalar {
        use super::*;

        #[allow(clippy::needless_range_loop)]
        pub fn forward(bn: &mut BatchNorm2d, input: &Tensor, train: bool) -> Tensor {
            let s = input.shape();
            let count = (s.n * s.h * s.w) as f32;
            let mut out = Tensor::zeros(s);
            if train {
                let mut mean = vec![0.0f32; bn.channels];
                let mut var = vec![0.0f32; bn.channels];
                for n in 0..s.n {
                    for c in 0..s.c {
                        for h in 0..s.h {
                            for w in 0..s.w {
                                mean[c] += input.at(n, c, h, w);
                            }
                        }
                    }
                }
                for m in &mut mean {
                    *m /= count;
                }
                for n in 0..s.n {
                    for c in 0..s.c {
                        for h in 0..s.h {
                            for w in 0..s.w {
                                let d = input.at(n, c, h, w) - mean[c];
                                var[c] += d * d;
                            }
                        }
                    }
                }
                for v in &mut var {
                    *v /= count;
                }
                let std: Vec<f32> = var.iter().map(|v| (v + bn.eps).sqrt()).collect();
                let mut normalized = Tensor::zeros(s);
                for n in 0..s.n {
                    for c in 0..s.c {
                        let g = bn.gamma.at(0, c, 0, 0);
                        let b = bn.beta.at(0, c, 0, 0);
                        for h in 0..s.h {
                            for w in 0..s.w {
                                let xn = (input.at(n, c, h, w) - mean[c]) / std[c];
                                *normalized.at_mut(n, c, h, w) = xn;
                                *out.at_mut(n, c, h, w) = g * xn + b;
                            }
                        }
                    }
                }
                if let Some(count) = bn.accumulate_count {
                    let k = count as f32;
                    for c in 0..bn.channels {
                        bn.running_mean[c] = (bn.running_mean[c] * k + mean[c]) / (k + 1.0);
                        bn.running_var[c] = (bn.running_var[c] * k + var[c]) / (k + 1.0);
                    }
                    bn.accumulate_count = Some(count + 1);
                } else {
                    for c in 0..bn.channels {
                        bn.running_mean[c] =
                            (1.0 - bn.momentum) * bn.running_mean[c] + bn.momentum * mean[c];
                        bn.running_var[c] =
                            (1.0 - bn.momentum) * bn.running_var[c] + bn.momentum * var[c];
                    }
                }
                bn.cache = Some(Cache {
                    normalized,
                    batch_std: std,
                });
            } else {
                for n in 0..s.n {
                    for c in 0..s.c {
                        let g = bn.gamma.at(0, c, 0, 0);
                        let b = bn.beta.at(0, c, 0, 0);
                        let std = (bn.running_var[c] + bn.eps).sqrt();
                        let mean = bn.running_mean[c];
                        for h in 0..s.h {
                            for w in 0..s.w {
                                *out.at_mut(n, c, h, w) =
                                    g * (input.at(n, c, h, w) - mean) / std + b;
                            }
                        }
                    }
                }
            }
            out
        }

        pub fn backward(bn: &mut BatchNorm2d, grad_out: &Tensor) -> Tensor {
            let cache = bn.cache.as_ref().unwrap();
            let s = grad_out.shape();
            let count = (s.n * s.h * s.w) as f32;
            let mut sum_dy = vec![0.0f32; bn.channels];
            let mut sum_dy_xn = vec![0.0f32; bn.channels];
            for n in 0..s.n {
                for c in 0..s.c {
                    for h in 0..s.h {
                        for w in 0..s.w {
                            let dy = grad_out.at(n, c, h, w);
                            sum_dy[c] += dy;
                            sum_dy_xn[c] += dy * cache.normalized.at(n, c, h, w);
                        }
                    }
                }
            }
            for c in 0..bn.channels {
                *bn.grad_gamma.at_mut(0, c, 0, 0) += sum_dy_xn[c];
                *bn.grad_beta.at_mut(0, c, 0, 0) += sum_dy[c];
            }
            let mut grad_in = Tensor::zeros(s);
            for n in 0..s.n {
                for c in 0..s.c {
                    let g = bn.gamma.at(0, c, 0, 0);
                    let std = cache.batch_std[c];
                    for h in 0..s.h {
                        for w in 0..s.w {
                            let dy = grad_out.at(n, c, h, w);
                            let xn = cache.normalized.at(n, c, h, w);
                            *grad_in.at_mut(n, c, h, w) =
                                g / std * (dy - sum_dy[c] / count - xn * sum_dy_xn[c] / count);
                        }
                    }
                }
            }
            grad_in
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that two layers hold bit-identical state.
    fn assert_same_state(new: &BatchNorm2d, old: &BatchNorm2d, what: &str) {
        assert_eq!(
            bits(&new.running_mean),
            bits(&old.running_mean),
            "{what}: running_mean"
        );
        assert_eq!(
            bits(&new.running_var),
            bits(&old.running_var),
            "{what}: running_var"
        );
        assert_eq!(
            bits(new.grad_gamma.data()),
            bits(old.grad_gamma.data()),
            "{what}: grad_gamma"
        );
        assert_eq!(
            bits(new.grad_beta.data()),
            bits(old.grad_beta.data()),
            "{what}: grad_beta"
        );
    }

    /// Input with the supernet's channel masking: channels from `active` on
    /// are all zero.
    fn masked_input(shape: [usize; 4], active: usize, rng: &mut SmallRng) -> Tensor {
        let mut x = Tensor::randn(shape, 1.5, rng).map(|v| v + 0.5);
        let plane = shape[2] * shape[3];
        for (p, chunk) in x.data_mut().chunks_mut(plane).enumerate() {
            if p % shape[1] >= active {
                chunk.fill(0.0);
            }
        }
        x
    }

    #[test]
    fn slice_batchnorm_is_bit_identical_to_scalar_loops() {
        let mut rng = SmallRng::new(20);
        for n in [1, 2, 8, 9] {
            for (h, w) in [(1, 1), (2, 2), (1, 7), (4, 4), (16, 16)] {
                for c in [1, 3, 8, 64, 128] {
                    let what = format!("[{n}, {c}, {h}, {w}]");
                    let shape = [n, c, h, w];
                    // Every other shape masks its tail quarter of channels.
                    let active = if (n + c + h) % 2 == 0 { c - c / 4 } else { c };
                    let mut new = BatchNorm2d::new(c);
                    new.gamma = Tensor::randn([1, c, 1, 1], 1.0, &mut rng).map(|v| v + 1.0);
                    new.beta = Tensor::randn([1, c, 1, 1], 0.5, &mut rng);
                    let mut old = new.clone();

                    // Two train steps, forward and backward: grad_gamma and
                    // grad_beta accumulate across both.
                    for step in 0..2 {
                        let x = masked_input(shape, active, &mut rng);
                        let dy = masked_input(shape, active, &mut rng);
                        let y = new.forward(&x, true).unwrap();
                        let y_ref = scalar::forward(&mut old, &x, true);
                        assert_eq!(bits(y.data()), bits(y_ref.data()), "{what} train y {step}");
                        let gi = new.backward(&dy).unwrap();
                        let gi_ref = scalar::backward(&mut old, &dy);
                        assert_eq!(
                            bits(gi.data()),
                            bits(gi_ref.data()),
                            "{what} grad_in {step}"
                        );
                        assert_same_state(&new, &old, &format!("{what} step {step}"));
                    }

                    let probe = masked_input(shape, active, &mut rng);
                    let y = new.forward(&probe, false).unwrap();
                    let y_ref = scalar::forward(&mut old, &probe, false);
                    assert_eq!(bits(y.data()), bits(y_ref.data()), "{what} eval y");

                    // Recalibration: running stats as the cumulative average
                    // over two batches, then eval on them.
                    new.set_bn_mode(BnMode::Accumulate);
                    old.set_bn_mode(BnMode::Accumulate);
                    for _ in 0..2 {
                        let x = masked_input(shape, active, &mut rng);
                        new.forward(&x, true).unwrap();
                        scalar::forward(&mut old, &x, true);
                    }
                    assert_same_state(&new, &old, &format!("{what} accumulate"));
                    new.set_bn_mode(BnMode::Normal);
                    old.set_bn_mode(BnMode::Normal);
                    let y = new.forward(&probe, false).unwrap();
                    let y_ref = scalar::forward(&mut old, &probe, false);
                    assert_eq!(
                        bits(y.data()),
                        bits(y_ref.data()),
                        "{what} recalibrated eval y"
                    );
                }
            }
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut rng = SmallRng::new(4);
        let x = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x, true).unwrap();
        let ones = Tensor::full(y.shape(), 1.0);
        bn.backward(&ones).unwrap();
        // dBeta = sum(dy) = N*H*W per channel
        let mut checked = 0;
        bn.visit_params(&mut |p, g, decay| {
            assert!(!decay, "bn params must not decay");
            if p.at(0, 0, 0, 0) == 0.0 {
                // beta starts at zero → this is the beta/grad_beta pair
                assert!((g.at(0, 0, 0, 0) - 18.0).abs() < 1e-3);
                checked += 1;
            }
        });
        assert_eq!(checked, 1);
    }
}
