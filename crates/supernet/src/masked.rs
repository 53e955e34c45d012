//! Channel masking utilities: the `I^l × op^l(x)` mechanism of §III-B and
//! the stride-2 skip operator.

use hsconas_nn::{Layer, NnError, ParamVisitor};
use hsconas_tensor::pool::{avg_pool, avg_pool_backward};
use hsconas_tensor::{Shape4, Tensor};

/// Zeroes all channels with index `>= keep` in `t` (in place).
pub fn mask_channels(t: &mut Tensor, keep: usize) {
    let s = t.shape();
    if keep >= s.c {
        return;
    }
    let plane = s.h * s.w;
    for n in 0..s.n {
        let start = (n * s.c + keep) * plane;
        let end = (n + 1) * s.c * plane;
        t.data_mut()[start..end].fill(0.0);
    }
}

/// The skip operator for stride-2 slots: 2×2 average pooling followed by a
/// free channel adaptation (zero-padding up or truncation down to
/// `c_out`). Parameter-free, so a "skip" genuinely costs nothing at the
/// operator level.
#[derive(Debug, Clone)]
pub struct DownsampleSkip {
    c_in: usize,
    c_out: usize,
    cache_shape: Option<Shape4>,
}

impl DownsampleSkip {
    /// Creates the operator.
    pub fn new(c_in: usize, c_out: usize) -> Self {
        DownsampleSkip {
            c_in,
            c_out,
            cache_shape: None,
        }
    }

    fn adapt_channels(t: &Tensor, c_out: usize) -> Tensor {
        adapt_channels(t, c_out)
    }
}

/// Zero-pads or truncates the channel axis to `c_out` (free channel
/// adaptation, used by skip operators and the subnet materializer's
/// pass-through branches).
pub fn adapt_channels(t: &Tensor, c_out: usize) -> Tensor {
    let s = t.shape();
    if s.c == c_out {
        return t.clone();
    }
    let mut out = Tensor::zeros([s.n, c_out, s.h, s.w]);
    let copy = s.c.min(c_out);
    let plane = s.h * s.w;
    for n in 0..s.n {
        for c in 0..copy {
            let src = (n * s.c + c) * plane;
            let dst = (n * c_out + c) * plane;
            out.data_mut()[dst..dst + plane].copy_from_slice(&t.data()[src..src + plane]);
        }
    }
    out
}

impl Layer for DownsampleSkip {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if input.shape().c != self.c_in {
            return Err(NnError::Tensor(
                hsconas_tensor::TensorError::ShapeMismatch {
                    op: "downsample_skip",
                    expected: vec![input.shape().n, self.c_in, input.shape().h, input.shape().w],
                    actual: input.shape().to_vec(),
                },
            ));
        }
        if train {
            self.cache_shape = Some(input.shape());
        }
        let pooled = avg_pool(input, 2, 2, 0);
        Ok(Self::adapt_channels(&pooled, self.c_out))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let in_shape = self.cache_shape.ok_or(NnError::MissingForwardCache {
            layer: "DownsampleSkip",
        })?;
        // invert the channel adaptation (truncate or pad the gradient)
        let g = Self::adapt_channels(grad_out, self.c_in);
        Ok(avg_pool_backward(in_shape, &g, 2, 2, 0)?)
    }

    fn visit_params(&mut self, _f: &mut ParamVisitor) {}

    fn name(&self) -> &'static str {
        "DownsampleSkip"
    }

    fn export(&self, out: &mut Vec<hsconas_nn::LayerExport>) {
        out.push(hsconas_nn::LayerExport::DownsampleSkip { c_out: self.c_out });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_tensor::rng::SmallRng;

    #[test]
    fn mask_zeroes_trailing_channels() {
        let mut t = Tensor::full([2, 4, 2, 2], 1.0);
        mask_channels(&mut t, 3);
        for n in 0..2 {
            for c in 0..4 {
                let expect = if c < 3 { 1.0 } else { 0.0 };
                assert_eq!(t.at(n, c, 0, 0), expect, "n{n} c{c}");
            }
        }
    }

    #[test]
    fn mask_with_full_keep_is_noop() {
        let mut t = Tensor::full([1, 4, 2, 2], 2.0);
        let orig = t.clone();
        mask_channels(&mut t, 4);
        assert_eq!(t, orig);
        mask_channels(&mut t, 10);
        assert_eq!(t, orig);
    }

    #[test]
    fn downsample_skip_shapes() {
        let mut rng = SmallRng::new(1);
        // pad up
        let mut up = DownsampleSkip::new(8, 16);
        let x = Tensor::randn([1, 8, 8, 8], 1.0, &mut rng);
        let y = up.forward(&x, true).unwrap();
        assert_eq!(y.shape().to_vec(), vec![1, 16, 4, 4]);
        // channels beyond c_in are zero
        for c in 8..16 {
            assert_eq!(y.at(0, c, 0, 0), 0.0);
        }
        // truncate down
        let mut down = DownsampleSkip::new(8, 4);
        let y2 = down.forward(&x, true).unwrap();
        assert_eq!(y2.shape().to_vec(), vec![1, 4, 4, 4]);
    }

    #[test]
    fn downsample_skip_pools_values() {
        let mut op = DownsampleSkip::new(1, 1);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let y = op.forward(&x, false).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn downsample_skip_backward_adjoint() {
        let mut rng = SmallRng::new(2);
        let mut op = DownsampleSkip::new(6, 10);
        let x = Tensor::randn([2, 6, 4, 4], 1.0, &mut rng);
        let y = op.forward(&x, true).unwrap();
        let gy = Tensor::randn(y.shape(), 1.0, &mut rng);
        let gx = op.backward(&gy).unwrap();
        // <forward(x), gy> == <x, backward(gy)> for this linear operator
        let lhs: f32 = y.data().iter().zip(gy.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn downsample_skip_rejects_wrong_input() {
        let mut op = DownsampleSkip::new(8, 16);
        assert!(op.forward(&Tensor::zeros([1, 4, 8, 8]), false).is_err());
        assert!(op.backward(&Tensor::zeros([1, 16, 4, 4])).is_err());
    }
}
