//! Activation layers.

use crate::layer::{Layer, ParamVisitor};
use crate::NnError;
use hsconas_tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        }
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Relu" })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::Tensor(
                hsconas_tensor::TensorError::ShapeMismatch {
                    op: "relu_backward",
                    expected: vec![mask.len()],
                    actual: vec![grad_out.len()],
                },
            ));
        }
        let mut g = grad_out.clone();
        // A select, not a branch on the mask: same bits, and it vectorizes.
        for (v, &keep) in g.data_mut().iter_mut().zip(mask) {
            *v = if keep { *v } else { 0.0 };
        }
        Ok(g)
    }

    fn visit_params(&mut self, _f: &mut ParamVisitor) {}

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn export(&self, out: &mut Vec<crate::layer::LayerExport>) {
        out.push(crate::layer::LayerExport::Relu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = Relu::new().forward(&x, false).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let x = Tensor::from_vec([1, 1, 1, 4], vec![-1.0, 0.5, 2.0, -3.0]).unwrap();
        let mut relu = Relu::new();
        relu.forward(&x, true).unwrap();
        let g = Tensor::full([1, 1, 1, 4], 1.0);
        let gi = relu.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_select_matches_branch_bit_for_bit() {
        let mut rng = hsconas_tensor::rng::SmallRng::new(3);
        let mut x = Tensor::randn([2, 3, 5, 5], 1.0, &mut rng);
        let mut g = Tensor::randn(x.shape(), 1.0, &mut rng);
        // Zeros of both signs in the input and in the gradient.
        x.data_mut()[..4].copy_from_slice(&[0.0, -0.0, 0.0, -0.0]);
        g.data_mut()[..4].copy_from_slice(&[-0.0, 0.0, 1.0, -1.0]);
        g.data_mut()[10] = -0.0;
        let mut relu = Relu::new();
        relu.forward(&x, true).unwrap();
        let got = relu.backward(&g).unwrap();
        // The branch the select replaced.
        let mut want = g.clone();
        for (v, &xv) in want.data_mut().iter_mut().zip(x.data()) {
            let keep = xv > 0.0;
            if !keep {
                *v = 0.0;
            }
        }
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::zeros([1, 1, 1, 1]), false).unwrap();
        assert!(relu.backward(&Tensor::zeros([1, 1, 1, 1])).is_err());
    }

    #[test]
    fn backward_shape_mismatch() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::zeros([1, 1, 1, 4]), true).unwrap();
        assert!(relu.backward(&Tensor::zeros([1, 1, 1, 3])).is_err());
    }
}
