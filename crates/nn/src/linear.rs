//! Fully connected layer on `[n, c, 1, 1]` activations.
//!
//! The three products (forward `x·Wᵀ`, weight gradient `dyᵀ·x`, input
//! gradient `dy·W`) go through `hsconas_tensor::kernels::gemm`, which
//! dispatches onto the runtime-selected GEMM kernel; classifier-head
//! shapes are small enough that the selector usually keeps them on the
//! direct path. The weight operand of the forward and input-gradient
//! products carries a pack-cache tag, so large heads pack the weight once
//! per mutation generation in the persistent panel cache.

use crate::layer::{Layer, ParamVisitor};
use crate::NnError;
use hsconas_tensor::kernels::{gemm, GemmTags, Op};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::{Tensor, TensorError};

/// A fully connected (linear) layer with bias: `y = W x + b`.
///
/// Inputs must be `[n, in_features, 1, 1]`; the classifier head applies it
/// after global average pooling.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// Weight stored as `[out, in, 1, 1]` (row-major `(out, in)` matrix).
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SmallRng) -> Self {
        Linear {
            in_features,
            out_features,
            weight: Tensor::kaiming([out_features, in_features, 1, 1], in_features, rng),
            bias: Tensor::zeros([1, out_features, 1, 1]),
            grad_weight: Tensor::zeros([out_features, in_features, 1, 1]),
            grad_bias: Tensor::zeros([1, out_features, 1, 1]),
            cache_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let s = input.shape();
        if s.c != self.in_features || s.h != 1 || s.w != 1 {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "linear_forward",
                expected: vec![s.n, self.in_features, 1, 1],
                actual: s.to_vec(),
            }));
        }
        // y (n × out) = x (n × in) · Wᵀ (in × out)
        let mut out = Tensor::zeros([s.n, self.out_features, 1, 1]);
        gemm(
            Op::ABt,
            input.data(),
            self.weight.data(),
            out.data_mut(),
            s.n,
            self.in_features,
            self.out_features,
            true,
            GemmTags::b_tag(self.weight.pack_tag()),
        );
        for n in 0..s.n {
            for o in 0..self.out_features {
                *out.at_mut(n, o, 0, 0) += self.bias.at(0, o, 0, 0);
            }
        }
        self.cache_input = train.then(|| input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cache_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Linear" })?;
        let n = input.shape().n;
        let expect = [n, self.out_features, 1, 1];
        if grad_out.shape().to_vec() != expect {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "linear_backward",
                expected: expect.to_vec(),
                actual: grad_out.shape().to_vec(),
            }));
        }
        // dW (out × in) += dyᵀ (out × n) · x (n × in)
        gemm(
            Op::AtB,
            grad_out.data(),
            input.data(),
            self.grad_weight.data_mut(),
            self.out_features,
            n,
            self.in_features,
            true,
            GemmTags::default(),
        );
        for ni in 0..n {
            for o in 0..self.out_features {
                *self.grad_bias.at_mut(0, o, 0, 0) += grad_out.at(ni, o, 0, 0);
            }
        }
        // dx (n × in) = dy (n × out) · W (out × in)
        let mut grad_in = Tensor::zeros([n, self.in_features, 1, 1]);
        gemm(
            Op::Ab,
            grad_out.data(),
            self.weight.data(),
            grad_in.data_mut(),
            n,
            self.out_features,
            self.in_features,
            true,
            GemmTags::b_tag(self.weight.pack_tag()),
        );
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor) {
        f(&mut self.weight, &mut self.grad_weight, true);
        f(&mut self.bias, &mut self.grad_bias, false);
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn export(&self, out: &mut Vec<crate::layer::LayerExport>) {
        out.push(crate::layer::LayerExport::Linear {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut rng = SmallRng::new(1);
        let mut fc = Linear::new(2, 2, &mut rng);
        // Overwrite weights with a known matrix [[1, 2], [3, 4]], bias [10, 20].
        fc.visit_params(&mut |p, _, decay| {
            if decay {
                p.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            } else {
                p.data_mut().copy_from_slice(&[10.0, 20.0]);
            }
        });
        let x = Tensor::from_vec([1, 2, 1, 1], vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[13.0, 27.0]);
    }

    #[test]
    fn rejects_spatial_input() {
        let mut rng = SmallRng::new(2);
        let mut fc = Linear::new(4, 2, &mut rng);
        assert!(fc.forward(&Tensor::zeros([1, 4, 2, 2]), false).is_err());
        assert!(fc.forward(&Tensor::zeros([1, 3, 1, 1]), false).is_err());
    }

    #[test]
    fn backward_finite_difference() {
        let mut rng = SmallRng::new(3);
        let mut fc = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn([2, 3, 1, 1], 1.0, &mut rng);
        let mask = Tensor::randn([2, 2, 1, 1], 1.0, &mut rng);
        let y = fc.forward(&x, true).unwrap();
        assert_eq!(y.shape().to_vec(), vec![2, 2, 1, 1]);
        let grad_in = fc.backward(&mask).unwrap();

        let eps = 1e-2f32;
        let loss = |fc: &mut Linear, x: &Tensor| -> f32 {
            let y = fc.forward(x, false).unwrap();
            y.data().iter().zip(mask.data()).map(|(a, b)| a * b).sum()
        };
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut fc, &xp) - loss(&mut fc, &xm)) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!((num - ana).abs() < 1e-2, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn weight_gradient_finite_difference() {
        let mut rng = SmallRng::new(4);
        let mut fc = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn([3, 2, 1, 1], 1.0, &mut rng);
        let mask = Tensor::randn([3, 2, 1, 1], 1.0, &mut rng);
        fc.forward(&x, true).unwrap();
        fc.backward(&mask).unwrap();
        let mut grads = Vec::new();
        fc.visit_params(&mut |_, g, _| grads.push(g.clone()));
        let eps = 1e-2f32;
        // check first weight element
        let perturb = |delta: f32, fc: &mut Linear| -> f32 {
            fc.visit_params(&mut |p, _, decay| {
                if decay {
                    p.data_mut()[0] += delta;
                }
            });
            let y = fc.forward(&x, false).unwrap();
            let v = y.data().iter().zip(mask.data()).map(|(a, b)| a * b).sum();
            fc.visit_params(&mut |p, _, decay| {
                if decay {
                    p.data_mut()[0] -= delta;
                }
            });
            v
        };
        let num = (perturb(eps, &mut fc) - perturb(-eps, &mut fc)) / (2.0 * eps);
        let ana = grads[0].data()[0];
        assert!((num - ana).abs() < 1e-2, "{num} vs {ana}");
    }

    #[test]
    fn param_count() {
        let mut rng = SmallRng::new(5);
        let mut fc = Linear::new(10, 5, &mut rng);
        assert_eq!(fc.param_count(), 10 * 5 + 5);
    }
}
