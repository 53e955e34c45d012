//! The global average pooling layer, wrapping the kernels in
//! [`hsconas_tensor::pool`].

use crate::layer::{Layer, ParamVisitor};
use crate::NnError;
use hsconas_tensor::pool;
use hsconas_tensor::{Shape4, Tensor};

/// Global average pooling layer: `[n, c, h, w] -> [n, c, 1, 1]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cache_shape: Option<Shape4>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.cache_shape = Some(input.shape());
        }
        Ok(pool::global_avg_pool(input))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self.cache_shape.ok_or(NnError::MissingForwardCache {
            layer: "GlobalAvgPool",
        })?;
        Ok(pool::global_avg_pool_backward(shape, grad_out)?)
    }

    fn visit_params(&mut self, _f: &mut ParamVisitor) {}

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn export(&self, out: &mut Vec<crate::layer::LayerExport>) {
        out.push(crate::layer::LayerExport::GlobalAvgPool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_roundtrip() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let mut gap = GlobalAvgPool::new();
        let y = gap.forward(&x, true).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), 3.0);
        let g = gap.backward(&Tensor::full([1, 1, 1, 1], 4.0)).unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_requires_forward() {
        assert!(GlobalAvgPool::new()
            .backward(&Tensor::zeros([1, 1, 1, 1]))
            .is_err());
    }
}
