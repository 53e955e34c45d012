//! Sequential container for composing layers.

use crate::layer::{Layer, ParamVisitor};
use crate::NnError;
use hsconas_tensor::Tensor;

/// A network that applies its layers in order. `Sequential` itself
/// implements [`Layer`], so containers nest freely (blocks inside stages
/// inside networks).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, builder style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Runs the first layer's [`Layer::backward_params`] after the rest's
    /// full backward: the input gradient of a network's first layer is
    /// never read, so its input-gradient products are skipped.
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out))?);
        }
        first.backward_params(g.as_ref().unwrap_or(grad_out))
    }

    fn visit_params(&mut self, f: &mut ParamVisitor) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn set_bn_mode(&mut self, mode: crate::layer::BnMode) {
        for layer in &mut self.layers {
            layer.set_bn_mode(mode);
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn export(&self, out: &mut Vec<crate::layer::LayerExport>) {
        for layer in &self.layers {
            layer.export(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Relu};
    use hsconas_tensor::rng::SmallRng;

    #[test]
    fn forward_composes_in_order() {
        let mut rng = SmallRng::new(1);
        let mut net = Sequential::new()
            .push(Conv2d::pointwise(2, 4, &mut rng))
            .push(Relu::new())
            .push(Conv2d::pointwise(4, 3, &mut rng));
        let x = Tensor::randn([1, 2, 5, 5], 1.0, &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape().to_vec(), vec![1, 3, 5, 5]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn backward_composes_in_reverse() {
        let mut rng = SmallRng::new(2);
        let mut net = Sequential::new()
            .push(Conv2d::pointwise(2, 4, &mut rng))
            .push(Relu::new());
        let x = Tensor::randn([1, 2, 3, 3], 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        let g = net.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn backward_params_matches_backward_gradient_bits() {
        let build = || {
            let mut rng = SmallRng::new(4);
            Sequential::new()
                .push(Conv2d::new(3, 4, 3, 2, 1, 1, &mut rng))
                .push(Relu::new())
                .push(Conv2d::pointwise(4, 3, &mut rng))
        };
        let (mut full, mut alone) = (build(), build());
        let mut rng = SmallRng::new(5);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let y = full.forward(&x, true).unwrap();
        alone.forward(&x, true).unwrap();
        let g = Tensor::randn(y.shape(), 1.0, &mut rng);
        full.backward(&g).unwrap();
        alone.backward_params(&g).unwrap();
        let bits = |net: &mut Sequential| {
            let mut out = Vec::new();
            net.visit_params(&mut |_, grad, _| {
                out.extend(grad.data().iter().map(|v| v.to_bits()));
            });
            out
        };
        let want = bits(&mut full);
        assert!(want.iter().any(|&b| b != 0));
        assert_eq!(want, bits(&mut alone));
    }

    #[test]
    fn visits_all_params() {
        let mut rng = SmallRng::new(3);
        let mut net = Sequential::new()
            .push(Conv2d::pointwise(2, 4, &mut rng))
            .push(Conv2d::pointwise(4, 3, &mut rng));
        assert_eq!(net.param_count(), 2 * 4 + 4 * 3);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::full([1, 1, 1, 1], 5.0);
        assert_eq!(net.forward(&x, true).unwrap(), x);
    }
}
