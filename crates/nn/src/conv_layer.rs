//! Convolution layer owning its weight and gradient buffers.

use crate::layer::{Layer, LayerExport, ParamVisitor};
use crate::NnError;
use hsconas_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dParams};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// A bias-free 2-D convolution layer (bias is subsumed by the batch norm
/// that always follows it in ShuffleNetV2-style blocks).
#[derive(Debug, Clone)]
pub struct Conv2d {
    params: Conv2dParams,
    weight: Tensor,
    grad: Tensor,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a standard convolution with Kaiming-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the parameter combination is invalid (zero sizes, or a
    /// grouping that is neither dense nor depthwise); constructing a layer
    /// with invalid static configuration is a programming error, not a
    /// runtime condition.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let params = Conv2dParams {
            c_in,
            c_out,
            kernel,
            stride,
            pad,
            groups,
        };
        params
            .validate()
            .expect("Conv2d constructed with invalid parameters");
        let fan_in = (c_in / groups) * kernel * kernel;
        let weight = Tensor::kaiming(params.weight_shape(), fan_in, rng);
        let grad = Tensor::zeros(params.weight_shape());
        Conv2d {
            params,
            weight,
            grad,
            cache_input: None,
        }
    }

    /// Creates a pointwise (1×1) convolution.
    pub fn pointwise(c_in: usize, c_out: usize, rng: &mut SmallRng) -> Self {
        Self::new(c_in, c_out, 1, 1, 0, 1, rng)
    }

    /// Creates a depthwise convolution (`groups == c_in == c_out`) with
    /// "same" padding for odd kernels.
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, rng: &mut SmallRng) -> Self {
        Self::new(
            channels,
            channels,
            kernel,
            stride,
            kernel / 2,
            channels,
            rng,
        )
    }

    /// The layer's static convolution parameters.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// Immutable access to the weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        let out = conv2d_forward(input, &self.weight, &self.params)?;
        self.cache_input = train.then(|| input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cache_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let grads = conv2d_backward(input, &self.weight, grad_out, &self.params)?;
        self.grad.axpy(1.0, &grads.weight)?;
        Ok(grads.input)
    }

    fn visit_params(&mut self, f: &mut ParamVisitor) {
        f(&mut self.weight, &mut self.grad, true);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn export(&self, out: &mut Vec<LayerExport>) {
        out.push(LayerExport::Conv {
            params: self.params,
            weight: self.weight.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng::new(1);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, 1, &mut rng);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape().to_vec(), vec![2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_same_padding_preserves_hw() {
        let mut rng = SmallRng::new(2);
        for k in [3, 5, 7] {
            let mut conv = Conv2d::depthwise(4, k, 1, &mut rng);
            let x = Tensor::randn([1, 4, 9, 9], 1.0, &mut rng);
            let y = conv.forward(&x, false).unwrap();
            assert_eq!(y.shape().to_vec(), vec![1, 4, 9, 9], "kernel {k}");
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = SmallRng::new(3);
        let mut conv = Conv2d::pointwise(2, 2, &mut rng);
        let g = Tensor::zeros([1, 2, 1, 1]);
        assert!(matches!(
            conv.backward(&g),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut rng = SmallRng::new(4);
        let mut conv = Conv2d::pointwise(2, 2, &mut rng);
        let x = Tensor::randn([1, 2, 2, 2], 1.0, &mut rng);
        conv.forward(&x, false).unwrap();
        assert!(conv.backward(&Tensor::zeros([1, 2, 2, 2])).is_err());
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = SmallRng::new(5);
        let mut conv = Conv2d::pointwise(2, 2, &mut rng);
        let x = Tensor::randn([1, 2, 3, 3], 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        let g = Tensor::full(y.shape(), 1.0);
        conv.backward(&g).unwrap();
        let norm1 = {
            let mut n = 0.0;
            conv.visit_params(&mut |_, grad, _| n = grad.norm());
            n
        };
        conv.forward(&x, true).unwrap();
        conv.backward(&g).unwrap();
        let norm2 = {
            let mut n = 0.0;
            conv.visit_params(&mut |_, grad, _| n = grad.norm());
            n
        };
        assert!((norm2 - 2.0 * norm1).abs() < 1e-4);
        conv.zero_grad();
        conv.visit_params(&mut |_, grad, _| assert_eq!(grad.norm(), 0.0));
    }

    #[test]
    fn param_count_matches_weight_len() {
        let mut rng = SmallRng::new(6);
        let mut conv = Conv2d::new(4, 6, 3, 1, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 6 * 4 * 3 * 3);
    }

    #[test]
    #[should_panic(expected = "invalid parameters")]
    fn invalid_construction_panics() {
        let mut rng = SmallRng::new(7);
        let _ = Conv2d::new(5, 4, 3, 1, 1, 2, &mut rng);
    }
}
