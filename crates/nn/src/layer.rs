use crate::NnError;
use hsconas_tensor::conv::Conv2dParams;
use hsconas_tensor::Tensor;

/// Callback invoked for every trainable parameter of a layer.
///
/// Arguments are `(parameter, gradient, apply_weight_decay)`. Batch-norm
/// scale/shift parameters pass `false` for the decay flag, matching common
/// practice (and the paper's SGD settings, which decay only conv/linear
/// weights).
pub type ParamVisitor<'a> = dyn FnMut(&mut Tensor, &mut Tensor, bool) + 'a;

/// Batch-norm statistics mode, used for per-subnet recalibration in
/// weight-sharing supernets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnMode {
    /// Normal training behaviour: exponentially averaged running stats.
    Normal,
    /// Recalibration: running statistics are reset and then accumulated as
    /// a cumulative average over subsequent training-mode forward passes,
    /// so the stats converge exactly to the evaluated path's statistics
    /// regardless of prior state.
    Accumulate,
}

/// A structural snapshot of one layer — its static configuration plus
/// owned copies of its parameters — produced by [`Layer::export`].
///
/// This is the seam between the training stack and the graph compiler
/// (`hsconas-graph`): exports carry everything needed to rebuild the
/// layer's *inference* forward pass as dataflow-graph nodes, and nothing
/// training-specific (no gradients, caches, or optimizer state).
/// Containers flatten (a [`crate::Sequential`] exports its children in
/// forward order); composite blocks export a single structured entry.
#[derive(Debug, Clone)]
pub enum LayerExport {
    /// Bias-free convolution: static params + weight `[c_out, c_in/g, k, k]`.
    Conv {
        /// Convolution geometry.
        params: Conv2dParams,
        /// Weight tensor snapshot.
        weight: Tensor,
    },
    /// Batch normalization in inference form (running statistics).
    BatchNorm {
        /// Scale, shape `[1, C, 1, 1]`.
        gamma: Tensor,
        /// Shift, shape `[1, C, 1, 1]`.
        beta: Tensor,
        /// Per-channel running mean.
        running_mean: Vec<f32>,
        /// Per-channel running variance.
        running_var: Vec<f32>,
        /// Stabilizer added to the variance before the square root.
        eps: f32,
    },
    /// Rectified linear activation.
    Relu,
    /// Channel shuffle with the given group count.
    ChannelShuffle {
        /// Shuffle group count.
        groups: usize,
    },
    /// Global average pooling to `1×1`.
    GlobalAvgPool,
    /// Fully connected layer on `[n, c, 1, 1]` activations.
    Linear {
        /// Weight, shape `[out, in, 1, 1]`.
        weight: Tensor,
        /// Bias, shape `[1, out, 1, 1]`.
        bias: Tensor,
    },
    /// A ShuffleNetV2 unit with its branch layers exported recursively.
    ShuffleUnit {
        /// 1 (split/passthrough) or 2 (downsample).
        stride: usize,
        /// Input channel count.
        c_in: usize,
        /// Output channel count.
        c_out: usize,
        /// Left-branch layers (empty for stride-1 passthrough).
        left: Vec<LayerExport>,
        /// Right-branch layers.
        right: Vec<LayerExport>,
    },
    /// Identity (the stride-1 skip operator).
    Identity,
    /// Stride-2 skip: 2×2 average pool then channel pad/truncate to
    /// `c_out` (the supernet's `DownsampleSkip`).
    DownsampleSkip {
        /// Output channel count.
        c_out: usize,
    },
    /// A layer type without a structural export; graph lowering rejects
    /// networks containing one.
    Opaque {
        /// The layer's [`Layer::name`].
        name: &'static str,
    },
}

/// A differentiable network layer with owned parameters.
///
/// The contract is the classic two-pass protocol:
///
/// 1. [`Layer::forward`] consumes an activation and caches whatever it needs
///    for the backward pass (when `train` is `true`).
/// 2. [`Layer::backward`] consumes `∂L/∂output` and returns `∂L/∂input`,
///    *accumulating* parameter gradients into the layer's grad buffers.
///
/// Layers are intentionally object-safe so networks can hold
/// `Box<dyn Layer>` and the supernet can mix heterogeneous candidate
/// operators in one layer slot.
pub trait Layer {
    /// Runs the forward pass. With `train == true` the layer may cache
    /// activations for [`Layer::backward`] and updates any running
    /// statistics (batch norm).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError>;

    /// Runs the backward pass, returning the gradient with respect to the
    /// layer input and accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before a training
    /// forward pass, or a shape error if `grad_out` is inconsistent.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// [`Layer::backward`] for a network's first layer, whose input
    /// gradient nothing reads: accumulates the same parameter gradients,
    /// bit for bit, and may skip computing the input gradient. The default
    /// runs `backward` and drops its result.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        self.backward(grad_out).map(drop)
    }

    /// Visits every `(parameter, gradient, decay)` triple owned by this
    /// layer, in a deterministic order.
    fn visit_params(&mut self, f: &mut ParamVisitor);

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g, _| g.map_inplace(|_| 0.0));
    }

    /// Number of trainable scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p, _, _| count += p.len());
        count
    }

    /// Switches batch-norm statistics handling (no-op for layers without
    /// batch norms; containers must forward to their children).
    fn set_bn_mode(&mut self, _mode: BnMode) {}

    /// Short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Appends this layer's structural snapshot(s) to `out`. Containers
    /// append one entry per child in forward order. The default appends
    /// [`LayerExport::Opaque`], which graph lowering rejects loudly —
    /// a new layer type must opt in explicitly.
    fn export(&self, out: &mut Vec<LayerExport>) {
        out.push(LayerExport::Opaque { name: self.name() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer with no parameters used to exercise the default methods.
    struct Identity;

    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
            Ok(grad_out.clone())
        }
        fn visit_params(&mut self, _f: &mut ParamVisitor) {}
        fn name(&self) -> &'static str {
            "Identity"
        }
    }

    #[test]
    fn defaults_on_parameterless_layer() {
        let mut l = Identity;
        assert_eq!(l.param_count(), 0);
        l.zero_grad(); // must not panic
        let x = Tensor::full([1, 1, 1, 1], 3.0);
        let y = l.forward(&x, true).unwrap();
        assert_eq!(y, x);
        assert_eq!(l.backward(&y).unwrap(), x);
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Layer> = Box::new(Identity);
        assert_eq!(boxed.name(), "Identity");
    }
}
