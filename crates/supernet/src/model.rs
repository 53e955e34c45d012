//! The full supernet: stem + mixed layers + head.

use crate::mixed::MixedLayer;
use crate::SupernetError;
use hsconas_nn::{
    BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, ParamVisitor, Relu, Sequential,
};
use hsconas_space::{Arch, NetworkSkeleton};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// The weight-sharing supernet over a [`NetworkSkeleton`].
pub struct Supernet {
    skeleton: NetworkSkeleton,
    stem: Sequential,
    layers: Vec<MixedLayer>,
    head: Sequential,
}

impl std::fmt::Debug for Supernet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supernet")
            .field("layers", &self.layers.len())
            .field("skeleton", &self.skeleton)
            .finish()
    }
}

impl Supernet {
    /// Builds a supernet with freshly initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if any block is unconstructible for the
    /// skeleton's widths.
    pub fn build(skeleton: &NetworkSkeleton, rng: &mut SmallRng) -> Result<Self, SupernetError> {
        let stem = Sequential::new()
            .push(Conv2d::new(
                skeleton.input_channels,
                skeleton.stem_channels,
                3,
                2,
                1,
                1,
                rng,
            ))
            .push(BatchNorm2d::new(skeleton.stem_channels))
            .push(Relu::new());
        let mut layers = Vec::with_capacity(skeleton.num_layers());
        let mut c_in = skeleton.stem_channels;
        for slot in skeleton.layer_slots() {
            layers.push(MixedLayer::build(
                slot.index,
                c_in,
                slot.max_channels,
                slot.stride,
                rng,
            )?);
            c_in = slot.max_channels;
        }
        let head = Sequential::new()
            .push(Conv2d::pointwise(c_in, skeleton.head_channels, rng))
            .push(BatchNorm2d::new(skeleton.head_channels))
            .push(Relu::new())
            .push(GlobalAvgPool::new())
            .push(Linear::new(
                skeleton.head_channels,
                skeleton.num_classes,
                rng,
            ));
        Ok(Supernet {
            skeleton: skeleton.clone(),
            stem,
            layers,
            head,
        })
    }

    /// The skeleton this supernet was built for.
    pub fn skeleton(&self) -> &NetworkSkeleton {
        &self.skeleton
    }

    /// Number of mixed layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The stem container (conv → BN → ReLU), for structural export.
    pub fn stem(&self) -> &Sequential {
        &self.stem
    }

    /// The head container (pointwise conv → BN → ReLU → global pool →
    /// linear), for structural export.
    pub fn head(&self) -> &Sequential {
        &self.head
    }

    /// The mixed layers in network order, for structural export.
    pub fn mixed_layers(&self) -> &[MixedLayer] {
        &self.layers
    }

    /// Checks that `arch` has one gene per mixed layer.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::Structure`] on a length mismatch.
    pub fn check_arch(&self, arch: &Arch) -> Result<(), SupernetError> {
        if arch.len() != self.layers.len() {
            return Err(SupernetError::Structure {
                detail: format!(
                    "arch has {} layers, supernet has {}",
                    arch.len(),
                    self.layers.len()
                ),
            });
        }
        Ok(())
    }

    /// Forward pass along the path selected by `arch`, returning logits
    /// `[n, classes, 1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if `arch` does not match the skeleton or a
    /// layer fails.
    pub fn forward(
        &mut self,
        input: &Tensor,
        arch: &Arch,
        train: bool,
    ) -> Result<Tensor, SupernetError> {
        self.check_arch(arch)?;
        let mut x = self.forward_stem(input, train)?;
        for (index, gene) in arch.genes().iter().enumerate() {
            x = self.forward_layer(index, &x, *gene, train)?;
        }
        self.forward_head(&x, train)
    }

    /// Runs only the fixed stem. Together with [`Self::forward_layer`] and
    /// [`Self::forward_head`] this decomposes [`Self::forward`] into the
    /// exact same operation sequence, which is what the prefix-activation
    /// cache resumes from: a cached boundary activation replaces the stem +
    /// prefix-layer computation bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if a stem layer fails.
    pub fn forward_stem(&mut self, input: &Tensor, train: bool) -> Result<Tensor, SupernetError> {
        Ok(self.stem.forward(input, train)?)
    }

    /// Runs one mixed layer on `input` with `gene`'s candidate and mask.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if `index` is out of range or the
    /// candidate fails.
    pub fn forward_layer(
        &mut self,
        index: usize,
        input: &Tensor,
        gene: hsconas_space::Gene,
        train: bool,
    ) -> Result<Tensor, SupernetError> {
        let count = self.layers.len();
        let layer = self
            .layers
            .get_mut(index)
            .ok_or_else(|| SupernetError::Structure {
                detail: format!("layer index {index} out of range ({count} layers)"),
            })?;
        layer.forward_gene(input, gene, train)
    }

    /// Runs only the classification head on a final-layer activation.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if a head layer fails.
    pub fn forward_head(&mut self, input: &Tensor, train: bool) -> Result<Tensor, SupernetError> {
        Ok(self.head.forward(input, train)?)
    }

    /// Backward pass along the path of the last training forward: it
    /// accumulates every parameter gradient on the path. The input
    /// gradient is not computed (nothing reads it), so the stem conv runs
    /// [`Layer::backward_params`].
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if no training forward preceded this call.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<(), SupernetError> {
        let mut g = self.head.backward(grad_logits)?;
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_active(&g)?;
        }
        Ok(self.stem.backward_params(&g)?)
    }

    /// Visits every parameter (stem, all candidates of all layers, head).
    pub fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.stem.visit_params(f);
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
        self.head.visit_params(f);
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _, _| n += p.len());
        n
    }

    /// Switches batch-norm statistics handling everywhere (stem, all
    /// candidates, head) — used by per-subnet BN recalibration.
    pub fn set_bn_mode(&mut self, mode: hsconas_nn::BnMode) {
        self.stem.set_bn_mode(mode);
        for layer in &mut self.layers {
            layer.set_bn_mode(mode);
        }
        self.head.set_bn_mode(mode);
    }

    /// Switches batch-norm statistics handling for layers `depth..` and the
    /// head only, leaving the stem and layers `..depth` untouched.
    ///
    /// This is the partial-recalibration primitive behind prefix-activation
    /// reuse: when evaluation resumes from a cached activation at `depth`,
    /// the skipped prefix never runs, so its (stale) statistics are never
    /// read and must not be reset — resetting them would force a full
    /// recomputation for the *next* candidate sharing the prefix.
    pub fn set_bn_mode_from(&mut self, depth: usize, mode: hsconas_nn::BnMode) {
        for layer in self.layers.iter_mut().skip(depth) {
            layer.set_bn_mode(mode);
        }
        self.head.set_bn_mode(mode);
    }
}

/// Adapter so the optimizer (which takes `&mut dyn Layer`) can drive the
/// supernet. Forward/backward are only valid through
/// [`Supernet::forward`] / [`Supernet::backward`] because path selection
/// needs an architecture.
pub struct SupernetParams<'a>(pub &'a mut Supernet);

impl Layer for SupernetParams<'_> {
    fn forward(&mut self, _input: &Tensor, _train: bool) -> Result<Tensor, hsconas_nn::NnError> {
        Err(hsconas_nn::NnError::InvalidConfig {
            layer: "SupernetParams",
            detail: "use Supernet::forward with an architecture".into(),
        })
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Result<Tensor, hsconas_nn::NnError> {
        Err(hsconas_nn::NnError::InvalidConfig {
            layer: "SupernetParams",
            detail: "use Supernet::backward".into(),
        })
    }

    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.0.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "Supernet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::{ChannelScale, Gene, OpKind, SearchSpace};

    fn tiny_supernet(seed: u64) -> Supernet {
        let mut rng = SmallRng::new(seed);
        Supernet::build(SearchSpace::tiny(4).skeleton(), &mut rng).unwrap()
    }

    #[test]
    fn forward_shapes_for_random_archs() {
        let mut net = tiny_supernet(1);
        let mut rng = SmallRng::new(2);
        let space = SearchSpace::tiny(4);
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        use rand::SeedableRng;
        let mut arch_rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let arch = space.sample(&mut arch_rng);
            let y = net.forward(&x, &arch, false).unwrap();
            assert_eq!(y.shape().to_vec(), vec![2, 4, 1, 1]);
        }
    }

    /// Every parameter gradient, as bits, in visiting order.
    fn grad_bits(net: &mut Supernet) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |_, g, _| bits.extend(g.data().iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn backward_after_forward_reaches_stem_weights() {
        let mut net = tiny_supernet(4);
        let mut rng = SmallRng::new(5);
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        let arch = Arch::widest(4);
        let y = net.forward(&x, &arch, true).unwrap();
        net.backward(&Tensor::randn(y.shape(), 1.0, &mut rng))
            .unwrap();
        let mut stem = Vec::new();
        net.stem
            .visit_params(&mut |_, g, _| stem.extend_from_slice(g.data()));
        assert!(stem.iter().all(|v| v.is_finite()));
        assert!(
            stem.iter().any(|&v| v != 0.0),
            "no gradient reached the stem"
        );
    }

    #[test]
    fn stem_skip_keeps_parameter_gradients_bit_identical() {
        let mut rng = SmallRng::new(12);
        let x = Tensor::randn([3, 3, 32, 32], 1.0, &mut rng);
        let space = SearchSpace::tiny(4);
        use rand::SeedableRng;
        let mut arch_rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..3 {
            let arch = space.sample(&mut arch_rng);
            let (mut skip, mut full) = (tiny_supernet(14), tiny_supernet(14));
            let y = skip.forward(&x, &arch, true).unwrap();
            full.forward(&x, &arch, true).unwrap();
            let dy = Tensor::randn(y.shape(), 1.0, &mut rng);
            skip.backward(&dy).unwrap();
            // The full backward, down to the input gradient.
            let mut g = full.head.backward(&dy).unwrap();
            for layer in full.layers.iter_mut().rev() {
                g = layer.backward_active(&g).unwrap();
            }
            assert_eq!(full.stem.backward(&g).unwrap().shape(), x.shape());
            assert_eq!(grad_bits(&mut skip), grad_bits(&mut full), "{arch}");
        }
    }

    #[test]
    fn wrong_arch_length_rejected() {
        let mut net = tiny_supernet(6);
        let x = Tensor::zeros([1, 3, 32, 32]);
        assert!(net.forward(&x, &Arch::widest(7), false).is_err());
    }

    #[test]
    fn narrow_paths_share_weights_with_wide_paths() {
        // Evaluating a narrow arch must produce logits equal to the wide
        // arch's logits computed with masked channels — weight sharing in
        // action. We verify indirectly: the narrow path's output differs
        // from the wide path's (mask does something) but the parameter set
        // is identical (shared storage).
        let mut net = tiny_supernet(7);
        let before = net.param_count();
        let mut rng = SmallRng::new(8);
        let x = Tensor::randn([1, 3, 32, 32], 1.0, &mut rng);
        let wide = Arch::widest(4);
        let mut narrow = Arch::widest(4);
        for l in 0..4 {
            narrow
                .set_gene(
                    l,
                    Gene::new(OpKind::Shuffle3, ChannelScale::from_tenths(5).unwrap()),
                )
                .unwrap();
        }
        let yw = net.forward(&x, &wide, false).unwrap();
        let yn = net.forward(&x, &narrow, false).unwrap();
        assert_ne!(yw, yn);
        assert_eq!(
            net.param_count(),
            before,
            "evaluation must not grow the net"
        );
    }

    #[test]
    fn param_count_scales_with_candidates() {
        let mut net = tiny_supernet(9);
        // 4 mixed layers × 5 candidates with parameters (skip has none),
        // plus stem and head.
        assert!(net.param_count() > 10_000);
    }

    #[test]
    fn params_adapter_rejects_direct_use() {
        let mut net = tiny_supernet(10);
        let mut adapter = SupernetParams(&mut net);
        assert!(adapter
            .forward(&Tensor::zeros([1, 3, 32, 32]), true)
            .is_err());
        assert!(adapter.backward(&Tensor::zeros([1, 4, 1, 1])).is_err());
        assert_eq!(adapter.name(), "Supernet");
    }
}
