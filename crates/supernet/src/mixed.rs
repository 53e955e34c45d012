//! A supernet layer slot holding all K candidate operators.

use crate::masked::{mask_channels, DownsampleSkip};
use crate::SupernetError;
use hsconas_nn::{Layer, NnError, ParamVisitor, ShuffleUnit, ShuffleUnitKind, SkipConnection};
use hsconas_space::{Gene, OpKind};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// Builds candidate operator `op` for a slot of the given widths and
/// stride — the one place an [`OpKind`] becomes a layer, shared by the
/// supernet's [`MixedLayer`] and the standalone subnet builder. Parametric
/// operators are [`ShuffleUnit`]s (weights drawn right branch first, then
/// left); skip is the identity at stride 1 and [`DownsampleSkip`]
/// otherwise.
///
/// # Errors
///
/// Returns [`SupernetError`] if the unit cannot be built for the given
/// widths and stride (odd channel counts and similar).
pub fn build_operator(
    op: OpKind,
    c_in: usize,
    c_out: usize,
    stride: usize,
    rng: &mut SmallRng,
) -> Result<Box<dyn Layer>, SupernetError> {
    let kind = match op {
        OpKind::Shuffle3 => ShuffleUnitKind::Standard { kernel: 3 },
        OpKind::Shuffle5 => ShuffleUnitKind::Standard { kernel: 5 },
        OpKind::Shuffle7 => ShuffleUnitKind::Standard { kernel: 7 },
        OpKind::Xception => ShuffleUnitKind::Xception,
        OpKind::Skip if stride == 1 => return Ok(Box::new(SkipConnection::new())),
        OpKind::Skip => return Ok(Box::new(DownsampleSkip::new(c_in, c_out))),
    };
    Ok(Box::new(ShuffleUnit::new(kind, c_in, c_out, stride, rng)?))
}

/// One supernet layer: all five candidate operators built at the slot's
/// maximum width, with single-path forward/backward selection and output
/// channel masking per the sampled gene.
pub struct MixedLayer {
    index: usize,
    stride: usize,
    c_in: usize,
    c_out: usize,
    candidates: Vec<Box<dyn Layer>>,
    /// `(candidate index, masked width)` of the last training forward.
    active: Option<(usize, usize)>,
}

impl std::fmt::Debug for MixedLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixedLayer")
            .field("index", &self.index)
            .field("stride", &self.stride)
            .field("c_in", &self.c_in)
            .field("c_out", &self.c_out)
            .field("candidates", &self.candidates.len())
            .finish()
    }
}

impl MixedLayer {
    /// Builds the layer slot with one instance of every candidate operator.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if a block cannot be constructed for the
    /// given widths (odd channel counts and similar).
    pub fn build(
        index: usize,
        c_in: usize,
        c_out: usize,
        stride: usize,
        rng: &mut SmallRng,
    ) -> Result<Self, SupernetError> {
        let candidates = OpKind::ALL
            .into_iter()
            .map(|op| build_operator(op, c_in, c_out, stride, rng))
            .collect::<Result<_, _>>()?;
        Ok(MixedLayer {
            index,
            stride,
            c_in,
            c_out,
            candidates,
            active: None,
        })
    }

    /// Maximum output width `S^l`.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Input width (the previous slot's maximum output width).
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// The slot's stride (1 or 2).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The candidate operator at `op_index` (canonical [`OpKind::ALL`]
    /// order), for structural export.
    ///
    /// # Panics
    ///
    /// Panics if `op_index >= 5`.
    pub fn candidate(&self, op_index: usize) -> &dyn Layer {
        &*self.candidates[op_index]
    }

    /// Runs the selected candidate with the gene's channel mask:
    /// `I^l × op^l(x)`. A stride-1 skip is left unmasked (there is nothing
    /// to scale on an identity).
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if the candidate fails.
    pub fn forward_gene(
        &mut self,
        input: &Tensor,
        gene: Gene,
        train: bool,
    ) -> Result<Tensor, SupernetError> {
        let idx = gene.op.index();
        let mut out = self.candidates[idx].forward(input, train)?;
        let keep = if gene.op == OpKind::Skip && self.stride == 1 {
            out.shape().c
        } else {
            gene.scale.apply(self.c_out)
        };
        mask_channels(&mut out, keep);
        if train {
            self.active = Some((idx, keep));
        }
        Ok(out)
    }

    /// Backward pass through the candidate selected by the last training
    /// forward, masking the incoming gradient identically.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if no training forward preceded this call.
    pub fn backward_active(&mut self, grad_out: &Tensor) -> Result<Tensor, SupernetError> {
        let (idx, keep) = self.active.ok_or({
            SupernetError::Nn(NnError::MissingForwardCache {
                layer: "MixedLayer",
            })
        })?;
        let mut g = grad_out.clone();
        mask_channels(&mut g, keep);
        Ok(self.candidates[idx].backward(&g)?)
    }

    /// Visits all candidates' parameters (deterministic order).
    pub fn visit_params(&mut self, f: &mut ParamVisitor) {
        for c in &mut self.candidates {
            c.visit_params(f);
        }
    }

    /// Forwards a batch-norm mode switch to every candidate.
    pub fn set_bn_mode(&mut self, mode: hsconas_nn::BnMode) {
        for c in &mut self.candidates {
            c.set_bn_mode(mode);
        }
    }

    /// Total parameter count across candidates.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _, _| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::ChannelScale;

    fn gene(op: OpKind, tenths: u8) -> Gene {
        Gene::new(op, ChannelScale::from_tenths(tenths).unwrap())
    }

    #[test]
    fn all_candidates_share_output_shape() {
        let mut rng = SmallRng::new(1);
        let mut layer = MixedLayer::build(0, 8, 16, 2, &mut rng).unwrap();
        let x = Tensor::randn([1, 8, 8, 8], 1.0, &mut rng);
        for op in OpKind::ALL {
            let y = layer.forward_gene(&x, gene(op, 10), false).unwrap();
            assert_eq!(y.shape().to_vec(), vec![1, 16, 4, 4], "{op}");
        }
    }

    #[test]
    fn masking_zeroes_exactly_the_scaled_tail() {
        let mut rng = SmallRng::new(2);
        let mut layer = MixedLayer::build(0, 8, 16, 2, &mut rng).unwrap();
        let x = Tensor::randn([1, 8, 8, 8], 1.0, &mut rng);
        let y = layer
            .forward_gene(&x, gene(OpKind::Shuffle3, 5), false)
            .unwrap();
        let keep = ChannelScale::from_tenths(5).unwrap().apply(16);
        assert_eq!(keep, 8);
        for c in 0..16 {
            let plane_norm: f32 = (0..4)
                .flat_map(|h| (0..4).map(move |w| (h, w)))
                .map(|(h, w)| y.at(0, c, h, w).abs())
                .sum();
            if c < keep {
                assert!(plane_norm > 0.0, "kept channel {c} is zero");
            } else {
                assert_eq!(plane_norm, 0.0, "masked channel {c} is nonzero");
            }
        }
    }

    #[test]
    fn masking_is_exact_through_packed_kernels() {
        // Large enough that the im2col GEMMs leave the tiny/direct shape
        // class and run through the packed microkernel path wherever the
        // runtime selector picks it (AVX2 hosts). Masked channels must stay
        // *exactly* zero — not merely small — because the pack-level zero
        // skip in downstream layers relies on bitwise-zero rows.
        let mut rng = SmallRng::new(7);
        let mut layer = MixedLayer::build(0, 64, 64, 1, &mut rng).unwrap();
        let x = Tensor::randn([1, 64, 16, 16], 1.0, &mut rng);
        let y = layer
            .forward_gene(&x, gene(OpKind::Shuffle3, 5), false)
            .unwrap();
        let keep = ChannelScale::from_tenths(5).unwrap().apply(64);
        assert_eq!(keep, 32);
        for c in keep..64 {
            for h in 0..16 {
                for w in 0..16 {
                    assert_eq!(
                        y.at(0, c, h, w),
                        0.0,
                        "masked channel {c} at ({h},{w}) is nonzero"
                    );
                }
            }
        }
        let kept_norm: f32 = (0..keep)
            .map(|c| y.at(0, c, 0, 0).abs() + y.at(0, c, 8, 8).abs())
            .sum();
        assert!(kept_norm > 0.0, "kept channels are all zero");
    }

    #[test]
    fn stride1_skip_is_not_masked() {
        let mut rng = SmallRng::new(3);
        let mut layer = MixedLayer::build(1, 16, 16, 1, &mut rng).unwrap();
        let x = Tensor::randn([1, 16, 4, 4], 1.0, &mut rng);
        let y = layer
            .forward_gene(&x, gene(OpKind::Skip, 1), false)
            .unwrap();
        assert_eq!(
            y, x,
            "stride-1 skip must be the identity regardless of scale"
        );
    }

    #[test]
    fn backward_uses_selected_candidate() {
        let mut rng = SmallRng::new(4);
        let mut layer = MixedLayer::build(0, 8, 8, 1, &mut rng).unwrap();
        let x = Tensor::randn([1, 8, 4, 4], 1.0, &mut rng);
        let y = layer
            .forward_gene(&x, gene(OpKind::Shuffle5, 10), true)
            .unwrap();
        let g = layer
            .backward_active(&Tensor::full(y.shape(), 1.0))
            .unwrap();
        assert_eq!(g.shape(), x.shape());
        // gradients must have reached only the shuffle5 candidate
        let mut per_candidate = Vec::new();
        for (i, c) in layer.candidates.iter_mut().enumerate() {
            let mut norm = 0.0f32;
            c.visit_params(&mut |_, grad, _| norm += grad.norm());
            per_candidate.push((i, norm));
        }
        for (i, norm) in per_candidate {
            if i == OpKind::Shuffle5.index() {
                assert!(norm > 0.0, "selected candidate has no gradient");
            } else {
                assert_eq!(norm, 0.0, "candidate {i} leaked gradient");
            }
        }
    }

    #[test]
    fn masked_gradient_respects_mask() {
        let mut rng = SmallRng::new(5);
        let mut layer = MixedLayer::build(0, 8, 16, 2, &mut rng).unwrap();
        let x = Tensor::randn([1, 8, 8, 8], 1.0, &mut rng);
        layer
            .forward_gene(&x, gene(OpKind::Shuffle3, 5), true)
            .unwrap();
        // gradient arriving at masked channels must not influence anything
        let mut g_full = Tensor::zeros([1, 16, 4, 4]);
        for c in 8..16 {
            for h in 0..4 {
                for w in 0..4 {
                    *g_full.at_mut(0, c, h, w) = 100.0;
                }
            }
        }
        let g_in = layer.backward_active(&g_full).unwrap();
        assert_eq!(g_in.norm(), 0.0, "masked-channel gradient leaked");
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = SmallRng::new(6);
        let mut layer = MixedLayer::build(0, 8, 8, 1, &mut rng).unwrap();
        assert!(layer.backward_active(&Tensor::zeros([1, 8, 4, 4])).is_err());
    }
}
