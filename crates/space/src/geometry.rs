//! Resolves an [`Arch`] against a
//! [`NetworkSkeleton`] into concrete per-layer
//! geometry (channel counts, resolutions, strides) — the common input of
//! the cost model, the hardware simulator, and the supernet builder.
//!
//! [`LayerGeom::convs`] is the one statement of which convolutions a
//! searchable layer runs. The cost model ([`crate::cost::layer_cost`]) and
//! the simulator lowering (`hsconas_hwsim::lower_layer`) both read it, and
//! a drift-guard test in `hsconas-supernet` holds it equal, conv by conv,
//! to what the training unit (`hsconas_nn::ShuffleUnit`) builds.

use crate::{Arch, NetworkSkeleton, OpKind, SpaceError};
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// Concrete geometry of one searchable layer after channel scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerGeom {
    /// Zero-based layer index.
    pub index: usize,
    /// Chosen operator.
    pub op: OpKind,
    /// Input channels (the previous layer's output).
    pub c_in: usize,
    /// Output channels after applying the scaling factor to `S^l`.
    pub c_out: usize,
    /// Input spatial resolution (square).
    pub resolution_in: usize,
    /// Stride (1 or 2).
    pub stride: usize,
}

impl LayerGeom {
    /// Output spatial resolution.
    pub fn resolution_out(&self) -> usize {
        if self.stride == 2 {
            self.resolution_in / 2
        } else {
            self.resolution_in
        }
    }

    /// The layer's convolutions in execution order: a stride-2 unit's
    /// left branch (depthwise `k` at stride 2, then pointwise to `c_out/2`),
    /// then the right branch. The right branch maps `c_in/2 → c_out/2` at
    /// stride 1 (the other half passes through, padded or truncated) and
    /// `c_in → c_out/2` at stride 2. Every conv is followed by a batch norm
    /// over its output. A skip has no convolutions; at stride 2 it is a
    /// 2×2 average pool, which each consumer costs itself.
    pub fn convs(&self) -> ConvTable {
        let mut table = ConvTable {
            convs: [LayerConv::default(); MAX_LAYER_CONVS],
            len: 0,
        };
        let Some(k) = self.op.kernel() else {
            return table;
        };
        let (s, h_in, h_out) = (self.stride, self.resolution_in, self.resolution_out());
        let b_out = (self.c_out / 2).max(1);
        let r_in = if s == 2 {
            table.push(self.c_in, self.c_in, k, s, h_in, self.c_in);
            table.push(self.c_in, b_out, 1, 1, h_out, 1);
            self.c_in
        } else {
            (self.c_in / 2).max(1)
        };
        if self.op == OpKind::Xception {
            table.push(r_in, r_in, 3, s, h_in, r_in);
            table.push(r_in, b_out, 1, 1, h_out, 1);
            for _ in 0..2 {
                table.push(b_out, b_out, 3, 1, h_out, b_out);
                table.push(b_out, b_out, 1, 1, h_out, 1);
            }
        } else {
            table.push(r_in, b_out, 1, 1, h_in, 1);
            table.push(b_out, b_out, k, s, h_in, b_out);
            table.push(b_out, b_out, 1, 1, h_out, 1);
        }
        table
    }
}

/// One convolution of a searchable layer (square kernel and planes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerConv {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Group count: 1 (dense) or `c_in` (depthwise).
    pub groups: usize,
    /// Input resolution.
    pub res_in: usize,
    /// Output resolution.
    pub res_out: usize,
}

/// The most convolutions one layer runs: a stride-2 Xception unit's two
/// left-branch convs plus its six right-branch convs.
const MAX_LAYER_CONVS: usize = 8;

/// A layer's convolutions ([`LayerGeom::convs`]), held inline so building
/// the table allocates nothing; it derefs to a slice.
#[derive(Debug, Clone, Copy)]
pub struct ConvTable {
    convs: [LayerConv; MAX_LAYER_CONVS],
    len: usize,
}

impl ConvTable {
    fn push(
        &mut self,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        res_in: usize,
        groups: usize,
    ) {
        self.convs[self.len] = LayerConv {
            c_in,
            c_out,
            kernel,
            stride,
            groups,
            res_in,
            res_out: res_in / stride,
        };
        self.len += 1;
    }
}

impl Deref for ConvTable {
    type Target = [LayerConv];

    fn deref(&self) -> &[LayerConv] {
        &self.convs[..self.len]
    }
}

/// Resolves per-layer geometry for `arch` within `skeleton`.
///
/// Channel-scaling semantics follow §III-B: layer `l` outputs
/// `c^l · S^l` channels (rounded even). A stride-1 skip preserves its input
/// channel count (there is nothing to scale); a stride-2 skip is an average
/// pool that zero-pads channels up to the scaled width so the stage's
/// channel progression survives.
///
/// # Errors
///
/// Returns [`SpaceError::ArchMismatch`] if `arch.len()` differs from the
/// skeleton's layer count.
pub fn resolve_geometry(
    skeleton: &NetworkSkeleton,
    arch: &Arch,
) -> Result<Vec<LayerGeom>, SpaceError> {
    let slots = skeleton.layer_slots();
    if arch.len() != slots.len() {
        return Err(SpaceError::ArchMismatch {
            detail: format!(
                "arch has {} layers, skeleton expects {}",
                arch.len(),
                slots.len()
            ),
        });
    }
    let mut geoms = Vec::with_capacity(slots.len());
    let mut c_in = skeleton.stem_channels;
    for (slot, gene) in slots.iter().zip(arch.genes()) {
        let c_out = match (gene.op, slot.stride) {
            // A stride-1 skip is an identity: width unchanged.
            (OpKind::Skip, 1) => c_in,
            _ => gene.scale.apply(slot.max_channels),
        };
        geoms.push(LayerGeom {
            index: slot.index,
            op: gene.op,
            c_in,
            c_out,
            resolution_in: slot.resolution_in,
            stride: slot.stride,
        });
        c_in = c_out;
    }
    Ok(geoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelLayout, ChannelScale, Gene};

    fn skeleton() -> NetworkSkeleton {
        NetworkSkeleton::imagenet(ChannelLayout::A)
    }

    #[test]
    fn widest_arch_geometry() {
        let sk = skeleton();
        let arch = Arch::widest(20);
        let g = resolve_geometry(&sk, &arch).unwrap();
        assert_eq!(g.len(), 20);
        assert_eq!(g[0].c_in, 16);
        assert_eq!(g[0].c_out, 48);
        assert_eq!(g[3].c_out, 48);
        assert_eq!(g[4].c_out, 128);
        assert_eq!(g[19].c_out, 512);
        assert_eq!(g[0].resolution_in, 112);
        assert_eq!(g[0].resolution_out(), 56);
        assert_eq!(g[19].resolution_out(), 7);
    }

    #[test]
    fn channel_scaling_narrows_layers() {
        let sk = skeleton();
        let mut arch = Arch::widest(20);
        arch.set_gene(
            5,
            Gene::new(OpKind::Shuffle5, ChannelScale::from_tenths(5).unwrap()),
        )
        .unwrap();
        let g = resolve_geometry(&sk, &arch).unwrap();
        assert_eq!(g[5].c_out, 64);
        // next layer sees the narrowed width as input
        assert_eq!(g[6].c_in, 64);
        assert_eq!(g[6].c_out, 128);
    }

    #[test]
    fn stride1_skip_preserves_width() {
        let sk = skeleton();
        let mut arch = Arch::widest(20);
        // layer 2 is stride-1 in stage 0
        arch.set_gene(
            2,
            Gene::new(OpKind::Skip, ChannelScale::from_tenths(2).unwrap()),
        )
        .unwrap();
        let g = resolve_geometry(&sk, &arch).unwrap();
        assert_eq!(g[2].c_out, g[2].c_in);
        assert_eq!(g[2].c_out, 48); // inherits the previous full width
    }

    #[test]
    fn stride2_skip_takes_scaled_width() {
        let sk = skeleton();
        let mut arch = Arch::widest(20);
        // layer 4 is the stage-1 downsample
        arch.set_gene(
            4,
            Gene::new(OpKind::Skip, ChannelScale::from_tenths(5).unwrap()),
        )
        .unwrap();
        let g = resolve_geometry(&sk, &arch).unwrap();
        assert_eq!(g[4].c_out, 64);
        assert_eq!(g[4].stride, 2);
    }

    #[test]
    fn wrong_length_rejected() {
        let sk = skeleton();
        assert!(resolve_geometry(&sk, &Arch::widest(19)).is_err());
    }

    #[test]
    fn widths_chain_layer_to_layer() {
        let sk = skeleton();
        let arch = Arch::widest(20);
        let g = resolve_geometry(&sk, &arch).unwrap();
        for pair in g.windows(2) {
            assert_eq!(pair[0].c_out, pair[1].c_in);
        }
    }
}
