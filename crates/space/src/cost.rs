//! Hardware-agnostic cost model: multiply-accumulate (FLOPs) and parameter
//! counts per layer and for whole architectures.
//!
//! These are exactly the metrics Fig. 2 of the paper shows to be *poor*
//! latency predictors — the cost model exists both to reproduce that figure
//! and to feed the accuracy surrogate's capacity estimate. A searchable
//! layer's cost is summed over its conv table ([`LayerGeom::convs`]), the
//! same table the simulator lowers to kernels, so FLOPs and simulated
//! latency always describe the same network.

use crate::{resolve_geometry, Arch, LayerGeom, NetworkSkeleton, OpKind, SpaceError};
use serde::{Deserialize, Serialize};

/// Cost of a single searchable layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Multiply-accumulate operations for one inference at batch 1.
    pub flops: f64,
    /// Trainable parameter count.
    pub params: f64,
}

impl LayerCost {
    /// The zero cost.
    pub const ZERO: LayerCost = LayerCost {
        flops: 0.0,
        params: 0.0,
    };

    fn add(self, other: LayerCost) -> LayerCost {
        LayerCost {
            flops: self.flops + other.flops,
            params: self.params + other.params,
        }
    }
}

/// Cost breakdown of a full architecture (stem + searchable layers + head +
/// classifier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchCost {
    /// Per-searchable-layer costs, in layer order.
    pub layers: Vec<LayerCost>,
    /// Stem convolution cost.
    pub stem: LayerCost,
    /// Head (1×1 convolution + pooling + classifier) cost.
    pub head: LayerCost,
}

impl ArchCost {
    /// Total multiply-accumulates of one inference.
    pub fn total_flops(&self) -> f64 {
        self.stem.flops + self.head.flops + self.layers.iter().map(|l| l.flops).sum::<f64>()
    }

    /// Total parameter count.
    pub fn total_params(&self) -> f64 {
        self.stem.params + self.head.params + self.layers.iter().map(|l| l.params).sum::<f64>()
    }
}

fn conv_cost(c_in: usize, c_out: usize, kernel: usize, out_res: usize, groups: usize) -> LayerCost {
    let macs = (out_res * out_res) as f64
        * (c_in / groups) as f64
        * c_out as f64
        * (kernel * kernel) as f64;
    let params = (c_in / groups) as f64 * c_out as f64 * (kernel * kernel) as f64;
    LayerCost {
        flops: macs,
        params,
    }
}

fn bn_cost(channels: usize, res: usize) -> LayerCost {
    LayerCost {
        flops: 2.0 * (res * res * channels) as f64,
        params: 2.0 * channels as f64,
    }
}

/// Cost of one searchable layer with the given geometry: each conv of
/// [`LayerGeom::convs`] followed by its batch norm, in table order. A
/// stride-2 skip costs its 2×2 average pool.
pub fn layer_cost(geom: &LayerGeom) -> LayerCost {
    if geom.op == OpKind::Skip && geom.stride != 1 {
        let h_in = geom.resolution_in;
        return LayerCost {
            // 2×2 average pool: one MAC-equivalent per input element.
            flops: (h_in * h_in * geom.c_in) as f64,
            params: 0.0,
        };
    }
    geom.convs().iter().fold(LayerCost::ZERO, |cost, c| {
        cost.add(conv_cost(c.c_in, c.c_out, c.kernel, c.res_out, c.groups))
            .add(bn_cost(c.c_out, c.res_out))
    })
}

/// Full cost breakdown of `arch` within `skeleton`.
///
/// # Errors
///
/// Returns [`SpaceError::ArchMismatch`] if the architecture's layer count
/// differs from the skeleton's.
pub fn arch_cost(skeleton: &NetworkSkeleton, arch: &Arch) -> Result<ArchCost, SpaceError> {
    let geoms = resolve_geometry(skeleton, arch)?;
    let layers: Vec<LayerCost> = geoms.iter().map(layer_cost).collect();
    let stem_res = skeleton.input_resolution / 2;
    let stem = conv_cost(
        skeleton.input_channels,
        skeleton.stem_channels,
        3,
        stem_res,
        1,
    )
    .add(bn_cost(skeleton.stem_channels, stem_res));
    let final_res = geoms.last().map(|g| g.resolution_out()).unwrap_or(stem_res);
    let last_c = geoms
        .last()
        .map(|g| g.c_out)
        .unwrap_or(skeleton.stem_channels);
    let head = conv_cost(last_c, skeleton.head_channels, 1, final_res, 1)
        .add(bn_cost(skeleton.head_channels, final_res))
        .add(LayerCost {
            // global average pool + classifier
            flops: (final_res * final_res * skeleton.head_channels) as f64
                + (skeleton.head_channels * skeleton.num_classes) as f64,
            params: (skeleton.head_channels * skeleton.num_classes + skeleton.num_classes) as f64,
        });
    Ok(ArchCost { layers, stem, head })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelLayout, ChannelScale, Gene};

    fn skeleton() -> NetworkSkeleton {
        NetworkSkeleton::imagenet(ChannelLayout::A)
    }

    #[test]
    fn widest_arch_flops_in_mobile_regime() {
        // The widest layout-A network should land in the few-hundred-MFLOPs
        // regime typical of the paper's mobile-scale models.
        let cost = arch_cost(&skeleton(), &Arch::widest(20)).unwrap();
        let mf = cost.total_flops() / 1e6;
        assert!(mf > 50.0 && mf < 1000.0, "{mf} MFLOPs");
        let mp = cost.total_params() / 1e6;
        assert!(mp > 0.5 && mp < 20.0, "{mp} M params");
    }

    #[test]
    fn larger_kernel_costs_more() {
        let sk = skeleton();
        let mut a3 = Arch::widest(20);
        let mut a7 = Arch::widest(20);
        a3.set_gene(2, Gene::new(OpKind::Shuffle3, ChannelScale::FULL))
            .unwrap();
        a7.set_gene(2, Gene::new(OpKind::Shuffle7, ChannelScale::FULL))
            .unwrap();
        let c3 = arch_cost(&sk, &a3).unwrap();
        let c7 = arch_cost(&sk, &a7).unwrap();
        assert!(c7.total_flops() > c3.total_flops());
        assert!(c7.total_params() > c3.total_params());
    }

    #[test]
    fn xception_is_heavier_than_shuffle3() {
        let sk = skeleton();
        let mut ax = Arch::widest(20);
        ax.set_gene(2, Gene::new(OpKind::Xception, ChannelScale::FULL))
            .unwrap();
        let cx = arch_cost(&sk, &ax).unwrap();
        let c3 = arch_cost(&sk, &Arch::widest(20)).unwrap();
        assert!(cx.layers[2].flops > c3.layers[2].flops);
    }

    #[test]
    fn skip_layer_is_free() {
        let sk = skeleton();
        let mut a = Arch::widest(20);
        a.set_gene(2, Gene::new(OpKind::Skip, ChannelScale::FULL))
            .unwrap();
        let c = arch_cost(&sk, &a).unwrap();
        assert_eq!(c.layers[2], LayerCost::ZERO);
    }

    #[test]
    fn stride2_skip_costs_only_pooling() {
        let sk = skeleton();
        let mut a = Arch::widest(20);
        a.set_gene(4, Gene::new(OpKind::Skip, ChannelScale::FULL))
            .unwrap();
        let c = arch_cost(&sk, &a).unwrap();
        assert!(c.layers[4].flops > 0.0);
        assert_eq!(c.layers[4].params, 0.0);
        // but still orders of magnitude below a real block
        let full = arch_cost(&sk, &Arch::widest(20)).unwrap();
        assert!(c.layers[4].flops < full.layers[4].flops / 10.0);
    }

    #[test]
    fn narrower_scale_reduces_cost_monotonically() {
        let sk = skeleton();
        let mut prev = 0.0;
        for t in 1..=10u8 {
            let mut a = Arch::widest(20);
            for l in 0..20 {
                a.set_gene(
                    l,
                    Gene::new(OpKind::Shuffle3, ChannelScale::from_tenths(t).unwrap()),
                )
                .unwrap();
            }
            let f = arch_cost(&sk, &a).unwrap().total_flops();
            assert!(f > prev, "scale {t}: {f} <= {prev}");
            prev = f;
        }
    }

    #[test]
    fn layout_b_costs_more_than_a() {
        let a = arch_cost(
            &NetworkSkeleton::imagenet(ChannelLayout::A),
            &Arch::widest(20),
        )
        .unwrap();
        let b = arch_cost(
            &NetworkSkeleton::imagenet(ChannelLayout::B),
            &Arch::widest(20),
        )
        .unwrap();
        assert!(b.total_flops() > a.total_flops());
        assert!(b.total_params() > a.total_params());
    }

    #[test]
    fn wrong_arch_length_rejected() {
        assert!(arch_cost(&skeleton(), &Arch::widest(3)).is_err());
    }
}
