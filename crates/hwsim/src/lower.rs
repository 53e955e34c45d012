//! Lowering search-space architectures to simulator network descriptions.
//!
//! A searchable layer's kernels come from its conv table
//! ([`LayerGeom::convs`]), which the cost model sums as well. The table
//! matches the training unit conv by conv; `hsconas-supernet`'s
//! `conv_table_matches_built_operators` test checks that.

use crate::{KernelDesc, NetworkDesc, OpDesc};
use hsconas_space::{resolve_geometry, Arch, LayerGeom, NetworkSkeleton, OpKind, SpaceError};

/// Lowers one searchable layer to its kernel launches: one
/// [`KernelDesc::conv`] per entry of the layer's conv table
/// ([`LayerGeom::convs`], left branch then right; batch-norm and activation
/// costs ride along inside the kernels' byte counts and are negligible in
/// MACs). A stride-1 skip launches nothing; a stride-2 skip is one cheap
/// pooling pass.
pub fn lower_layer(geom: &LayerGeom) -> OpDesc {
    let name = format!("layer{}:{}", geom.index, geom.op);
    let kernels = if geom.op == OpKind::Skip && geom.stride != 1 {
        let (h_in, h_out) = (geom.resolution_in, geom.resolution_out());
        // 2×2 average pool ≈ one MAC per input element, pure memory op.
        vec![KernelDesc::dense(
            (h_in * h_in * geom.c_in) as f64,
            4.0 * ((h_in * h_in * geom.c_in) as f64 + (h_out * h_out * geom.c_out) as f64),
            0.0,
        )]
    } else {
        geom.convs()
            .iter()
            .map(|c| KernelDesc::conv(c.c_in, c.c_out, c.kernel, c.res_in, c.res_out, c.groups))
            .collect()
    };
    OpDesc::new(name, kernels)
}

/// Lowers the skeleton's fixed stem convolution.
pub fn lower_stem(skeleton: &NetworkSkeleton) -> OpDesc {
    let out_res = skeleton.input_resolution / 2;
    OpDesc::new(
        "stem",
        vec![KernelDesc::conv(
            skeleton.input_channels,
            skeleton.stem_channels,
            3,
            skeleton.input_resolution,
            out_res,
            1,
        )],
    )
}

/// Lowers the skeleton's fixed head (1×1 conv, global pool, classifier).
pub fn lower_head(skeleton: &NetworkSkeleton, last_c: usize, final_res: usize) -> OpDesc {
    OpDesc::new(
        "head",
        vec![
            KernelDesc::conv(last_c, skeleton.head_channels, 1, final_res, final_res, 1),
            // classifier as a 1×1 "conv" at resolution 1
            KernelDesc::conv(skeleton.head_channels, skeleton.num_classes, 1, 1, 1, 1),
        ],
    )
}

/// Lowers a full architecture (stem + searchable layers + head).
///
/// # Errors
///
/// Returns [`SpaceError`] if the architecture does not match the skeleton.
pub fn lower_arch(skeleton: &NetworkSkeleton, arch: &Arch) -> Result<NetworkDesc, SpaceError> {
    let geoms = resolve_geometry(skeleton, arch)?;
    let mut ops = Vec::with_capacity(geoms.len() + 2);
    ops.push(lower_stem(skeleton));
    for geom in &geoms {
        ops.push(lower_layer(geom));
    }
    let final_res = geoms
        .last()
        .map(|g| g.resolution_out())
        .unwrap_or(skeleton.input_resolution / 2);
    let last_c = geoms
        .last()
        .map(|g| g.c_out)
        .unwrap_or(skeleton.stem_channels);
    ops.push(lower_head(skeleton, last_c, final_res));
    Ok(NetworkDesc::new(
        format!("arch-{:016x}", arch.fingerprint()),
        ops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::cost::arch_cost;
    use hsconas_space::{ChannelScale, Gene, SearchSpace};

    #[test]
    fn lowered_macs_match_cost_model_scale() {
        // The simulator lowering and the cost model decompose blocks the
        // same way, so their MAC totals must agree closely (cost model adds
        // small batch-norm FLOPs).
        let space = SearchSpace::hsconas_a();
        let arch = Arch::widest(20);
        let net = lower_arch(space.skeleton(), &arch).unwrap();
        let cost = arch_cost(space.skeleton(), &arch).unwrap();
        let ratio = net.total_macs() / cost.total_flops();
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn op_count_is_layers_plus_stem_and_head() {
        let space = SearchSpace::hsconas_a();
        let net = lower_arch(space.skeleton(), &Arch::widest(20)).unwrap();
        assert_eq!(net.ops.len(), 22);
        assert_eq!(net.ops[0].name, "stem");
        assert_eq!(net.ops[21].name, "head");
    }

    #[test]
    fn skip_stride1_has_no_kernels() {
        let space = SearchSpace::hsconas_a();
        let mut arch = Arch::widest(20);
        arch.set_gene(2, Gene::new(OpKind::Skip, ChannelScale::FULL))
            .unwrap();
        let net = lower_arch(space.skeleton(), &arch).unwrap();
        assert!(net.ops[3].kernels.is_empty()); // ops[0] is the stem
    }

    #[test]
    fn stride2_layers_emit_left_branch() {
        let space = SearchSpace::hsconas_a();
        let net = lower_arch(space.skeleton(), &Arch::widest(20)).unwrap();
        // layer 0 (ops[1]) is stride 2: left dw + left pw + 3 right kernels
        assert_eq!(net.ops[1].kernels.len(), 5);
        // layer 1 (ops[2]) is stride 1: 3 right kernels only
        assert_eq!(net.ops[2].kernels.len(), 3);
    }

    #[test]
    fn depthwise_kernels_are_flagged() {
        let space = SearchSpace::hsconas_a();
        let net = lower_arch(space.skeleton(), &Arch::widest(20)).unwrap();
        let dw_count: usize = net
            .ops
            .iter()
            .flat_map(|o| &o.kernels)
            .filter(|k| k.depthwise)
            .count();
        // one dw per stride-1 layer (16) + two per stride-2 layer (4)
        assert_eq!(dw_count, 16 + 8);
    }

    #[test]
    fn name_is_fingerprint_stable() {
        let space = SearchSpace::hsconas_a();
        let a = lower_arch(space.skeleton(), &Arch::widest(20)).unwrap();
        let b = lower_arch(space.skeleton(), &Arch::widest(20)).unwrap();
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn mismatched_arch_rejected() {
        let space = SearchSpace::hsconas_a();
        assert!(lower_arch(space.skeleton(), &Arch::widest(5)).is_err());
    }
}
