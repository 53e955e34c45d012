//! The searchable operator has one conv table, [`LayerGeom::convs`]. These
//! tests hold it to the two things it must agree with:
//!
//! * **Drift guard** — the convolutions the training unit actually builds
//!   ([`build_operator`]'s structural export, left branch then right) equal
//!   the table conv by conv.
//! * **Exactness** — the cost model and the simulator lowering, which now
//!   read the table, reproduce bit for bit the hand-written per-branch
//!   versions they replaced (kept below as a frozen reference).
//!
//! Both run over every layer slot of the tiny, ImageNet-A and ImageNet-B
//! skeletons at every operator × scale, plus sampled subnets, whose
//! stride-1 layers often change width (`c_in != c_out`).

use std::collections::BTreeSet;

use hsconas_hwsim::{lower_layer, KernelDesc, OpDesc};
use hsconas_nn::LayerExport;
use hsconas_space::cost::{layer_cost, LayerCost};
use hsconas_space::{resolve_geometry, Arch, ChannelScale, Gene, LayerGeom, OpKind, SearchSpace};
use hsconas_supernet::build_operator;
use hsconas_tensor::rng::SmallRng;
use rand::SeedableRng;

/// Every distinct layer geometry the tests cover, in a stable order.
fn geometries() -> Vec<LayerGeom> {
    let spaces = [
        SearchSpace::tiny(4),
        SearchSpace::hsconas_a(),
        SearchSpace::hsconas_b(),
    ];
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut keep = |g: LayerGeom| {
        if seen.insert((g.op, g.c_in, g.c_out, g.stride, g.resolution_in)) {
            out.push(g);
        }
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    for space in &spaces {
        let sk = space.skeleton();
        let layers = sk.num_layers();
        for l in 0..layers {
            for op in OpKind::ALL {
                for tenths in 1..=10 {
                    let mut arch = Arch::widest(layers);
                    let scale = ChannelScale::from_tenths(tenths).unwrap();
                    arch.set_gene(l, Gene::new(op, scale)).unwrap();
                    keep(resolve_geometry(sk, &arch).unwrap()[l]);
                }
            }
        }
        for _ in 0..40 {
            for g in resolve_geometry(sk, &space.sample(&mut rng)).unwrap() {
                keep(g);
            }
        }
    }
    out
}

/// `(c_in, c_out, kernel, stride, groups)` of each conv a layer export holds.
fn exported_convs(exports: &[LayerExport]) -> Vec<[usize; 5]> {
    exports
        .iter()
        .filter_map(|e| match e {
            LayerExport::Conv { params: p, .. } => {
                Some([p.c_in, p.c_out, p.kernel, p.stride, p.groups])
            }
            _ => None,
        })
        .collect()
}

#[test]
fn conv_table_matches_built_operators() {
    let mut rng = SmallRng::new(22);
    // The convs depend on widths, op and stride, not on resolution.
    let mut built = BTreeSet::new();
    for g in geometries() {
        if !built.insert((g.op, g.c_in, g.c_out, g.stride)) {
            continue;
        }
        let layer = build_operator(g.op, g.c_in, g.c_out, g.stride, &mut rng).unwrap();
        let mut exports = Vec::new();
        layer.export(&mut exports);
        let [export] = &exports[..] else {
            panic!("{g:?}: {} exports", exports.len());
        };
        let table: Vec<[usize; 5]> = g
            .convs()
            .iter()
            .map(|c| [c.c_in, c.c_out, c.kernel, c.stride, c.groups])
            .collect();
        match export {
            LayerExport::Identity => assert!(g.op == OpKind::Skip && g.stride == 1, "{g:?}"),
            LayerExport::DownsampleSkip { c_out } => {
                assert!(g.op == OpKind::Skip && g.stride == 2, "{g:?}");
                assert_eq!(*c_out, g.c_out, "{g:?}");
            }
            LayerExport::ShuffleUnit {
                stride,
                c_in,
                c_out,
                left,
                right,
            } => {
                assert_eq!((*stride, *c_in, *c_out), (g.stride, g.c_in, g.c_out));
                let mut convs = exported_convs(left);
                convs.extend(exported_convs(right));
                assert_eq!(convs, table, "{g:?}");
                continue;
            }
            other => panic!("{g:?}: unexpected export {other:?}"),
        }
        assert!(table.is_empty(), "{g:?}: a skip has no convs");
    }
    let changing = built
        .iter()
        .filter(|&&(op, c_in, c_out, stride)| op != OpKind::Skip && stride == 1 && c_in != c_out)
        .count();
    assert!(
        changing > 500,
        "only {changing} width-changing stride-1 units"
    );
}

#[test]
fn cost_and_lowering_match_the_frozen_reference_bit_for_bit() {
    for g in geometries() {
        let (new, old) = (layer_cost(&g), frozen::layer_cost(&g));
        assert_eq!(new.flops.to_bits(), old.flops.to_bits(), "{g:?}");
        assert_eq!(new.params.to_bits(), old.params.to_bits(), "{g:?}");

        let (new, old): (OpDesc, OpDesc) = (lower_layer(&g), frozen::lower_layer(&g));
        assert_eq!(new.name, old.name);
        assert_eq!(new.kernels.len(), old.kernels.len(), "{g:?}");
        for (a, b) in new.kernels.iter().zip(&old.kernels) {
            let bits = |k: &KernelDesc| {
                (
                    k.macs.to_bits(),
                    k.activation_bytes.to_bits(),
                    k.weight_bytes.to_bits(),
                    k.depthwise,
                )
            };
            assert_eq!(bits(a), bits(b), "{g:?}");
        }
    }
}

/// The per-branch `layer_cost` and `lower_layer` as they were written out
/// before both read the conv table, frozen as the exactness reference.
mod frozen {
    use super::*;

    fn add(a: LayerCost, b: LayerCost) -> LayerCost {
        LayerCost {
            flops: a.flops + b.flops,
            params: a.params + b.params,
        }
    }

    fn conv_cost(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        out_res: usize,
        groups: usize,
    ) -> LayerCost {
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

    pub fn layer_cost(geom: &LayerGeom) -> LayerCost {
        let h_in = geom.resolution_in;
        let h_out = geom.resolution_out();
        let (c_in, c_out) = (geom.c_in, geom.c_out);
        match (geom.op, geom.stride) {
            (OpKind::Skip, 1) => LayerCost::ZERO,
            (OpKind::Skip, _) => LayerCost {
                flops: (h_in * h_in * c_in) as f64,
                params: 0.0,
            },
            (op, stride) => {
                let b_in = (c_in / 2).max(1);
                let b_out = (c_out / 2).max(1);
                let k = op.kernel().expect("parametric op has a kernel");
                let mut cost = LayerCost::ZERO;
                if stride == 2 {
                    cost = add(cost, conv_cost(c_in, c_in, k, h_out, c_in));
                    cost = add(cost, bn_cost(c_in, h_out));
                    cost = add(cost, conv_cost(c_in, b_out, 1, h_out, 1));
                    cost = add(cost, bn_cost(b_out, h_out));
                }
                match op {
                    OpKind::Shuffle3 | OpKind::Shuffle5 | OpKind::Shuffle7 => {
                        let (r_in, pw1_res) = if stride == 2 {
                            (c_in, h_in)
                        } else {
                            (b_in, h_in)
                        };
                        cost = add(cost, conv_cost(r_in, b_out, 1, pw1_res, 1));
                        cost = add(cost, bn_cost(b_out, pw1_res));
                        cost = add(cost, conv_cost(b_out, b_out, k, h_out, b_out));
                        cost = add(cost, bn_cost(b_out, h_out));
                        cost = add(cost, conv_cost(b_out, b_out, 1, h_out, 1));
                        cost = add(cost, bn_cost(b_out, h_out));
                    }
                    OpKind::Xception => {
                        let r_in = if stride == 2 { c_in } else { b_in };
                        cost = add(cost, conv_cost(r_in, r_in, 3, h_out, r_in));
                        cost = add(cost, bn_cost(r_in, h_out));
                        cost = add(cost, conv_cost(r_in, b_out, 1, h_out, 1));
                        cost = add(cost, bn_cost(b_out, h_out));
                        for _ in 0..2 {
                            cost = add(cost, conv_cost(b_out, b_out, 3, h_out, b_out));
                            cost = add(cost, bn_cost(b_out, h_out));
                            cost = add(cost, conv_cost(b_out, b_out, 1, h_out, 1));
                            cost = add(cost, bn_cost(b_out, h_out));
                        }
                    }
                    OpKind::Skip => unreachable!("handled above"),
                }
                cost
            }
        }
    }

    pub fn lower_layer(geom: &LayerGeom) -> OpDesc {
        let h_in = geom.resolution_in;
        let h_out = geom.resolution_out();
        let (c_in, c_out) = (geom.c_in, geom.c_out);
        let name = format!("layer{}:{}", geom.index, geom.op);
        let mut kernels = Vec::new();
        match (geom.op, geom.stride) {
            (OpKind::Skip, 1) => {}
            (OpKind::Skip, _) => {
                kernels.push(KernelDesc::dense(
                    (h_in * h_in * c_in) as f64,
                    4.0 * ((h_in * h_in * c_in) as f64 + (h_out * h_out * c_out) as f64),
                    0.0,
                ));
            }
            (op, stride) => {
                let b_in = (c_in / 2).max(1);
                let b_out = (c_out / 2).max(1);
                let k = op.kernel().expect("parametric op has a kernel");
                if stride == 2 {
                    kernels.push(KernelDesc::conv(c_in, c_in, k, h_in, h_out, c_in));
                    kernels.push(KernelDesc::conv(c_in, b_out, 1, h_out, h_out, 1));
                }
                match op {
                    OpKind::Shuffle3 | OpKind::Shuffle5 | OpKind::Shuffle7 => {
                        let r_in = if stride == 2 { c_in } else { b_in };
                        kernels.push(KernelDesc::conv(r_in, b_out, 1, h_in, h_in, 1));
                        kernels.push(KernelDesc::conv(b_out, b_out, k, h_in, h_out, b_out));
                        kernels.push(KernelDesc::conv(b_out, b_out, 1, h_out, h_out, 1));
                    }
                    OpKind::Xception => {
                        let r_in = if stride == 2 { c_in } else { b_in };
                        kernels.push(KernelDesc::conv(r_in, r_in, 3, h_in, h_out, r_in));
                        kernels.push(KernelDesc::conv(r_in, b_out, 1, h_out, h_out, 1));
                        for _ in 0..2 {
                            kernels.push(KernelDesc::conv(b_out, b_out, 3, h_out, h_out, b_out));
                            kernels.push(KernelDesc::conv(b_out, b_out, 1, h_out, h_out, 1));
                        }
                    }
                    OpKind::Skip => unreachable!("handled above"),
                }
            }
        }
        OpDesc::new(name, kernels)
    }
}
