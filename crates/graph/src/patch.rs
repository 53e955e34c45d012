//! The optimization patch pipeline: fuse → specialize → fold → sweep.
//!
//! Each pass is a declarative rewrite of the graph in place (tract-style
//! "patches"): nodes are retyped or rewired, never moved, and a final
//! reachability sweep compacts the survivors into topological order. The
//! passes bump `graph.patch.*` counters on the telemetry registry and
//! return per-run [`PatchStats`].
//!
//! ## Bit-exactness rules the passes obey
//!
//! * **Fusion** replaces Conv → BatchNorm (→ ReLU) with a single node
//!   whose epilogue applies the identical per-channel arithmetic — BN is
//!   *not* folded into the weights, so no float is recomputed.
//! * **Specialization** physically removes channels that the genome's
//!   mask pins to zero. Dense (`groups == 1`) convolutions are
//!   input-pruned (masked input channels form an exactly-zero k-tail of
//!   the im2col GEMM; dropping zero addends preserves every bit) and
//!   row-pruned (GEMM rows are independent). Grouped convolutions are
//!   never pruned — a narrowed producer gets an explicit `PadChannels`
//!   restoring the zero channels, because their batch-norms map zero
//!   channels to *nonzero* constant planes that downstream layers consume.
//!   Every convolution keeps the `ref_gemm` recorded at lowering, so the
//!   shrunken GEMMs still dispatch to the full-width kernel variant and
//!   blocking and accumulate in the original order.
//! * **Folding** only evaluates ops whose result cannot depend on the
//!   compile host's kernel selection: elementwise/copy ops always;
//!   convolutions only on all-zero inputs (a zero GEMM is `+0` under
//!   every kernel) or when their pinned reference shape classifies onto
//!   the direct path (fixed scalar code, no runtime variant choice).

use hsconas_tensor::kernels::{classify, ShapeClass};
use hsconas_tensor::Tensor;

use crate::exec::eval_node;
use crate::ir::{BnParams, BnScale, ConstId, Graph, GraphOp, NodeShape, Outlet};
use crate::lower::{Plan, PlanKind};
use crate::GraphError;

/// What one [`optimize`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Conv+BN(+ReLU) chains collapsed into fused nodes.
    pub fused: usize,
    /// Structural specializations (pruned convs, padded grouped convs,
    /// collapsed branches, interleave rewrites, narrowed skips).
    pub specialized: usize,
    /// Nodes replaced by compile-time constants (plus BN divisor
    /// precomputations).
    pub folded: usize,
    /// Dead nodes removed by the final sweep.
    pub removed: usize,
}

/// Runs the full patch pipeline in place.
///
/// # Errors
///
/// Returns [`GraphError`] if a rewrite encounters a structure the plan did
/// not describe or folding fails to evaluate a node.
pub fn optimize(g: &mut Graph, plan: &Plan) -> Result<PatchStats, GraphError> {
    let fused = fuse(g);
    let specialized = specialize(g, plan)?;
    let folded = fold(g)?;
    let removed = g.retain_reachable();
    g.validate()?;
    hsconas_telemetry::counter_add("graph.patch.fuse", fused as u64);
    hsconas_telemetry::counter_add("graph.patch.specialize", specialized as u64);
    hsconas_telemetry::counter_add("graph.patch.fold", folded as u64);
    hsconas_telemetry::counter_add("graph.patch.dce", removed as u64);
    Ok(PatchStats {
        fused,
        specialized,
        folded,
        removed,
    })
}

fn consumers(g: &Graph) -> Vec<Vec<usize>> {
    let mut cons = vec![Vec::new(); g.nodes.len()];
    for (id, node) in g.nodes.iter().enumerate() {
        for outlet in &node.inputs {
            cons[outlet.node].push(id);
        }
    }
    cons
}

fn is_boundary(g: &Graph, id: usize) -> bool {
    g.output == id || g.checkpoints.iter().any(|cp| cp.node == id)
}

/// Collapses Conv → BatchNorm (→ ReLU) chains into [`GraphOp::FusedConvBn`].
pub fn fuse(g: &mut Graph) -> usize {
    let mut count = 0;
    loop {
        let cons = consumers(g);
        let mut rewrite = None;
        for id in 0..g.nodes.len() {
            let (params, weight, ref_gemm) = match &g.nodes[id].op {
                GraphOp::Conv {
                    params,
                    weight,
                    ref_gemm,
                } => (*params, *weight, *ref_gemm),
                _ => continue,
            };
            // The conv's raw output must not be observable (it changes
            // meaning once the epilogue lands on the same node).
            if is_boundary(g, id) || cons[id].len() != 1 {
                continue;
            }
            let bn_id = cons[id][0];
            let bn = match &g.nodes[bn_id].op {
                GraphOp::BatchNorm { bn } => *bn,
                _ => continue,
            };
            let relu = !is_boundary(g, bn_id)
                && cons[bn_id].len() == 1
                && matches!(g.nodes[cons[bn_id][0]].op, GraphOp::Relu);
            let tail = if relu { cons[bn_id][0] } else { bn_id };
            rewrite = Some((id, bn_id, tail, params, weight, bn, relu, ref_gemm));
            break;
        }
        let Some((id, _bn_id, tail, params, weight, bn, relu, ref_gemm)) = rewrite else {
            return count;
        };
        g.nodes[id].op = GraphOp::FusedConvBn {
            params,
            weight,
            bn,
            relu,
            ref_gemm,
        };
        g.rewire(tail, id);
        count += 1;
    }
}

/// Mutable access to the conv-like parts of a node's op.
fn conv_mut(
    op: &mut GraphOp,
) -> Option<(
    &mut hsconas_tensor::conv::Conv2dParams,
    &mut ConstId,
    Option<&mut BnParams>,
)> {
    match op {
        GraphOp::Conv { params, weight, .. } => Some((params, weight, None)),
        GraphOp::FusedConvBn {
            params, weight, bn, ..
        } => Some((params, weight, Some(bn))),
        _ => None,
    }
}

fn spec_err(detail: String) -> GraphError {
    GraphError::Specialize { detail }
}

/// Slices the leading `new_cin` input channels out of a dense conv's
/// weight and shrinks `params.c_in` to match.
fn prune_conv_input(g: &mut Graph, id: usize, new_cin: usize) -> Result<(), GraphError> {
    let (weight_id, groups, c_in) = match &g.nodes[id].op {
        GraphOp::Conv { params, weight, .. } | GraphOp::FusedConvBn { params, weight, .. } => {
            (*weight, params.groups, params.c_in)
        }
        other => return Err(spec_err(format!("cannot input-prune {}", other.name()))),
    };
    if groups != 1 {
        return Err(spec_err(format!(
            "input-pruning a grouped conv (groups {groups}) would drop live taps"
        )));
    }
    if new_cin >= c_in {
        return Ok(());
    }
    let old = &g.consts[weight_id];
    let s = old.shape();
    let tap = s.h * s.w;
    let mut data = Vec::with_capacity(s.n * new_cin * tap);
    for o in 0..s.n {
        let row = o * s.c * tap;
        data.extend_from_slice(&old.data()[row..row + new_cin * tap]);
    }
    let pruned = g.add_const(Tensor::from_vec([s.n, new_cin, s.h, s.w], data)?);
    let (params, weight, _) = conv_mut(&mut g.nodes[id].op).expect("checked conv-like above");
    params.c_in = new_cin;
    *weight = pruned;
    Ok(())
}

/// Keeps only the leading `c` channels of a `[1, C, 1, 1]` parameter.
fn prefix_param(g: &mut Graph, id: ConstId, c: usize) -> Result<ConstId, GraphError> {
    let data = g.consts[id].data()[..c].to_vec();
    Ok(g.add_const(Tensor::from_vec([1, c, 1, 1], data)?))
}

/// Slices the leading `new_cout` output rows out of a conv's weight (and
/// its fused epilogue parameters) and shrinks `params.c_out` to match.
fn prune_conv_rows(g: &mut Graph, id: usize, new_cout: usize) -> Result<(), GraphError> {
    let (weight_id, groups, c_out, bn) = match &g.nodes[id].op {
        GraphOp::Conv { params, weight, .. } => (*weight, params.groups, params.c_out, None),
        GraphOp::FusedConvBn {
            params, weight, bn, ..
        } => (*weight, params.groups, params.c_out, Some(*bn)),
        other => return Err(spec_err(format!("cannot row-prune {}", other.name()))),
    };
    if groups != 1 {
        return Err(spec_err(format!(
            "row-pruning a grouped conv (groups {groups}) would misalign its groups"
        )));
    }
    if new_cout >= c_out {
        return Ok(());
    }
    let old = &g.consts[weight_id];
    let s = old.shape();
    let row = s.c * s.h * s.w;
    let data = old.data()[..new_cout * row].to_vec();
    let pruned = g.add_const(Tensor::from_vec([new_cout, s.c, s.h, s.w], data)?);
    let new_bn = match bn {
        Some(bn) => Some(BnParams {
            gamma: prefix_param(g, bn.gamma, new_cout)?,
            beta: prefix_param(g, bn.beta, new_cout)?,
            mean: prefix_param(g, bn.mean, new_cout)?,
            scale: match bn.scale {
                BnScale::Var { var, eps } => BnScale::Var {
                    var: prefix_param(g, var, new_cout)?,
                    eps,
                },
                BnScale::Std { std } => BnScale::Std {
                    std: prefix_param(g, std, new_cout)?,
                },
            },
        }),
        None => None,
    };
    let node = &mut g.nodes[id];
    node.shape.c = new_cout;
    let (params, weight, bn_mut) = conv_mut(&mut node.op).expect("checked conv-like above");
    params.c_out = new_cout;
    *weight = pruned;
    if let (Some(bn_mut), Some(new_bn)) = (bn_mut, new_bn) {
        *bn_mut = new_bn;
    }
    Ok(())
}

/// Narrows or pads one branch entry conv to the physically available
/// input width `avail`: dense convs are input-pruned, grouped convs get a
/// `PadChannels` restoring the zeros their group structure needs.
fn adapt_entry(g: &mut Graph, conv_id: usize, avail: usize) -> Result<usize, GraphError> {
    let (groups, c_in) = match &g.nodes[conv_id].op {
        GraphOp::Conv { params, .. } | GraphOp::FusedConvBn { params, .. } => {
            (params.groups, params.c_in)
        }
        other => {
            return Err(spec_err(format!(
                "branch entry is {}, expected a conv",
                other.name()
            )))
        }
    };
    if avail >= c_in {
        return Ok(0);
    }
    if groups == 1 {
        prune_conv_input(g, conv_id, avail)?;
    } else {
        let src = g.nodes[conv_id].inputs[0];
        let (h, w) = {
            let s = g.nodes[src.node].shape;
            (s.h, s.w)
        };
        let pad = g.add(
            GraphOp::PadChannels { to: c_in },
            vec![src],
            NodeShape::new(c_in, h, w),
        );
        g.nodes[conv_id].inputs[0] = Outlet::of(pad);
    }
    Ok(1)
}

/// Physically removes masked channels, layer by layer, tracking the live
/// prefix width `p` flowing between layers. Returns the rewrite count.
pub fn specialize(g: &mut Graph, plan: &Plan) -> Result<usize, GraphError> {
    let mut count = 0;
    let mut p = match plan.layers.first() {
        Some(lp) => lp.c_in,
        None => return Ok(0),
    };
    for lp in &plan.layers {
        match &lp.kind {
            PlanKind::SkipS1 => {
                // identity, never masked: the live prefix flows through
            }
            PlanKind::SkipS2 { adapt, mask } => {
                let target = lp.keep.min(lp.c_out);
                g.nodes[*adapt].op = GraphOp::AdaptChannels { c_out: target };
                g.nodes[*adapt].shape.c = target;
                g.rewire(*mask, *adapt);
                count += 1;
                p = target;
            }
            PlanKind::Unit {
                input: _,
                slice_l,
                slice_r,
                left_convs,
                right_convs,
                concat,
                shuffle: _,
                mask,
            } => {
                let keep = lp.keep;
                // Post-shuffle (groups = 2) channel j reads branch plane
                // j/2: even j from the left, odd j from the right. keep is
                // even (ChannelScale guarantees it), so each branch
                // contributes exactly keep/2 live planes.
                let live_left = keep.div_ceil(2);
                let live_right = keep / 2;
                let entry_conv = |convs: &Vec<usize>| {
                    convs
                        .first()
                        .copied()
                        .ok_or_else(|| spec_err("branch has no entry conv".into()))
                };
                let exit_conv = |convs: &Vec<usize>| {
                    convs
                        .last()
                        .copied()
                        .ok_or_else(|| spec_err("branch has no exit conv".into()))
                };
                let (left_outlet, right_node) = if lp.stride == 1 {
                    let half = lp.c_in / 2;
                    let avail_left = p.min(half);
                    let avail_right = p.saturating_sub(half);
                    let slice_l = slice_l
                        .ok_or_else(|| spec_err("stride-1 unit lost its left slice".into()))?;
                    let slice_r = slice_r
                        .ok_or_else(|| spec_err("stride-1 unit lost its right slice".into()))?;
                    // Left passthrough: slice down to what the interleave
                    // will actually read, or bypass the slice entirely when
                    // the live input prefix already fits. The bypass must
                    // take the slice's *current* edge, not a plan node id:
                    // earlier layers' rewires retarget edges only.
                    let left_width = avail_left.min(live_left);
                    let left_outlet = if left_width == p {
                        g.nodes[slice_l].inputs[0]
                    } else {
                        g.nodes[slice_l].op = GraphOp::SliceChannels {
                            start: 0,
                            len: left_width,
                        };
                        g.nodes[slice_l].shape.c = left_width;
                        Outlet::of(slice_l)
                    };
                    if left_width < half {
                        count += 1;
                    }
                    if avail_right == 0 {
                        // The whole right half of the input is pinned to
                        // zero: feed the branch a constant so folding can
                        // collapse it into precomputed planes.
                        let shape = g.nodes[slice_r].shape;
                        let zeros = g.add_const(Tensor::zeros([1, shape.c, shape.h, shape.w]));
                        g.nodes[slice_r].op = GraphOp::Const { value: zeros };
                        g.nodes[slice_r].inputs.clear();
                        count += 1;
                    } else {
                        if avail_right < lp.c_in - half {
                            g.nodes[slice_r].op = GraphOp::SliceChannels {
                                start: half,
                                len: avail_right,
                            };
                            g.nodes[slice_r].shape.c = avail_right;
                            count += adapt_entry(g, entry_conv(right_convs)?, avail_right)?;
                            count += 1;
                        }
                    }
                    let exit = exit_conv(right_convs)?;
                    if live_right < lp.c_out / 2 {
                        prune_conv_rows(g, exit, live_right)?;
                        count += 1;
                    }
                    (left_outlet, exit)
                } else {
                    // stride 2: both branches consume the unit input
                    count += adapt_entry(g, entry_conv(left_convs)?, p)?;
                    count += adapt_entry(g, entry_conv(right_convs)?, p)?;
                    let left_exit = exit_conv(left_convs)?;
                    let right_exit = exit_conv(right_convs)?;
                    if live_left < lp.c_out / 2 {
                        prune_conv_rows(g, left_exit, live_left)?;
                        count += 1;
                    }
                    if live_right < lp.c_out / 2 {
                        prune_conv_rows(g, right_exit, live_right)?;
                        count += 1;
                    }
                    (Outlet::of(left_exit), right_exit)
                };
                g.nodes[*concat].op = GraphOp::InterleaveMasked { keep };
                g.nodes[*concat].inputs = vec![left_outlet, Outlet::of(right_node)];
                g.nodes[*concat].shape.c = keep;
                g.rewire(*mask, *concat);
                count += 1;
                p = keep;
            }
        }
    }
    // The head's pointwise conv consumes the last boundary: prune its
    // input to the surviving live prefix.
    let head_cin = match &g.nodes[plan.head_conv].op {
        GraphOp::Conv { params, .. } | GraphOp::FusedConvBn { params, .. } => params.c_in,
        other => {
            return Err(spec_err(format!(
                "plan head conv is {}, expected a conv",
                other.name()
            )))
        }
    };
    if p < head_cin {
        prune_conv_input(g, plan.head_conv, p)?;
        count += 1;
    }
    Ok(count)
}

/// Whether folding this op at compile time is guaranteed to reproduce the
/// execution-time bits on *any* host and kernel selection.
fn fold_safe(op: &GraphOp, inputs_all_zero: bool) -> bool {
    match op {
        // A zero GEMM yields exact +0 under every kernel; a pinned
        // tiny/skinny reference shape always dispatches onto the direct
        // path, which is fixed scalar code with no runtime variant (as
        // are the depthwise kernels, whose reference shape is skinny).
        GraphOp::Conv { ref_gemm, .. } | GraphOp::FusedConvBn { ref_gemm, .. } => {
            inputs_all_zero
                || matches!(
                    ref_gemm.map(|(m, k, n)| classify(m, k, n)),
                    Some(ShapeClass::Tiny | ShapeClass::Skinny)
                )
        }
        GraphOp::Linear { .. } => false,
        GraphOp::Input | GraphOp::Const { .. } => false,
        // Elementwise and copy ops are plain scalar code everywhere.
        _ => true,
    }
}

/// Precomputes BN divisors and propagates constants through the graph.
pub fn fold(g: &mut Graph) -> Result<usize, GraphError> {
    let mut count = 0;

    // var + eps → std, hoisting the sqrt out of the inference loop (the
    // same f32 per channel, so this is bit-exact).
    for id in 0..g.nodes.len() {
        let bn = match &g.nodes[id].op {
            GraphOp::BatchNorm { bn } | GraphOp::FusedConvBn { bn, .. } => *bn,
            _ => continue,
        };
        let BnScale::Var { var, eps } = bn.scale else {
            continue;
        };
        let std = g.consts[var].map(|v| (v + eps).sqrt());
        let std = g.add_const(std);
        match &mut g.nodes[id].op {
            GraphOp::BatchNorm { bn } | GraphOp::FusedConvBn { bn, .. } => {
                bn.scale = BnScale::Std { std };
            }
            _ => unreachable!("matched above"),
        }
        count += 1;
    }

    // constant propagation to a fixed point
    loop {
        let mut changed = false;
        for id in 0..g.nodes.len() {
            if matches!(g.nodes[id].op, GraphOp::Input | GraphOp::Const { .. }) {
                continue;
            }
            if g.nodes[id].inputs.is_empty() {
                continue;
            }
            let const_ids: Option<Vec<ConstId>> = g.nodes[id]
                .inputs
                .iter()
                .map(|o| match g.nodes[o.node].op {
                    GraphOp::Const { value } => Some(value),
                    _ => None,
                })
                .collect();
            let Some(const_ids) = const_ids else {
                continue;
            };
            let all_zero = const_ids
                .iter()
                .all(|&c| g.consts[c].data().iter().all(|v| *v == 0.0));
            if !fold_safe(&g.nodes[id].op, all_zero) {
                continue;
            }
            let values: Vec<&Tensor> = const_ids.iter().map(|&c| &g.consts[c]).collect();
            let folded = eval_node(&g.nodes[id].op, &values, &g.consts)?;
            let value = g.add_const(folded);
            g.nodes[id].op = GraphOp::Const { value };
            g.nodes[id].inputs.clear();
            changed = true;
            count += 1;
        }
        if !changed {
            break;
        }
    }
    Ok(count)
}
