//! The typed dataflow graph: nodes, edges, shapes, and structural helpers.
//!
//! The IR is deliberately small. A [`Graph`] is a flat `Vec` of [`Node`]s,
//! each producing exactly one tensor; edges are [`Outlet`]s (producer node
//! id plus an output slot, always 0 today but kept explicit so multi-output
//! ops can be added without a format break). Weights and other constants
//! live in a side pool (`consts`) of persistent [`Tensor`]s, which keeps
//! their pack-cache identities stable across executions — a compiled graph
//! packs each weight panel once per process, exactly like the live layers
//! it was lowered from.
//!
//! Shapes are **per-image physical** `(c, h, w)`: the batch dimension is
//! supplied at execution time and never appears in the IR, mirroring how
//! the convolution lowering runs one im2col GEMM per image regardless of
//! batch size.

use hsconas_tensor::conv::Conv2dParams;
use hsconas_tensor::Tensor;

use crate::GraphError;

/// Index into [`Graph::consts`].
pub type ConstId = usize;

/// A reference to one output of a producer node.
///
/// Every op today has a single output, so `slot` is always 0; it is stored
/// (and serialized) anyway so the artifact format does not need a breaking
/// revision if a multi-output op ever appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outlet {
    /// Producer node id.
    pub node: usize,
    /// Output slot on the producer (always 0 today).
    pub slot: usize,
}

impl Outlet {
    /// Slot-0 outlet of `node`.
    pub fn of(node: usize) -> Outlet {
        Outlet { node, slot: 0 }
    }
}

/// Per-image physical output shape of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeShape {
    /// Physical channel count (may be *smaller* than the logical width
    /// after channel specialization).
    pub c: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl NodeShape {
    /// Convenience constructor.
    pub fn new(c: usize, h: usize, w: usize) -> NodeShape {
        NodeShape { c, h, w }
    }
}

/// How a batch-norm's per-channel divisor is stored.
///
/// Lowering records the raw running variance plus epsilon; the constant
/// folding patch precomputes `sqrt(var + eps)` once. Both forms evaluate
/// the *same* f32 per channel (the fold just hoists the sqrt out of the
/// inference loop), so folding is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BnScale {
    /// Divisor computed at execution: `sqrt(consts[var][c] + eps)`.
    Var {
        /// Running variance, `[1, C, 1, 1]`.
        var: ConstId,
        /// Stability epsilon.
        eps: f32,
    },
    /// Precomputed divisor `std[c]`, `[1, C, 1, 1]`.
    Std {
        /// The divisor tensor.
        std: ConstId,
    },
}

/// Per-channel affine-normalization parameters shared by [`GraphOp::BatchNorm`]
/// and [`GraphOp::FusedConvBn`]: `y = gamma * (x - mean) / scale + beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnParams {
    /// Scale `gamma`, `[1, C, 1, 1]`.
    pub gamma: ConstId,
    /// Shift `beta`, `[1, C, 1, 1]`.
    pub beta: ConstId,
    /// Running mean, `[1, C, 1, 1]`.
    pub mean: ConstId,
    /// The divisor (running variance or precomputed std).
    pub scale: BnScale,
}

/// One typed operation. Every variant produces exactly one tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphOp {
    /// The graph's single external input (`[n, input_c, input_h, input_w]`).
    Input,
    /// A compile-time constant (`consts[value]`, batch 1), broadcast to the
    /// execution batch by plane replication.
    Const {
        /// The constant tensor.
        value: ConstId,
    },
    /// 2-D convolution, no bias. `ref_gemm` pins the GEMM kernel variant
    /// and blocking to the full-width shape the supernet reference runs,
    /// so channel-specialized (smaller) convs still accumulate in the same
    /// order and stay bit-identical to the masked reference.
    Conv {
        /// Geometry (after any specialization).
        params: Conv2dParams,
        /// Weight `[c_out, c_in/groups, k, k]`.
        weight: ConstId,
        /// Full-width per-group `(m, k, n)` recorded at lowering.
        ref_gemm: Option<(usize, usize, usize)>,
    },
    /// Convolution followed by a batch-norm epilogue (and optionally ReLU)
    /// applied per output channel — *not* folded into the weights, so the
    /// arithmetic is elementwise-identical to Conv → BatchNorm → ReLU.
    FusedConvBn {
        /// Geometry (after any specialization).
        params: Conv2dParams,
        /// Weight `[c_out, c_in/groups, k, k]`.
        weight: ConstId,
        /// The epilogue's normalization parameters.
        bn: BnParams,
        /// Apply `max(0, ·)` after the normalization.
        relu: bool,
        /// Full-width per-group `(m, k, n)` recorded at lowering.
        ref_gemm: Option<(usize, usize, usize)>,
    },
    /// Inference-mode batch normalization.
    BatchNorm {
        /// Normalization parameters.
        bn: BnParams,
    },
    /// Elementwise `max(0, x)`.
    Relu,
    /// `ShuffleNet` channel shuffle.
    ChannelShuffle {
        /// Group count.
        groups: usize,
    },
    /// Channel-axis slice `[start, start + len)`.
    SliceChannels {
        /// First channel kept.
        start: usize,
        /// Channels kept.
        len: usize,
    },
    /// Channel-axis concatenation of all inputs, in order.
    Concat,
    /// The specialized replacement for concat + shuffle(2) + mask: output
    /// channel `j < keep` reads plane `j/2` of the left input (`j` even)
    /// or the right input (`j` odd), zero-filling when the source plane
    /// index is beyond that input's physical width or the right input is
    /// absent entirely (fully pruned branch).
    InterleaveMasked {
        /// Logical post-mask width (always the gene's `keep`).
        keep: usize,
    },
    /// Zero-pads the channel axis up to `to` (identity if already there).
    /// Inserted in front of depthwise convolutions whose producer was
    /// physically narrowed, because depthwise convs cannot be input-pruned.
    PadChannels {
        /// Target physical width.
        to: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Global average pooling to `[n, c, 1, 1]`.
    GlobalAvgPool,
    /// Copy-the-prefix channel adaptation (truncate or zero-pad) used by
    /// the stride-2 skip operator.
    AdaptChannels {
        /// Target channel count.
        c_out: usize,
    },
    /// Zeroes channels `>= keep` (the supernet's `I^l` mask). Present
    /// after lowering; specialization replaces or deletes every instance.
    MaskChannels {
        /// Channels left untouched.
        keep: usize,
    },
    /// Fully connected classifier: `y = W x + b` on `[n, c, 1, 1]`.
    Linear {
        /// Weight `[out, in, 1, 1]`.
        weight: ConstId,
        /// Bias `[1, out, 1, 1]`.
        bias: ConstId,
    },
}

impl GraphOp {
    /// Short lowercase op name for telemetry spans and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            GraphOp::Input => "input",
            GraphOp::Const { .. } => "const",
            GraphOp::Conv { .. } => "conv",
            GraphOp::FusedConvBn { .. } => "fused_conv_bn",
            GraphOp::BatchNorm { .. } => "batch_norm",
            GraphOp::Relu => "relu",
            GraphOp::ChannelShuffle { .. } => "channel_shuffle",
            GraphOp::SliceChannels { .. } => "slice_channels",
            GraphOp::Concat => "concat",
            GraphOp::InterleaveMasked { .. } => "interleave_masked",
            GraphOp::PadChannels { .. } => "pad_channels",
            GraphOp::AvgPool { .. } => "avg_pool",
            GraphOp::GlobalAvgPool => "global_avg_pool",
            GraphOp::AdaptChannels { .. } => "adapt_channels",
            GraphOp::MaskChannels { .. } => "mask_channels",
            GraphOp::Linear { .. } => "linear",
        }
    }
}

/// One node: an op, its input edges, and its physical output shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: GraphOp,
    /// Input edges in positional order.
    pub inputs: Vec<Outlet>,
    /// Per-image physical output shape.
    pub shape: NodeShape,
}

/// A named activation boundary used by `compare`: after optimization the
/// node's physical width may be smaller than the logical (masked
/// supernet) width, so the logical width is carried alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Boundary label (`"stem"`, `"layer3"`, `"logits"`).
    pub label: String,
    /// Node whose output is the boundary activation.
    pub node: usize,
    /// Logical channel width at this boundary in the reference supernet.
    pub logical_c: usize,
}

/// The dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Nodes; after [`Graph::retain_reachable`] they are in topological
    /// order (every input id is smaller than its consumer's id).
    pub nodes: Vec<Node>,
    /// Constant pool (weights, normalization parameters, folded branches).
    pub consts: Vec<Tensor>,
    /// Expected input channels.
    pub input_c: usize,
    /// Expected input height.
    pub input_h: usize,
    /// Expected input width.
    pub input_w: usize,
    /// The node whose output is the graph result.
    pub output: usize,
    /// Named activation boundaries in network order.
    pub checkpoints: Vec<Checkpoint>,
}

impl Graph {
    /// An empty graph with the given input shape.
    pub fn new(input_c: usize, input_h: usize, input_w: usize) -> Graph {
        Graph {
            nodes: Vec::new(),
            consts: Vec::new(),
            input_c,
            input_h,
            input_w,
            output: 0,
            checkpoints: Vec::new(),
        }
    }

    /// Appends a node, returning its id.
    pub fn add(&mut self, op: GraphOp, inputs: Vec<Outlet>, shape: NodeShape) -> usize {
        self.nodes.push(Node { op, inputs, shape });
        self.nodes.len() - 1
    }

    /// Interns a constant tensor, returning its pool id.
    pub fn add_const(&mut self, value: Tensor) -> ConstId {
        self.consts.push(value);
        self.consts.len() - 1
    }

    /// Redirects every edge (and the output / checkpoint references) that
    /// points at `from` to point at `to` instead. `from` itself keeps its
    /// inputs and becomes garbage for the next dead-node sweep unless it
    /// is still referenced.
    pub fn rewire(&mut self, from: usize, to: usize) {
        for node in &mut self.nodes {
            for outlet in &mut node.inputs {
                if outlet.node == from {
                    outlet.node = to;
                }
            }
        }
        if self.output == from {
            self.output = to;
        }
        for cp in &mut self.checkpoints {
            if cp.node == from {
                cp.node = to;
            }
        }
    }

    /// Nodes reachable from the output, in topological (post-DFS) order.
    pub fn topo_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        // 0 = unvisited, 1 = on stack (being expanded), 2 = done
        let mut state = vec![0u8; self.nodes.len()];
        // iterative DFS: (node, next input index to expand)
        let mut stack = vec![(self.output, 0usize)];
        state[self.output] = 1;
        while let Some(&(id, next)) = stack.last() {
            let inputs = &self.nodes[id].inputs;
            if next < inputs.len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let child = inputs[next].node;
                if state[child] == 0 {
                    state[child] = 1;
                    stack.push((child, 0));
                }
            } else {
                state[id] = 2;
                order.push(id);
                stack.pop();
            }
        }
        order
    }

    /// Drops unreachable nodes and unreferenced constants, compacting ids
    /// so the surviving nodes are numbered in topological order (inputs
    /// always before consumers). Returns the number of nodes removed.
    pub fn retain_reachable(&mut self) -> usize {
        let order = self.topo_order();
        let removed = self.nodes.len() - order.len();
        let mut node_map = vec![usize::MAX; self.nodes.len()];
        for (new_id, &old_id) in order.iter().enumerate() {
            node_map[old_id] = new_id;
        }
        let mut new_nodes = Vec::with_capacity(order.len());
        for &old_id in &order {
            let mut node = self.nodes[old_id].clone();
            for outlet in &mut node.inputs {
                outlet.node = node_map[outlet.node];
            }
            new_nodes.push(node);
        }
        self.nodes = new_nodes;
        self.output = node_map[self.output];
        for cp in &mut self.checkpoints {
            cp.node = node_map[cp.node];
        }

        // compact the constant pool to what the surviving nodes reference
        let mut const_map = vec![usize::MAX; self.consts.len()];
        let mut new_consts = Vec::new();
        let mut intern = |id: &mut ConstId, consts: &[Tensor]| {
            if const_map[*id] == usize::MAX {
                const_map[*id] = new_consts.len();
                new_consts.push(consts[*id].clone());
            }
            *id = const_map[*id];
        };
        for node in &mut self.nodes {
            match &mut node.op {
                GraphOp::Const { value } => intern(value, &self.consts),
                GraphOp::Conv { weight, .. } => intern(weight, &self.consts),
                GraphOp::FusedConvBn { weight, bn, .. } => {
                    intern(weight, &self.consts);
                    intern(&mut bn.gamma, &self.consts);
                    intern(&mut bn.beta, &self.consts);
                    intern(&mut bn.mean, &self.consts);
                    match &mut bn.scale {
                        BnScale::Var { var, .. } => intern(var, &self.consts),
                        BnScale::Std { std } => intern(std, &self.consts),
                    }
                }
                GraphOp::BatchNorm { bn } => {
                    intern(&mut bn.gamma, &self.consts);
                    intern(&mut bn.beta, &self.consts);
                    intern(&mut bn.mean, &self.consts);
                    match &mut bn.scale {
                        BnScale::Var { var, .. } => intern(var, &self.consts),
                        BnScale::Std { std } => intern(std, &self.consts),
                    }
                }
                GraphOp::Linear { weight, bias } => {
                    intern(weight, &self.consts);
                    intern(bias, &self.consts);
                }
                _ => {}
            }
        }
        self.consts = new_consts;
        removed
    }

    /// Structural sanity checks: in-range edges and constant references,
    /// checkpoint and output validity. Cheap; run after deserialization
    /// and after each patch pipeline in debug builds.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Malformed`] describing the first violation.
    pub fn validate(&self) -> Result<(), GraphError> {
        let malformed = |detail: String| Err(GraphError::Malformed { detail });
        if self.nodes.is_empty() {
            return malformed("graph has no nodes".into());
        }
        if self.output >= self.nodes.len() {
            return malformed(format!(
                "output node {} out of range ({} nodes)",
                self.output,
                self.nodes.len()
            ));
        }
        let check_const = |id: ConstId, what: &str, node: usize| {
            if id >= self.consts.len() {
                return malformed(format!(
                    "node {node}: {what} const {id} out of range ({} consts)",
                    self.consts.len()
                ));
            }
            Ok(())
        };
        for (id, node) in self.nodes.iter().enumerate() {
            for outlet in &node.inputs {
                if outlet.node >= self.nodes.len() {
                    return malformed(format!(
                        "node {id}: input edge to missing node {}",
                        outlet.node
                    ));
                }
                if outlet.slot != 0 {
                    return malformed(format!(
                        "node {id}: input slot {} (only slot 0 exists)",
                        outlet.slot
                    ));
                }
            }
            let bn_consts = |bn: &BnParams| -> Result<(), GraphError> {
                check_const(bn.gamma, "gamma", id)?;
                check_const(bn.beta, "beta", id)?;
                check_const(bn.mean, "mean", id)?;
                match bn.scale {
                    BnScale::Var { var, .. } => check_const(var, "var", id),
                    BnScale::Std { std } => check_const(std, "std", id),
                }
            };
            match &node.op {
                GraphOp::Const { value } => check_const(*value, "value", id)?,
                GraphOp::Conv { weight, .. } => check_const(*weight, "weight", id)?,
                GraphOp::FusedConvBn { weight, bn, .. } => {
                    check_const(*weight, "weight", id)?;
                    bn_consts(bn)?;
                }
                GraphOp::BatchNorm { bn } => bn_consts(bn)?,
                GraphOp::Linear { weight, bias } => {
                    check_const(*weight, "weight", id)?;
                    check_const(*bias, "bias", id)?;
                }
                _ => {}
            }
        }
        for cp in &self.checkpoints {
            if cp.node >= self.nodes.len() {
                return malformed(format!(
                    "checkpoint {:?} references missing node {}",
                    cp.label, cp.node
                ));
            }
        }
        Ok(())
    }

    /// Total f32 element count across the constant pool (weights plus
    /// normalization parameters) — the artifact's payload-dominating term
    /// and the quantity channel specialization shrinks.
    pub fn const_elements(&self) -> usize {
        self.consts.iter().map(Tensor::len).sum()
    }
}
