//! Graph execution.
//!
//! The executor walks the graph in topological order, computing one tensor
//! per node and releasing activations as soon as their last consumer has
//! run. Per-node arithmetic lives in [`eval_node`], which the constant
//! folding patch shares — a folded value is *by construction* the value
//! execution would have produced.
//!
//! A batch of two or more images is split into contiguous image shards,
//! one per `hsconas-par` thread, and each shard walks the whole graph on
//! its own thread into its slice of a caller-allocated output. A shard
//! stages its input, and drops every activation, on the thread that runs
//! it: a tensor dropped on another thread would join that thread's arena
//! pool instead of its own.
//!
//! Exactness: every op here reproduces the corresponding live-layer
//! arithmetic elementwise (convolutions through
//! [`conv2d_forward_pinned`] with the lowering-recorded reference GEMM
//! shape, the linear head through the same tagged `x·Wᵀ` product as
//! `hsconas_nn::Linear`, batch-norm as literally `g * (x - mean) / std + b`
//! per channel), so an optimized graph's logits match the masked supernet
//! forward bit for bit. Every op but the head is per image; the head's
//! product is pinned to the whole-batch shape, so a shard's rows take the
//! kernel the unsharded batch would.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use hsconas_nn::adapt_channels;
use hsconas_supernet::masked::mask_channels;
use hsconas_tensor::conv::conv2d_forward_pinned;
use hsconas_tensor::kernels::{gemm_pinned, GemmTags, Op};
use hsconas_tensor::pool::{avg_pool, global_avg_pool};
use hsconas_tensor::{arena, Tensor};

use crate::ir::{BnParams, BnScale, Graph, GraphOp, NodeShape, Outlet};
use crate::GraphError;

fn exec_err(detail: String) -> GraphError {
    GraphError::Exec { detail }
}

/// Applies the batch-norm epilogue (and optional ReLU) in place:
/// `y = gamma * (x - mean) / std + beta`, exactly the inference-mode
/// arithmetic of `hsconas_nn::BatchNorm2d`.
fn apply_bn(t: &mut Tensor, bn: &BnParams, consts: &[Tensor], relu: bool) {
    let s = t.shape();
    let plane = s.h * s.w;
    let gamma = &consts[bn.gamma];
    let beta = &consts[bn.beta];
    let mean = &consts[bn.mean];
    for c in 0..s.c {
        let g = gamma.at(0, c, 0, 0);
        let b = beta.at(0, c, 0, 0);
        let m = mean.at(0, c, 0, 0);
        let std = match bn.scale {
            BnScale::Var { var, eps } => (consts[var].at(0, c, 0, 0) + eps).sqrt(),
            BnScale::Std { std } => consts[std].at(0, c, 0, 0),
        };
        for n in 0..s.n {
            let start = (n * s.c + c) * plane;
            for v in &mut t.data_mut()[start..start + plane] {
                let y = g * (*v - m) / std + b;
                *v = if relu { y.max(0.0) } else { y };
            }
        }
    }
}

/// Copies channel plane `src_c` of every image in `src` to channel `dst_c`
/// of `dst` (shapes must agree in n/h/w).
fn copy_planes(dst: &mut Tensor, dst_c: usize, src: &Tensor, src_c: usize) {
    let ds = dst.shape();
    let ss = src.shape();
    let plane = ds.h * ds.w;
    for n in 0..ds.n {
        let from = (n * ss.c + src_c) * plane;
        let to = (n * ds.c + dst_c) * plane;
        dst.data_mut()[to..to + plane].copy_from_slice(&src.data()[from..from + plane]);
    }
}

/// Evaluates one non-source node on already-materialized inputs.
///
/// # Errors
///
/// Returns [`GraphError`] on shape mismatches or source ops
/// (`Input`/`Const`), which only the executor itself can materialize.
pub fn eval_node(
    op: &GraphOp,
    inputs: &[&Tensor],
    consts: &[Tensor],
) -> Result<Tensor, GraphError> {
    let batch = inputs.first().map_or(1, |x| x.shape().n);
    eval(op, inputs, consts, batch)
}

/// [`eval_node`] with the `Linear` product's kernel selection pinned to a
/// `batch`-row product, whatever the rows of this call.
fn eval(
    op: &GraphOp,
    inputs: &[&Tensor],
    consts: &[Tensor],
    batch: usize,
) -> Result<Tensor, GraphError> {
    let sole = || -> Result<&Tensor, GraphError> {
        inputs
            .first()
            .copied()
            .ok_or_else(|| exec_err(format!("{} node has no input", op.name())))
    };
    match op {
        GraphOp::Input | GraphOp::Const { .. } => Err(exec_err(format!(
            "{} is a source node and cannot be evaluated from inputs",
            op.name()
        ))),
        GraphOp::Conv {
            params,
            weight,
            ref_gemm,
        } => Ok(conv2d_forward_pinned(
            sole()?,
            &consts[*weight],
            params,
            *ref_gemm,
        )?),
        GraphOp::FusedConvBn {
            params,
            weight,
            bn,
            relu,
            ref_gemm,
        } => {
            let mut out = conv2d_forward_pinned(sole()?, &consts[*weight], params, *ref_gemm)?;
            apply_bn(&mut out, bn, consts, *relu);
            Ok(out)
        }
        GraphOp::BatchNorm { bn } => {
            let mut out = sole()?.clone();
            apply_bn(&mut out, bn, consts, false);
            Ok(out)
        }
        GraphOp::Relu => Ok(sole()?.map(|v| v.max(0.0))),
        GraphOp::ChannelShuffle { groups } => Ok(sole()?.channel_shuffle(*groups)?),
        GraphOp::SliceChannels { start, len } => {
            let x = sole()?;
            let s = x.shape();
            if start + len > s.c {
                return Err(exec_err(format!(
                    "slice [{start}, {}) exceeds {} channels",
                    start + len,
                    s.c
                )));
            }
            let mut out = Tensor::zeros([s.n, *len, s.h, s.w]);
            for c in 0..*len {
                copy_planes(&mut out, c, x, start + c);
            }
            Ok(out)
        }
        GraphOp::Concat => Ok(Tensor::concat_channels(inputs)?),
        GraphOp::InterleaveMasked { keep } => {
            let left = sole()?;
            let right = inputs.get(1).copied();
            let s = left.shape();
            let mut out = Tensor::zeros([s.n, *keep, s.h, s.w]);
            for j in 0..*keep {
                let (src, idx) = if j % 2 == 0 {
                    (Some(left), j / 2)
                } else {
                    (right, j / 2)
                };
                if let Some(t) = src {
                    if idx < t.shape().c {
                        copy_planes(&mut out, j, t, idx);
                    }
                }
            }
            Ok(out)
        }
        GraphOp::PadChannels { to } => {
            let x = sole()?;
            if x.shape().c > *to {
                return Err(exec_err(format!(
                    "pad target {to} below physical width {}",
                    x.shape().c
                )));
            }
            Ok(adapt_channels(x, *to))
        }
        GraphOp::AvgPool {
            kernel,
            stride,
            pad,
        } => Ok(avg_pool(sole()?, *kernel, *stride, *pad)),
        GraphOp::GlobalAvgPool => Ok(global_avg_pool(sole()?)),
        GraphOp::AdaptChannels { c_out } => Ok(adapt_channels(sole()?, *c_out)),
        GraphOp::MaskChannels { keep } => {
            let mut out = sole()?.clone();
            mask_channels(&mut out, *keep);
            Ok(out)
        }
        GraphOp::Linear { weight, bias } => {
            let x = sole()?;
            let weight = &consts[*weight];
            let bias = &consts[*bias];
            let (out_features, in_features) = (weight.shape().n, weight.shape().c);
            let s = x.shape();
            if s.c != in_features || s.h != 1 || s.w != 1 {
                return Err(exec_err(format!(
                    "linear expects [{in_features}, 1, 1] input, got [{}, {}, {}]",
                    s.c, s.h, s.w
                )));
            }
            let mut out = Tensor::zeros([s.n, out_features, 1, 1]);
            gemm_pinned(
                (batch, in_features, out_features),
                Op::ABt,
                x.data(),
                weight.data(),
                out.data_mut(),
                s.n,
                in_features,
                out_features,
                true,
                GemmTags::b_tag(weight.pack_tag()),
            );
            for n in 0..s.n {
                for o in 0..out_features {
                    *out.at_mut(n, o, 0, 0) += bias.at(0, o, 0, 0);
                }
            }
            Ok(out)
        }
    }
}

/// Replicates a batch-1 constant across the execution batch.
fn broadcast(value: &Tensor, n: usize) -> Tensor {
    if n == 1 {
        return value.clone();
    }
    let s = value.shape();
    let image = s.c * s.h * s.w;
    let mut out = Tensor::zeros([n, s.c, s.h, s.w]);
    for i in 0..n {
        out.data_mut()[i * image..(i + 1) * image].copy_from_slice(value.data());
    }
    out
}

/// Result of a traced execution: the logits plus every checkpoint
/// activation in network order.
#[derive(Debug)]
pub struct TracedRun {
    /// The output node's tensor.
    pub output: Tensor,
    /// `(label, activation)` for each graph checkpoint, in table order.
    pub checkpoints: Vec<(String, Tensor)>,
}

/// Runs the graph on a batch, returning the output tensor.
///
/// # Errors
///
/// Returns [`GraphError`] if the input shape does not match the graph or a
/// node fails to evaluate.
pub fn execute(graph: &Graph, input: &Tensor) -> Result<Tensor, GraphError> {
    run(graph, input, false).map(|r| r.output)
}

/// Like [`execute`] but also captures every checkpoint activation (used by
/// `compare` for layer-by-layer diffing).
///
/// # Errors
///
/// Returns [`GraphError`] on the same conditions as [`execute`].
pub fn execute_traced(graph: &Graph, input: &Tensor) -> Result<TracedRun, GraphError> {
    run(graph, input, true)
}

fn run(graph: &Graph, input: &Tensor, capture: bool) -> Result<TracedRun, GraphError> {
    graph.validate()?;
    let s = input.shape();
    if s.c != graph.input_c || s.h != graph.input_h || s.w != graph.input_w {
        return Err(exec_err(format!(
            "graph expects input [{}, {}, {}], got [{}, {}, {}]",
            graph.input_c, graph.input_h, graph.input_w, s.c, s.h, s.w
        )));
    }
    let order = graph.topo_order();
    let shards = if hsconas_par::in_worker() {
        1
    } else {
        hsconas_par::default_threads().min(s.n)
    };
    if shards <= 1 {
        return walk(graph, &order, input, 0..s.n, capture);
    }

    // The caller owns every result tensor; each shard fills its images'
    // slice of them.
    let batch_tensor = |node: usize| {
        let shape = graph.nodes[node].shape;
        Tensor::zeros([s.n, shape.c, shape.h, shape.w])
    };
    let mut output = batch_tensor(graph.output);
    let mut checkpoints: Vec<(String, Tensor)> = if capture {
        graph
            .checkpoints
            .iter()
            .map(|cp| (cp.label.clone(), batch_tensor(cp.node)))
            .collect()
    } else {
        Vec::new()
    };
    let mut checkpoint_slices: Vec<_> = checkpoints
        .iter_mut()
        .map(|(_, t)| shard_slices(t.data_mut(), s.n, shards))
        .collect();
    let items: Vec<Shard<'_>> = shard_slices(output.data_mut(), s.n, shards)
        .enumerate()
        .map(|(i, output)| Shard {
            images: shard_images(i, s.n, shards),
            output,
            checkpoints: checkpoint_slices
                .iter_mut()
                .map(|slices| slices.next().expect("one slice per shard"))
                .collect(),
        })
        .collect();
    drop(checkpoint_slices);

    // The lowest-numbered shard's error wins, as in a serial walk.
    let failure: Mutex<Option<(usize, GraphError)>> = Mutex::new(None);
    hsconas_par::par_for_each(items, shards, |i, shard| {
        let result = walk(graph, &order, input, shard.images, capture).and_then(|run| {
            fill(shard.output, &run.output, graph.nodes[graph.output].shape)?;
            let captured = shard.checkpoints.into_iter().zip(&run.checkpoints);
            for ((dst, (_, src)), cp) in captured.zip(&graph.checkpoints) {
                fill(dst, src, graph.nodes[cp.node].shape)?;
            }
            Ok(())
        });
        if let Err(e) = result {
            let mut first = failure.lock().unwrap_or_else(PoisonError::into_inner);
            if first.as_ref().is_none_or(|(j, _)| i < *j) {
                *first = Some((i, e));
            }
        }
    });
    match failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some((_, e)) => Err(e),
        None => Ok(TracedRun {
            output,
            checkpoints,
        }),
    }
}

/// One batch shard: its images, and its slices of the caller's output and
/// checkpoint tensors.
struct Shard<'a> {
    images: Range<usize>,
    output: &'a mut [f32],
    checkpoints: Vec<&'a mut [f32]>,
}

/// Images of shard `i` of `shards` over a batch of `n`: contiguous, with
/// sizes differing by at most one.
fn shard_images(i: usize, n: usize, shards: usize) -> Range<usize> {
    i * n / shards..(i + 1) * n / shards
}

/// Splits a batch-of-`n` tensor's `data` into its `shards` shard slices.
fn shard_slices(data: &mut [f32], n: usize, shards: usize) -> impl Iterator<Item = &mut [f32]> {
    let image = data.len() / n;
    let mut rest = data;
    (0..shards).map(move |i| {
        let (head, tail) =
            std::mem::take(&mut rest).split_at_mut(shard_images(i, n, shards).len() * image);
        rest = tail;
        head
    })
}

/// Copies a shard's result into its slice of the caller's tensor, which
/// was sized from the node's recorded `shape`.
fn fill(dst: &mut [f32], src: &Tensor, shape: NodeShape) -> Result<(), GraphError> {
    let s = src.shape();
    if (s.c, s.h, s.w) != (shape.c, shape.h, shape.w) || dst.len() != src.len() {
        return Err(exec_err(format!(
            "node produced [{}, {}, {}] where its shape records [{}, {}, {}]",
            s.c, s.h, s.w, shape.c, shape.h, shape.w
        )));
    }
    dst.copy_from_slice(src.data());
    Ok(())
}

/// Walks the whole graph over images `images` of `input`, on the calling
/// thread: the input is staged from the calling thread's arena, and every
/// activation is dropped here.
fn walk(
    graph: &Graph,
    order: &[usize],
    input: &Tensor,
    images: Range<usize>,
    capture: bool,
) -> Result<TracedRun, GraphError> {
    let batch = input.shape().n;
    let n = images.len();

    // Consumer refcounts so activations free at their last use; the output
    // and (when capturing) every checkpoint get an extra count to survive
    // the walk.
    let mut refs = vec![0usize; graph.nodes.len()];
    for &id in order {
        for outlet in &graph.nodes[id].inputs {
            refs[outlet.node] += 1;
        }
    }
    refs[graph.output] += 1;
    if capture {
        for cp in &graph.checkpoints {
            refs[cp.node] += 1;
        }
    }

    let mut acts: Vec<Option<Tensor>> = (0..graph.nodes.len()).map(|_| None).collect();
    for &id in order {
        let node = &graph.nodes[id];
        let _node_span = hsconas_telemetry::span!("graph.node", op = node.op.name());
        let out = match &node.op {
            GraphOp::Input => stage(input, images.clone()),
            GraphOp::Const { value } => broadcast(&graph.consts[*value], n),
            op => {
                let get = |o: &Outlet| acts[o.node].as_ref().expect("inputs precede consumers");
                match node.inputs.as_slice() {
                    [a] => eval(op, &[get(a)], &graph.consts, batch)?,
                    [a, b] => eval(op, &[get(a), get(b)], &graph.consts, batch)?,
                    many => {
                        let ins: Vec<&Tensor> = many.iter().map(get).collect();
                        eval(op, &ins, &graph.consts, batch)?
                    }
                }
            }
        };
        for outlet in &node.inputs {
            refs[outlet.node] -= 1;
            if refs[outlet.node] == 0 {
                acts[outlet.node] = None;
            }
        }
        acts[id] = Some(out);
    }

    let checkpoints = if capture {
        graph
            .checkpoints
            .iter()
            .map(|cp| {
                let t = acts[cp.node]
                    .clone()
                    .ok_or_else(|| exec_err(format!("checkpoint node {} was freed", cp.node)))?;
                Ok((cp.label.clone(), t))
            })
            .collect::<Result<_, GraphError>>()?
    } else {
        Vec::new()
    };
    let output = acts[graph.output]
        .take()
        .ok_or_else(|| exec_err("output node produced no tensor".into()))?;
    Ok(TracedRun {
        output,
        checkpoints,
    })
}

/// Images `images` of `input`, copied into the calling thread's arena.
fn stage(input: &Tensor, images: Range<usize>) -> Tensor {
    let s = input.shape();
    let image = s.c * s.h * s.w;
    let mut data = arena::take_buffer(images.len() * image);
    data.extend_from_slice(&input.data()[images.start * image..images.end * image]);
    Tensor::from_vec([images.len(), s.c, s.h, s.w], data).expect("staged length matches its shape")
}
