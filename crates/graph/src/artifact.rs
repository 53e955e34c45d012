//! The `.hsart` deployment artifact: an optimized graph, its weights, and
//! the provenance needed to rebuild the reference supernet it must match.
//!
//! ## Envelope
//!
//! The [`hsconas_ckpt::envelope`] header with magic "HSAR" and format
//! version 1, around an hsconas-ckpt Encoder stream.
//!
//! Loading is strict: wrong magic, a foreign version, a length that does
//! not match the file, a checksum mismatch, an unknown op tag, trailing
//! payload bytes, or a graph that fails structural validation all reject
//! loudly with a [`GraphError::Artifact`] naming the reason — a truncated
//! or bit-flipped artifact can never limp into inference.

use std::path::Path;

use hsconas_ckpt::{envelope, write_atomic_bytes, Decoder, Encoder};
use hsconas_space::NetworkSkeleton;
use hsconas_tensor::Tensor;

use crate::ir::{BnParams, BnScale, Checkpoint, Graph, GraphOp, Node, NodeShape, Outlet};
use crate::GraphError;

/// Artifact envelope magic.
pub const MAGIC: [u8; 4] = *b"HSAR";
/// Current artifact format version.
pub const FORMAT_VERSION: u32 = 1;

/// Provenance: everything needed to deterministically rebuild the
/// reference supernet this artifact was compiled from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// The network skeleton.
    pub skeleton: NetworkSkeleton,
    /// The genome, in [`hsconas_space::Arch::encode`] form.
    pub genome: Vec<usize>,
    /// Seed for supernet weight initialization and warmup data.
    pub seed: u64,
    /// Warmup forward passes run before export (populates BN statistics).
    pub warmup_steps: usize,
}

/// A compiled model: optimized graph plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The optimized graph (topologically ordered).
    pub graph: Graph,
    /// Provenance metadata.
    pub meta: ArtifactMeta,
}

fn art_err(detail: String) -> GraphError {
    GraphError::Artifact { detail }
}

fn put_bn(e: &mut Encoder, bn: &BnParams) {
    e.put_usize(bn.gamma);
    e.put_usize(bn.beta);
    e.put_usize(bn.mean);
    match bn.scale {
        BnScale::Var { var, eps } => {
            e.put_u8(0);
            e.put_usize(var);
            e.put_f32(eps);
        }
        BnScale::Std { std } => {
            e.put_u8(1);
            e.put_usize(std);
        }
    }
}

fn get_bn(d: &mut Decoder) -> Result<BnParams, GraphError> {
    let gamma = d.get_usize()?;
    let beta = d.get_usize()?;
    let mean = d.get_usize()?;
    let scale = match d.get_u8()? {
        0 => BnScale::Var {
            var: d.get_usize()?,
            eps: d.get_f32()?,
        },
        1 => BnScale::Std {
            std: d.get_usize()?,
        },
        tag => return Err(art_err(format!("unknown bn-scale tag {tag}"))),
    };
    Ok(BnParams {
        gamma,
        beta,
        mean,
        scale,
    })
}

fn put_conv_params(e: &mut Encoder, p: &hsconas_tensor::conv::Conv2dParams) {
    e.put_usize(p.c_in);
    e.put_usize(p.c_out);
    e.put_usize(p.kernel);
    e.put_usize(p.stride);
    e.put_usize(p.pad);
    e.put_usize(p.groups);
}

fn get_conv_params(d: &mut Decoder) -> Result<hsconas_tensor::conv::Conv2dParams, GraphError> {
    Ok(hsconas_tensor::conv::Conv2dParams {
        c_in: d.get_usize()?,
        c_out: d.get_usize()?,
        kernel: d.get_usize()?,
        stride: d.get_usize()?,
        pad: d.get_usize()?,
        groups: d.get_usize()?,
    })
}

fn put_ref_gemm(e: &mut Encoder, r: &Option<(usize, usize, usize)>) {
    match r {
        Some((m, k, n)) => {
            e.put_bool(true);
            e.put_usize(*m);
            e.put_usize(*k);
            e.put_usize(*n);
        }
        None => e.put_bool(false),
    }
}

fn get_ref_gemm(d: &mut Decoder) -> Result<Option<(usize, usize, usize)>, GraphError> {
    Ok(if d.get_bool()? {
        Some((d.get_usize()?, d.get_usize()?, d.get_usize()?))
    } else {
        None
    })
}

fn put_op(e: &mut Encoder, op: &GraphOp) {
    match op {
        GraphOp::Input => e.put_u8(0),
        GraphOp::Const { value } => {
            e.put_u8(1);
            e.put_usize(*value);
        }
        GraphOp::Conv {
            params,
            weight,
            ref_gemm,
        } => {
            e.put_u8(2);
            put_conv_params(e, params);
            e.put_usize(*weight);
            put_ref_gemm(e, ref_gemm);
        }
        GraphOp::FusedConvBn {
            params,
            weight,
            bn,
            relu,
            ref_gemm,
        } => {
            e.put_u8(3);
            put_conv_params(e, params);
            e.put_usize(*weight);
            put_bn(e, bn);
            e.put_bool(*relu);
            put_ref_gemm(e, ref_gemm);
        }
        GraphOp::BatchNorm { bn } => {
            e.put_u8(4);
            put_bn(e, bn);
        }
        GraphOp::Relu => e.put_u8(5),
        GraphOp::ChannelShuffle { groups } => {
            e.put_u8(6);
            e.put_usize(*groups);
        }
        GraphOp::SliceChannels { start, len } => {
            e.put_u8(7);
            e.put_usize(*start);
            e.put_usize(*len);
        }
        GraphOp::Concat => e.put_u8(8),
        GraphOp::InterleaveMasked { keep } => {
            e.put_u8(9);
            e.put_usize(*keep);
        }
        GraphOp::PadChannels { to } => {
            e.put_u8(10);
            e.put_usize(*to);
        }
        GraphOp::AvgPool {
            kernel,
            stride,
            pad,
        } => {
            e.put_u8(11);
            e.put_usize(*kernel);
            e.put_usize(*stride);
            e.put_usize(*pad);
        }
        GraphOp::GlobalAvgPool => e.put_u8(12),
        GraphOp::AdaptChannels { c_out } => {
            e.put_u8(13);
            e.put_usize(*c_out);
        }
        GraphOp::MaskChannels { keep } => {
            e.put_u8(14);
            e.put_usize(*keep);
        }
        GraphOp::Linear { weight, bias } => {
            e.put_u8(15);
            e.put_usize(*weight);
            e.put_usize(*bias);
        }
    }
}

fn get_op(d: &mut Decoder) -> Result<GraphOp, GraphError> {
    Ok(match d.get_u8()? {
        0 => GraphOp::Input,
        1 => GraphOp::Const {
            value: d.get_usize()?,
        },
        2 => GraphOp::Conv {
            params: get_conv_params(d)?,
            weight: d.get_usize()?,
            ref_gemm: get_ref_gemm(d)?,
        },
        3 => GraphOp::FusedConvBn {
            params: get_conv_params(d)?,
            weight: d.get_usize()?,
            bn: get_bn(d)?,
            relu: d.get_bool()?,
            ref_gemm: get_ref_gemm(d)?,
        },
        4 => GraphOp::BatchNorm { bn: get_bn(d)? },
        5 => GraphOp::Relu,
        6 => GraphOp::ChannelShuffle {
            groups: d.get_usize()?,
        },
        7 => GraphOp::SliceChannels {
            start: d.get_usize()?,
            len: d.get_usize()?,
        },
        8 => GraphOp::Concat,
        9 => GraphOp::InterleaveMasked {
            keep: d.get_usize()?,
        },
        10 => GraphOp::PadChannels { to: d.get_usize()? },
        11 => GraphOp::AvgPool {
            kernel: d.get_usize()?,
            stride: d.get_usize()?,
            pad: d.get_usize()?,
        },
        12 => GraphOp::GlobalAvgPool,
        13 => GraphOp::AdaptChannels {
            c_out: d.get_usize()?,
        },
        14 => GraphOp::MaskChannels {
            keep: d.get_usize()?,
        },
        15 => GraphOp::Linear {
            weight: d.get_usize()?,
            bias: d.get_usize()?,
        },
        tag => return Err(art_err(format!("unknown op tag {tag}"))),
    })
}

/// Serializes an artifact to its byte representation.
pub fn to_bytes(artifact: &Artifact) -> Vec<u8> {
    let mut e = Encoder::new();
    // provenance
    let sk = &artifact.meta.skeleton;
    e.put_usize(sk.input_resolution);
    e.put_usize(sk.input_channels);
    e.put_usize(sk.stem_channels);
    for &c in &sk.stage_channels {
        e.put_usize(c);
    }
    for &d in &sk.stage_depths {
        e.put_usize(d);
    }
    e.put_usize(sk.head_channels);
    e.put_usize(sk.num_classes);
    e.put_usize(artifact.meta.genome.len());
    for &gene in &artifact.meta.genome {
        e.put_usize(gene);
    }
    e.put_u64(artifact.meta.seed);
    e.put_usize(artifact.meta.warmup_steps);

    // graph
    let g = &artifact.graph;
    e.put_usize(g.input_c);
    e.put_usize(g.input_h);
    e.put_usize(g.input_w);
    e.put_usize(g.output);
    e.put_usize(g.checkpoints.len());
    for cp in &g.checkpoints {
        e.put_str(&cp.label);
        e.put_usize(cp.node);
        e.put_usize(cp.logical_c);
    }
    e.put_usize(g.consts.len());
    for t in &g.consts {
        let s = t.shape();
        e.put_usize(s.n);
        e.put_usize(s.c);
        e.put_usize(s.h);
        e.put_usize(s.w);
        e.put_f32_slice(t.data());
    }
    e.put_usize(g.nodes.len());
    for node in &g.nodes {
        put_op(&mut e, &node.op);
        e.put_usize(node.inputs.len());
        for outlet in &node.inputs {
            e.put_usize(outlet.node);
            e.put_usize(outlet.slot);
        }
        e.put_usize(node.shape.c);
        e.put_usize(node.shape.h);
        e.put_usize(node.shape.w);
    }
    let payload = e.finish();

    envelope::seal(MAGIC, FORMAT_VERSION, &payload)
}

/// Parses an artifact, rejecting any malformed envelope or payload.
///
/// # Errors
///
/// Returns [`GraphError::Artifact`] naming the first defect found.
pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, GraphError> {
    let payload = envelope::open(MAGIC, FORMAT_VERSION, bytes).map_err(art_err)?;
    let mut d = Decoder::new(payload);
    let input_resolution = d.get_usize()?;
    let input_channels = d.get_usize()?;
    let stem_channels = d.get_usize()?;
    let mut stage_channels = [0usize; 4];
    for c in &mut stage_channels {
        *c = d.get_usize()?;
    }
    let mut stage_depths = [0usize; 4];
    for depth in &mut stage_depths {
        *depth = d.get_usize()?;
    }
    let skeleton = NetworkSkeleton {
        input_resolution,
        input_channels,
        stem_channels,
        stage_channels,
        stage_depths,
        head_channels: d.get_usize()?,
        num_classes: d.get_usize()?,
    };
    let genome_len = d.get_usize()?;
    let mut genome = Vec::with_capacity(genome_len.min(1 << 16));
    for _ in 0..genome_len {
        genome.push(d.get_usize()?);
    }
    let seed = d.get_u64()?;
    let warmup_steps = d.get_usize()?;

    let mut graph = Graph::new(d.get_usize()?, d.get_usize()?, d.get_usize()?);
    graph.output = d.get_usize()?;
    let cp_count = d.get_usize()?;
    for _ in 0..cp_count {
        graph.checkpoints.push(Checkpoint {
            label: d.get_str()?,
            node: d.get_usize()?,
            logical_c: d.get_usize()?,
        });
    }
    let const_count = d.get_usize()?;
    for i in 0..const_count {
        let (n, c, h, w) = (
            d.get_usize()?,
            d.get_usize()?,
            d.get_usize()?,
            d.get_usize()?,
        );
        let data = d.get_f32_vec()?;
        let t = Tensor::from_vec([n, c, h, w], data)
            .map_err(|e| art_err(format!("constant {i}: {e}")))?;
        graph.consts.push(t);
    }
    let node_count = d.get_usize()?;
    for id in 0..node_count {
        let op = get_op(&mut d)?;
        let input_count = d.get_usize()?;
        let mut inputs = Vec::with_capacity(input_count.min(1 << 10));
        for _ in 0..input_count {
            let node = d.get_usize()?;
            let slot = d.get_usize()?;
            if node >= id {
                return Err(art_err(format!(
                    "node {id} consumes node {node}: artifact graphs must be topologically ordered"
                )));
            }
            inputs.push(Outlet { node, slot });
        }
        let shape = NodeShape {
            c: d.get_usize()?,
            h: d.get_usize()?,
            w: d.get_usize()?,
        };
        graph.nodes.push(Node { op, inputs, shape });
    }
    d.expect_end()?;
    graph
        .validate()
        .map_err(|e| art_err(format!("structural validation failed: {e}")))?;

    Ok(Artifact {
        graph,
        meta: ArtifactMeta {
            skeleton,
            genome,
            seed,
            warmup_steps,
        },
    })
}

/// Writes the artifact atomically (temp file + rename).
///
/// # Errors
///
/// Returns [`GraphError`] on I/O failure.
pub fn save(artifact: &Artifact, path: &Path) -> Result<(), GraphError> {
    write_atomic_bytes(path, &to_bytes(artifact))?;
    Ok(())
}

/// Reads and strictly validates an artifact from disk.
///
/// # Errors
///
/// Returns [`GraphError`] on I/O failure or any envelope/payload defect.
pub fn load(path: &Path) -> Result<Artifact, GraphError> {
    let bytes =
        std::fs::read(path).map_err(|e| art_err(format!("reading {}: {e}", path.display())))?;
    from_bytes(&bytes)
}
