//! # hsconas-graph
//!
//! Deployment path for searched architectures: a typed dataflow graph IR,
//! declarative optimization patches, and a standalone compile/infer
//! artifact.
//!
//! The searched `(op, c)` genome is **lowered** ([`lower()`]) from the live
//! supernet into an explicit graph, **optimized** ([`optimize`]) by four
//! patches — Conv+BN+ReLU fusion, channel-mask specialization (masked
//! channels are physically removed from weights, so the deployed GEMMs
//! are genuinely smaller), constant folding, and dead-node elimination —
//! and **serialized** ([`artifact`]) into a versioned, checksummed
//! `.hsart` file that infers without any supernet machinery.
//!
//! The pipeline's contract is *bit-identity*: for any genome, executing
//! the compiled graph produces logits `==` (f32 equality) to the masked
//! supernet forward on the same host, at any thread count and under any
//! `HSCONAS_KERNEL` selection. Three mechanisms carry that guarantee:
//!
//! 1. every convolution pins its GEMM kernel variant and blocking to the
//!    full-width shape recorded at lowering (`ref_gemm`), so shrinking the
//!    operands never flips the kernel selector;
//! 2. pruning only ever removes weight columns/rows that multiply
//!    exactly-zero activations (dropping `±0` addends under a fixed
//!    accumulation order is bit-preserving);
//! 3. batch-norm is fused as an *epilogue* with the identical per-channel
//!    arithmetic, never folded into weights.
//!
//! ## Quick start
//!
//! ```no_run
//! use hsconas_graph::{compile, execute, CompileOptions};
//! use hsconas_space::{Arch, NetworkSkeleton};
//! use hsconas_tensor::rng::SmallRng;
//! use hsconas_tensor::Tensor;
//!
//! # fn main() -> Result<(), hsconas_graph::GraphError> {
//! let skeleton = NetworkSkeleton::tiny(10);
//! let arch = Arch::widest(skeleton.num_layers());
//! let (artifact, stats) = compile(&skeleton, &arch, &CompileOptions::default())?;
//! let mut rng = SmallRng::new(7);
//! let x = Tensor::randn([1, 3, 32, 32], 1.0, &mut rng);
//! let logits = execute(&artifact.graph, &x)?;
//! assert_eq!(logits.shape().c, 10);
//! println!("fused {} convs, removed {} nodes", stats.fused, stats.removed);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compare;
pub mod compile;
pub mod exec;
pub mod ir;
pub mod lower;
pub mod patch;

pub use artifact::{Artifact, ArtifactMeta};
pub use compare::{compare, compare_against, CompareReport, LayerReport};
pub use compile::{build_reference, compile, compile_from, CompileOptions, WARMUP_BATCH};
pub use exec::{execute, execute_traced, TracedRun};
pub use ir::{BnParams, BnScale, Checkpoint, Graph, GraphOp, Node, NodeShape, Outlet};
pub use lower::{lower, LayerPlan, Plan, PlanKind};
pub use patch::{fold, fuse, optimize, specialize, PatchStats};

use hsconas_ckpt::CkptError;
use hsconas_tensor::TensorError;

/// Errors from lowering, patching, execution, or artifact handling.
#[derive(Debug)]
pub enum GraphError {
    /// The supernet/genome pair could not be lowered.
    Lower {
        /// Human-readable reason.
        detail: String,
    },
    /// A specialization rewrite met a structure the plan did not describe.
    Specialize {
        /// Human-readable reason.
        detail: String,
    },
    /// Execution failed (shape mismatch, unevaluable node).
    Exec {
        /// Human-readable reason.
        detail: String,
    },
    /// An artifact failed strict validation or I/O.
    Artifact {
        /// Human-readable reason.
        detail: String,
    },
    /// The graph's internal structure is inconsistent.
    Malformed {
        /// Human-readable reason.
        detail: String,
    },
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// Payload encoding/decoding failed.
    Ckpt(CkptError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Lower { detail } => write!(f, "lowering failed: {detail}"),
            GraphError::Specialize { detail } => write!(f, "specialization failed: {detail}"),
            GraphError::Exec { detail } => write!(f, "graph execution failed: {detail}"),
            GraphError::Artifact { detail } => write!(f, "artifact rejected: {detail}"),
            GraphError::Malformed { detail } => write!(f, "malformed graph: {detail}"),
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
            GraphError::Ckpt(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            GraphError::Ckpt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

impl From<CkptError> for GraphError {
    fn from(e: CkptError) -> Self {
        GraphError::Ckpt(e)
    }
}
