//! # hsconas-shrink
//!
//! Progressive space shrinking (§III-C of the paper).
//!
//! The quality of a subspace `A_sub` is estimated per **Definition 1**:
//! the mean of the multi-objective score `F(arch, T)` over `N = 100`
//! architectures sampled uniformly from the subspace. Shrinking proceeds
//! from the last layer towards the front in two stages — layers 20→17,
//! then (after a fine-tuning break, exposed as a callback) layers 16→13 —
//! fixing each layer to its best-quality operator. Each four-layer stage
//! reduces the space by `5⁴ ≈ 625×` (the "three orders of magnitude" of
//! the paper; evaluating `5 × 4` subspaces instead of `5⁴`).
//!
//! [`ProgressiveShrinking::run`] is the one entry point. Crash-safe
//! drivers (the `hsconas` pipelines) resume by calling it one stage at a
//! time over a space rebuilt from the saved [`LayerDecision`]s.
//!
//! ## Example
//!
//! ```
//! use hsconas_shrink::{ProgressiveShrinking, ShrinkConfig};
//! use hsconas_evo::{Evaluation, EvoError, Objective};
//! use hsconas_space::{Arch, SearchSpace};
//! use rand::SeedableRng;
//!
//! struct Flops;
//! impl Objective for Flops {
//!     fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
//!         let score = -(arch.genes().iter().map(|g| g.scale.fraction()).sum::<f64>());
//!         Ok(Evaluation { score, accuracy: 0.0, latency_ms: 0.0 })
//!     }
//! }
//!
//! # fn main() -> Result<(), EvoError> {
//! let space = SearchSpace::tiny(10);
//! let config = ShrinkConfig { stages: vec![vec![3, 2]], samples_per_subspace: 10 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let result = ProgressiveShrinking::new(config)
//!     .run(space, &mut Flops, &mut rng, |_stage, _space| Ok(()))?;
//! assert_eq!(result.space.allowed_ops(3).len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quality;
pub mod schedule;

pub use quality::subspace_quality;
pub use schedule::{LayerDecision, ProgressiveShrinking, ShrinkConfig, ShrinkResult, StageRecord};
