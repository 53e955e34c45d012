//! # hsconas-supernet
//!
//! The weight-sharing supernet (§II-A, §III-B): every layer holds all
//! K = 5 candidate operators at the stage's maximum width `S^l`, and
//! dynamic channel scaling is realized exactly as the paper describes —
//! a binary mask `I^l ∈ {0,1}^{S^l}` zeroes the trailing output channels,
//! so the supernet topology never has to grow ("scaling down ... can avoid
//! collapses during training").
//!
//! Training follows the single-path one-shot protocol: each step samples
//! one `(op, c)` path uniformly from the (possibly shrunk) search space and
//! updates only that path's parameters through standard backprop.
//! Architecture candidates are then evaluated with **inherited weights**,
//! which is what the progressive-shrinking quality metric and the
//! evolutionary search consume in the real-training pipeline.
//!
//! ## Example
//!
//! ```no_run
//! use hsconas_data::SyntheticDataset;
//! use hsconas_space::SearchSpace;
//! use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
//! use hsconas_tensor::rng::SmallRng;
//!
//! # fn main() -> Result<(), hsconas_supernet::SupernetError> {
//! let space = SearchSpace::tiny(4);
//! let data = SyntheticDataset::new(4, 32, 1);
//! let mut rng = SmallRng::new(0);
//! let supernet = Supernet::build(space.skeleton(), &mut rng)?;
//! let mut trainer = SupernetTrainer::new(supernet, TrainConfig::quick_test());
//! trainer.train(&space, &data, &mut rng)?;
//! let arch = hsconas_space::Arch::widest(4);
//! let acc = trainer.evaluate(&arch, &data, 4)?;
//! assert!(acc >= 0.0 && acc <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod masked;
pub mod mixed;
pub mod model;
pub mod oracle;
pub mod prefix;
pub mod subnet;
pub mod trainer;

pub use error::SupernetError;
pub use masked::DownsampleSkip;
pub use mixed::{build_operator, MixedLayer};
pub use model::Supernet;
pub use oracle::TrainedAccuracy;
pub use prefix::{PrefixCache, PrefixCacheStats, PrefixEntry};
pub use subnet::{build_subnet, train_from_scratch};
pub use trainer::{
    StepRecord, SupernetTrainer, TrainCkptHook, TrainConfig, TrainCursor, TrainerCheckpoint,
};
