//! # hsconas-space
//!
//! The HSCoNAS search-space model: candidate operators, dynamic channel
//! scaling factors, architecture encoding, network geometry resolution, and
//! the hardware-agnostic cost model (FLOPs / parameter counting).
//!
//! The paper's space (§II-A, §III-B, §IV-B) is a 20-layer supernet with
//! K = 5 candidate operators per layer (ShuffleNetV2 blocks with kernel
//! sizes 3/5/7, an Xception-like block, and a skip connection) and
//! n = 10 channel scaling factors per layer, for
//! `|A| = 5^20 × 10^20 ≈ 9.5 × 10^33` architectures — the number quoted in
//! §III-A.
//!
//! ## Example
//!
//! ```
//! use hsconas_space::SearchSpace;
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::hsconas_a();
//! assert!((space.log10_size() - 33.9).abs() < 0.2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let arch = space.sample(&mut rng);
//! assert_eq!(arch.genes().len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod analysis;
pub mod arch;
pub mod cost;
pub mod geometry;
pub mod ops;
pub mod scale;
pub mod skeleton;
pub mod space;

pub use analysis::{arch_distance, enumerate, population_diversity};
pub use arch::{Arch, Gene};
pub use cost::{ArchCost, LayerCost};
pub use error::SpaceError;
pub use geometry::{resolve_geometry, ConvTable, LayerConv, LayerGeom};
pub use ops::OpKind;
pub use scale::ChannelScale;
pub use skeleton::{ChannelLayout, NetworkSkeleton};
pub use space::SearchSpace;
