//! # hsconas
//!
//! The end-to-end HSCoNAS pipeline (DATE 2021): hardware-software co-design
//! of efficient DNNs via neural architecture search.
//!
//! This crate ties the subsystem crates together into the paper's Fig. 1
//! flow:
//!
//! 1. build the search space ([`hsconas_space`]);
//! 2. calibrate the hardware performance model for the target device
//!    ([`hsconas_latency`] over the simulated devices of
//!    [`hsconas_hwsim`]);
//! 3. progressively shrink the space towards the target hardware
//!    ([`hsconas_shrink`]);
//! 4. run the evolutionary search ([`hsconas_evo`]) with the Eq. 1
//!    objective combining the accuracy oracle ([`hsconas_accuracy`]) and
//!    the latency predictor;
//! 5. report Table-I-style comparisons against the baseline zoo
//!    ([`hsconas_baselines`]).
//!
//! Every pipeline is crash-safe through one driver, [`Checkpointer`]: each
//! entry point has a single body that takes `Option<&CheckpointOptions>`
//! ([`search_for_device_checkpointed`], [`run_real_pipeline_checkpointed`]),
//! and the plain names ([`search_for_device`], [`run_real_pipeline`]) call
//! it with `None`, which reads and writes nothing. A run resumed from any
//! checkpoint is bit-identical to an uninterrupted one.
//!
//! ## Example
//!
//! ```no_run
//! use hsconas::{search_for_device, PipelineConfig};
//! use hsconas_hwsim::DeviceSpec;
//! use hsconas_space::SearchSpace;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), hsconas::PipelineError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let outcome = search_for_device(
//!     SearchSpace::hsconas_a(),
//!     DeviceSpec::edge_xavier(),
//!     34.0, // the paper's edge latency target (ms)
//!     &PipelineConfig::default(),
//!     &mut rng,
//! )?;
//! println!("found {} @ {:.1} ms", outcome.best_arch, outcome.best.latency_ms);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod checkpoint;
pub mod config;
pub mod persist;
pub mod pipeline;
pub mod real_pipeline;
pub mod report;

pub use checkpoint::{
    pareto_config_hash, run_pareto_checkpointed, run_search_checkpointed, CheckpointOptions,
    Checkpointer,
};
pub use config::PipelineConfig;
pub use error::PipelineError;
pub use persist::{load_json, save_json, SavedModel};
pub use pipeline::{search_for_device, search_for_device_checkpointed, SearchOutcome};
pub use real_pipeline::{
    run_real_pipeline, run_real_pipeline_checkpointed, RealPipelineConfig, RealPipelineResult,
};
pub use report::{render_table, table_one, TableGroup, TableRow};
