//! The paper's *complete* flow on the real-training substrate: train the
//! weight-sharing supernet → progressively shrink with fine-tuning →
//! evolutionary search with inherited-weight accuracy → materialize the
//! winner and train it from scratch (the paper's "trained from scratch
//! for fair comparisons").
//!
//! This runs at laptop scale (tiny search space, synthetic dataset) and
//! exists to prove the pipeline end to end with no surrogate in the loop;
//! the ImageNet-scale pipeline in [`crate::pipeline`] swaps in the
//! calibrated surrogate oracle.

use crate::checkpoint::{real_config_hash, CheckpointOptions, Checkpointer};
use crate::error::objective_error;
use crate::PipelineError;
use hsconas_ckpt::Phase;
use hsconas_data::SyntheticDataset;
use hsconas_evo::{Evaluation, EvoError, EvolutionConfig, EvolutionSearch, Objective};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::LatencyPredictor;
use hsconas_shrink::ShrinkConfig;
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::subnet::{build_subnet, train_from_scratch};
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the real-training pipeline (tiny-space scale).
#[derive(Debug, Clone, PartialEq)]
pub struct RealPipelineConfig {
    /// Dataset classes.
    pub classes: usize,
    /// Supernet warm-training steps in the full space.
    pub warm_steps: usize,
    /// Fine-tuning steps after each shrinking stage.
    pub fine_tune_steps: usize,
    /// From-scratch training steps for the final model.
    pub final_steps: usize,
    /// Layers fixed per shrinking stage (tiny space: back layers).
    pub shrink_stages: Vec<Vec<usize>>,
    /// Architectures sampled per candidate subspace during shrinking.
    pub samples_per_subspace: usize,
    /// Evaluation batches per inherited-weight accuracy query.
    pub eval_batches: usize,
    /// Evolutionary-search hyper-parameters.
    pub evolution: EvolutionConfig,
    /// Latency target, ms (on the edge device).
    pub target_ms: f64,
    /// Trade-off coefficient β.
    pub beta: f64,
}

impl RealPipelineConfig {
    /// A configuration that completes in roughly a minute in release mode.
    pub fn tiny_default() -> Self {
        RealPipelineConfig {
            classes: 4,
            warm_steps: 240,
            fine_tune_steps: 60,
            final_steps: 200,
            shrink_stages: vec![vec![3], vec![2]],
            samples_per_subspace: 4,
            eval_batches: 2,
            evolution: EvolutionConfig {
                generations: 6,
                population: 12,
                parents: 4,
                ..Default::default()
            },
            target_ms: 20.0,
            beta: -20.0,
        }
    }

    /// A configuration for fast integration tests (seconds in debug mode).
    pub fn smoke_test() -> Self {
        RealPipelineConfig {
            warm_steps: 40,
            fine_tune_steps: 10,
            final_steps: 30,
            samples_per_subspace: 2,
            evolution: EvolutionConfig {
                generations: 2,
                population: 6,
                parents: 2,
                ..Default::default()
            },
            ..Self::tiny_default()
        }
    }
}

/// Result of a completed real-training pipeline run.
#[derive(Debug)]
pub struct RealPipelineResult {
    /// The space after progressive shrinking.
    pub shrunk_space: SearchSpace,
    /// The EA winner.
    pub best_arch: Arch,
    /// The winner's inherited-weight accuracy (supernet evaluation).
    pub inherited_accuracy: f64,
    /// The winner's accuracy after from-scratch training.
    pub from_scratch_accuracy: f64,
    /// The winner's predicted latency, ms.
    pub latency_ms: f64,
}

/// Objective combining real inherited-weight accuracy with the latency
/// predictor — Eq. 1 with no surrogate anywhere. It owns the supernet
/// trainer, which shrinking fine-tunes between stages.
struct InheritedWeightObjective<'a> {
    trainer: SupernetTrainer,
    data: &'a SyntheticDataset,
    predictor: &'a LatencyPredictor,
    eval_batches: usize,
    target_ms: f64,
    beta: f64,
}

impl Objective for InheritedWeightObjective<'_> {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        let acc = self
            .trainer
            .evaluate(arch, self.data, self.eval_batches)
            .map_err(|e| EvoError::Objective {
                detail: e.to_string(),
            })?;
        let latency_ms = self.predictor.predict_ms(arch).map_err(EvoError::Space)?;
        let accuracy = 100.0 * acc;
        Ok(Evaluation {
            score: accuracy + self.beta * (latency_ms / self.target_ms - 1.0).abs(),
            accuracy,
            latency_ms,
        })
    }
}

/// Runs the complete real-training pipeline on the tiny space.
///
/// # Errors
///
/// Returns [`PipelineError`] on any subsystem failure.
pub fn run_real_pipeline(
    config: &RealPipelineConfig,
    seed: u64,
) -> Result<RealPipelineResult, PipelineError> {
    run_real_pipeline_checkpointed(config, seed, None)
}

/// [`run_real_pipeline`] with optional crash-safe checkpointing: the run
/// writes a self-contained checkpoint at every phase boundary (and every
/// `train_interval` steps inside warm training), and with
/// `ckpt.resume = true` continues from the latest one **bit-identically**
/// to an uninterrupted run — weights, optimizer velocities, and all three
/// RNG streams are restored exactly.
///
/// # Errors
///
/// Returns [`PipelineError`] on any subsystem failure, including refusing
/// to resume from a checkpoint written under a different `(config, seed)`
/// or one that fails its integrity checks.
pub fn run_real_pipeline_checkpointed(
    config: &RealPipelineConfig,
    seed: u64,
    ckpt: Option<&CheckpointOptions>,
) -> Result<RealPipelineResult, PipelineError> {
    let result = run_phases(config, seed, ckpt);
    // The run's trainer, objective and subnet are dropped by now, and their
    // buffers sit in this thread's activation arena. Release them at the
    // pipeline boundary: a process that runs pipeline after pipeline would
    // otherwise carry one run's pool into the next, and its footprint
    // ratchets up.
    hsconas_tensor::arena::clear();
    result
}

/// The phases of [`run_real_pipeline_checkpointed`]; every tensor they
/// make is dropped when this returns.
fn run_phases(
    config: &RealPipelineConfig,
    seed: u64,
    ckpt: Option<&CheckpointOptions>,
) -> Result<RealPipelineResult, PipelineError> {
    let mut boundaries =
        Checkpointer::open(ckpt, Phase::Pipeline, || Ok(real_config_hash(config, seed)))?;
    let space = SearchSpace::tiny(config.classes);
    let data = SyntheticDataset::new(config.classes, 32, seed);
    let mut train_rng = SmallRng::new(seed);

    // 1. warm supernet training in the full space. The supernet is always
    //    built the same way (the build consumes `train_rng` draws that a
    //    fresh run needs); on resume the restored checkpoint then
    //    overwrites every parameter and the RNG streams.
    let mut trainer = {
        let supernet = Supernet::build(space.skeleton(), &mut train_rng)
            .map_err(|e| objective_error(e.to_string()))?;
        SupernetTrainer::new(supernet, TrainConfig::quick_test())
    };
    boundaries.train_warm(
        &mut trainer,
        &space,
        &data,
        config.warm_steps,
        0.05,
        &mut train_rng,
    )?;

    // 2. latency predictor for the edge device over the tiny space
    let mut search_rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let predictor = boundaries.calibrate(
        DeviceSpec::edge_xavier(),
        &space,
        20,
        2,
        &mut search_rng,
        Some(&mut trainer),
    )?;
    let mut objective = InheritedWeightObjective {
        trainer,
        data: &data,
        predictor: &predictor,
        eval_batches: config.eval_batches,
        target_ms: config.target_ms,
        beta: config.beta,
    };

    // 3. progressive shrinking: each stage picks operators by *real*
    //    inherited-weight quality, then fine-tunes in the shrunk space at
    //    a reduced learning rate (the paper's 0.01-LR fine-tune).
    let schedule = ShrinkConfig {
        stages: config.shrink_stages.clone(),
        samples_per_subspace: config.samples_per_subspace,
    };
    let shrunk = boundaries.shrink(
        space.clone(),
        &schedule,
        &mut objective,
        &mut search_rng,
        |objective, stage_idx, space| {
            let mut ft_rng = SmallRng::new(seed ^ (stage_idx as u64 + 1));
            objective
                .trainer
                .train_steps(space, &data, config.fine_tune_steps, 0.01, &mut ft_rng)
                .map(drop)
                .map_err(|e| objective_error(e.to_string()))
        },
        |objective| Some(&mut objective.trainer),
    )?;

    // 4. evolutionary search with inherited weights
    let search = EvolutionSearch::new(shrunk.space.clone(), config.evolution);
    let evolution = boundaries.evolve(search, &mut objective, &mut search_rng, |objective| {
        Some(&mut objective.trainer)
    })?;
    let inherited_accuracy = evolution.best_evaluation.accuracy / 100.0;

    // 5. materialize and train from scratch
    let mut scratch_rng = SmallRng::new(seed ^ 0xbeef);
    let _final_span = hsconas_telemetry::span!("pipeline.final_train", steps = config.final_steps);
    let mut subnet = build_subnet(space.skeleton(), &evolution.best_arch, &mut scratch_rng)
        .map_err(|e| objective_error(e.to_string()))?;
    let scratch = train_from_scratch(
        &mut subnet,
        &data,
        config.final_steps,
        8,
        0.08,
        &mut scratch_rng,
    )
    .map_err(|e| objective_error(e.to_string()))?;

    Ok(RealPipelineResult {
        shrunk_space: shrunk.space,
        best_arch: evolution.best_arch,
        inherited_accuracy,
        from_scratch_accuracy: scratch.accuracy,
        latency_ms: evolution.best_evaluation.latency_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pipeline_completes_and_is_consistent() {
        let config = RealPipelineConfig::smoke_test();
        let result = run_real_pipeline(&config, 5).unwrap();
        // shrunk space fixed the configured layers
        assert_eq!(result.shrunk_space.fixed_layers().len(), 2);
        assert!(result.shrunk_space.contains(&result.best_arch));
        assert!((0.0..=1.0).contains(&result.inherited_accuracy));
        assert!((0.0..=1.0).contains(&result.from_scratch_accuracy));
        assert!(result.latency_ms > 0.0);
    }

    #[test]
    fn pipelines_leave_the_arena_as_the_first_one_did() {
        let config = RealPipelineConfig::smoke_test();
        run_real_pipeline(&config, 3).unwrap();
        let first = hsconas_tensor::arena::stats().pooled_bytes;
        for run in 2..=4 {
            run_real_pipeline(&config, 3).unwrap();
            assert_eq!(
                hsconas_tensor::arena::stats().pooled_bytes,
                first,
                "pipeline {run} grew the calling thread's arena"
            );
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let config = RealPipelineConfig::smoke_test();
        let a = run_real_pipeline(&config, 9).unwrap();
        let b = run_real_pipeline(&config, 9).unwrap();
        assert_eq!(a.best_arch, b.best_arch);
        assert_eq!(a.from_scratch_accuracy, b.from_scratch_accuracy);
    }
}
