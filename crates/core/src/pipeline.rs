//! The end-to-end search pipeline (Fig. 1 of the paper).

use crate::checkpoint::{surrogate_config_hash, CheckpointOptions, Checkpointer};
use crate::{PipelineConfig, PipelineError};
use hsconas_accuracy::{AccuracyModel, SurrogateAccuracy};
use hsconas_ckpt::Phase;
use hsconas_evo::{Evaluation, EvolutionSearch, SearchResult, TradeoffObjective};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::LatencyPredictor;
use hsconas_shrink::ShrinkResult;
use hsconas_space::{Arch, SearchSpace};
use rand::rngs::StdRng;

/// The result of one device-targeted search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The discovered architecture (`arch*` of Eq. 5).
    pub best_arch: Arch,
    /// Its evaluation under the Eq. 1 objective.
    pub best: Evaluation,
    /// The calibrated latency bias `B` in microseconds.
    pub latency_bias_us: f64,
    /// The shrinking record (`None` when shrinking was disabled).
    pub shrink: Option<ShrinkResult>,
    /// The full EA result including per-generation history.
    pub evolution: SearchResult,
}

/// Builds the Eq. 1 objective for a device from the surrogate accuracy
/// oracle and a calibrated latency predictor.
#[allow(clippy::type_complexity)]
fn build_objective(
    oracle: SurrogateAccuracy,
    predictor: LatencyPredictor,
    target_ms: f64,
    beta: f64,
) -> TradeoffObjective<
    impl FnMut(&Arch) -> Result<f64, String>,
    impl FnMut(&Arch) -> Result<f64, String>,
> {
    TradeoffObjective::new(
        move |arch: &Arch| oracle.accuracy(arch).map_err(|e| e.to_string()),
        move |arch: &Arch| predictor.predict_ms(arch).map_err(|e| e.to_string()),
        target_ms,
        beta,
    )
}

/// Runs the full HSCoNAS pipeline for one target device and latency
/// constraint `target_ms` (the paper uses 9 / 24 / 34 ms for GPU / CPU /
/// Edge):
///
/// 1. calibrate the latency predictor (Eq. 2–3) on the device;
/// 2. (optionally) progressively shrink the space (§III-C);
/// 3. run the evolutionary search (§III-D) in the final space.
///
/// # Errors
///
/// Returns [`PipelineError`] on any subsystem failure.
pub fn search_for_device(
    space: SearchSpace,
    device: DeviceSpec,
    target_ms: f64,
    config: &PipelineConfig,
    rng: &mut StdRng,
) -> Result<SearchOutcome, PipelineError> {
    search_for_device_checkpointed(space, device, target_ms, config, rng, None)
}

/// [`search_for_device`] with optional crash-safe checkpointing: a
/// self-contained checkpoint lands after calibration, after every
/// shrinking stage, and after every EA generation. With `resume` set the
/// run continues from the latest checkpoint bit-identically to an
/// uninterrupted run (the shrink/EA RNG stream is restored exactly; the
/// calibrated predictor is rebuilt from its snapshot).
///
/// # Errors
///
/// Returns [`PipelineError`] on any subsystem failure, including refusing
/// to resume from a checkpoint written under a different space, device,
/// latency target, or configuration.
pub fn search_for_device_checkpointed(
    space: SearchSpace,
    device: DeviceSpec,
    target_ms: f64,
    config: &PipelineConfig,
    rng: &mut StdRng,
    opts: Option<&CheckpointOptions>,
) -> Result<SearchOutcome, PipelineError> {
    let mut boundaries = Checkpointer::open(opts, Phase::Pipeline, || {
        surrogate_config_hash(&space, &device, target_ms, config)
    })?;
    let oracle = SurrogateAccuracy::new(space.skeleton().clone());
    let predictor = boundaries.calibrate(
        device,
        &space,
        config.calibration_archs,
        config.calibration_repeats,
        rng,
        None,
    )?;
    let latency_bias_us = predictor.bias_us();
    let mut objective = build_objective(oracle, predictor, target_ms, config.beta);
    let shrink = match config.shrink {
        true => Some(boundaries.shrink(
            space.clone(),
            &config.shrink_config,
            &mut objective,
            rng,
            |_, _, _| Ok(()),
            |_| None,
        )?),
        false => None,
    };
    let search_space = shrink.as_ref().map_or(space, |s| s.space.clone());
    let search = EvolutionSearch::new(search_space, config.evolution);
    let evolution = boundaries.evolve(search, &mut objective, rng, |_| None)?;
    Ok(SearchOutcome {
        best_arch: evolution.best_arch.clone(),
        best: evolution.best_evaluation,
        latency_bias_us,
        shrink,
        evolution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pipeline_finds_arch_near_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = search_for_device(
            SearchSpace::hsconas_a(),
            DeviceSpec::edge_xavier(),
            34.0,
            &PipelineConfig::fast_test(),
            &mut rng,
        )
        .unwrap();
        // within 30% of the constraint even with the tiny test budget
        let ratio = outcome.best.latency_ms / 34.0;
        assert!(
            (0.5..=1.3).contains(&ratio),
            "latency {} ms vs target 34 ms",
            outcome.best.latency_ms
        );
        assert!(
            outcome.best.accuracy > 65.0,
            "accuracy {}",
            outcome.best.accuracy
        );
        assert!(outcome.latency_bias_us > 0.0);
        let shrink = outcome.shrink.as_ref().unwrap();
        assert_eq!(shrink.stages.len(), 2);
    }

    #[test]
    fn shrinking_can_be_disabled() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = PipelineConfig {
            shrink: false,
            ..PipelineConfig::fast_test()
        };
        let outcome = search_for_device(
            SearchSpace::hsconas_a(),
            DeviceSpec::gpu_gv100(),
            9.0,
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(outcome.shrink.is_none());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            search_for_device(
                SearchSpace::hsconas_a(),
                DeviceSpec::cpu_xeon_6136(),
                24.0,
                &PipelineConfig::fast_test(),
                &mut rng,
            )
            .unwrap()
            .best_arch
        };
        assert_eq!(run(3), run(3));
    }
}
