//! Fig. 6 reproduction, in two parts:
//!
//! * **top/bottom** ([`run_evolution`]) — the evolutionary search on the
//!   edge device with `T = 34 ms`: per-generation latency scatter (top)
//!   and the final latency histogram concentrating near the constraint
//!   (bottom);
//! * **left** ([`run_shrink_vs_naive`]) — supernet accuracy after
//!   progressive shrinking vs naive training at an equal step budget, on
//!   the real-training substrate (tiny space + synthetic dataset).

use hsconas::CheckpointOptions;
use hsconas_accuracy::{AccuracyModel, SurrogateAccuracy};
use hsconas_data::SyntheticDataset;
use hsconas_evo::{
    Evaluation, EvoError, EvolutionConfig, EvolutionSearch, MemoObjective, Objective,
    TradeoffObjective,
};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::LatencyPredictor;
use hsconas_shrink::{ProgressiveShrinking, ShrinkConfig};
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-generation latency statistics (the Fig. 6 top scatter).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationLatency {
    /// Generation index.
    pub generation: usize,
    /// Minimum latency in the population, ms.
    pub min_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Maximum latency, ms.
    pub max_ms: f64,
    /// Best objective score.
    pub best_score: f64,
}

/// The evolution part of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Evolution {
    /// The latency constraint `T`, ms.
    pub target_ms: f64,
    /// Per-generation statistics.
    pub generations: Vec<GenerationLatency>,
    /// Final-generation latencies (for the histogram).
    pub final_latencies_ms: Vec<f64>,
    /// The discovered architecture's latency, ms (paper: 34.3 vs T = 34).
    pub best_latency_ms: f64,
    /// The discovered architecture's evaluation.
    pub best: Evaluation,
}

/// Runs the EA part on the edge device (T = 34 ms, paper hyper-parameters
/// unless overridden).
pub fn run_evolution(seed: u64, config: EvolutionConfig) -> Fig6Evolution {
    run_evolution_checkpointed(seed, config, None)
}

/// [`run_evolution`] with optional per-generation checkpointing (EA
/// state + RNG stream + memo-cache contents); with `resume` set the
/// search continues from the latest checkpoint bit-identically. Use a
/// distinct directory per `(seed, config)` — the checkpoint's config
/// hash covers the space and EA hyper-parameters, not the seed.
pub fn run_evolution_checkpointed(
    seed: u64,
    config: EvolutionConfig,
    ckpt: Option<&CheckpointOptions>,
) -> Fig6Evolution {
    let target_ms = 34.0;
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::edge_xavier();
    let oracle = SurrogateAccuracy::new(space.skeleton().clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let predictor =
        LatencyPredictor::calibrate(device, &space, 40, 3, &mut rng).expect("calibration");
    let objective = TradeoffObjective::new(
        move |arch: &Arch| oracle.accuracy(arch).map_err(|e| e.to_string()),
        move |arch: &Arch| predictor.predict_ms(arch).map_err(|e| e.to_string()),
        target_ms,
        -20.0,
    );
    let mut memo = MemoObjective::new(objective);
    let mut search = EvolutionSearch::new(space, config);
    let result =
        hsconas::run_search_checkpointed(&mut search, &mut memo, &mut rng, ckpt).expect("search");
    let generations = result
        .history
        .iter()
        .map(|g| {
            let lats = g.latencies_ms();
            GenerationLatency {
                generation: g.generation,
                min_ms: lats.iter().copied().fold(f64::INFINITY, f64::min),
                mean_ms: lats.iter().sum::<f64>() / lats.len() as f64,
                max_ms: lats.iter().copied().fold(0.0, f64::max),
                best_score: g.best_score(),
            }
        })
        .collect();
    Fig6Evolution {
        target_ms,
        generations,
        final_latencies_ms: result.history.last().expect("history").latencies_ms(),
        best_latency_ms: result.best_evaluation.latency_ms,
        best: result.best_evaluation,
    }
}

/// Histogram of the final generation's latencies in fixed-width bins.
pub fn histogram(latencies: &[f64], bin_ms: f64) -> Vec<(f64, usize)> {
    assert!(bin_ms > 0.0, "bin width must be positive");
    let mut bins: std::collections::BTreeMap<i64, usize> = Default::default();
    for &lat in latencies {
        *bins.entry((lat / bin_ms).floor() as i64).or_default() += 1;
    }
    bins.into_iter()
        .map(|(k, v)| (k as f64 * bin_ms, v))
        .collect()
}

/// Renders the scatter + histogram as text.
pub fn render_evolution(result: &Fig6Evolution) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 6 (top) — EA latency per generation (edge, T = {} ms)\n",
        result.target_ms
    ));
    out.push_str(&format!(
        "{:>4} {:>9} {:>9} {:>9} {:>10}\n",
        "gen", "min(ms)", "mean(ms)", "max(ms)", "best F"
    ));
    for g in &result.generations {
        out.push_str(&format!(
            "{:>4} {:>9.1} {:>9.1} {:>9.1} {:>10.2}\n",
            g.generation, g.min_ms, g.mean_ms, g.max_ms, g.best_score
        ));
    }
    out.push_str(&format!(
        "\ndiscovered arch latency: {:.1} ms (constraint {} ms)\n",
        result.best_latency_ms, result.target_ms
    ));
    out.push_str("\nFig. 6 (bottom) — final-generation latency histogram\n");
    let hist = histogram(&result.final_latencies_ms, 2.0);
    let max = hist.iter().map(|(_, c)| *c).max().unwrap_or(1);
    for (lo, count) in hist {
        out.push_str(&format!(
            "{:>5.0}-{:<5.0} {:>3} {}\n",
            lo,
            lo + 2.0,
            count,
            crate::ascii_bar(count, max, 40)
        ));
    }
    out
}

/// The shrink-vs-naive part of Fig. 6 (left).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6ShrinkVsNaive {
    /// Mean subnet accuracy after naive training (full space, all steps).
    pub naive_accuracy: f64,
    /// Mean subnet accuracy after train → shrink → fine-tune at the same
    /// total step budget.
    pub shrink_accuracy: f64,
    /// Number of subnets evaluated for each mean.
    pub eval_subnets: usize,
}

/// An objective that scores architectures by real supernet evaluation
/// accuracy (used by the quality metric during shrinking).
struct SupernetObjective<'a> {
    trainer: &'a mut SupernetTrainer,
    data: &'a SyntheticDataset,
    batches: usize,
}

impl Objective for SupernetObjective<'_> {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        let acc = self
            .trainer
            .evaluate(arch, self.data, self.batches)
            .map_err(|e| EvoError::Objective {
                detail: e.to_string(),
            })?;
        Ok(Evaluation {
            score: 100.0 * acc,
            accuracy: 100.0 * acc,
            latency_ms: 0.0,
        })
    }
}

/// Runs the real-training comparison on the tiny space. `budget_steps` is
/// the total optimization budget for both arms.
pub fn run_shrink_vs_naive(seed: u64, budget_steps: usize) -> Fig6ShrinkVsNaive {
    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, seed);
    let eval_subnets = 8;
    let mut arch_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let probe_archs: Vec<Arch> = space.sample_n(eval_subnets, &mut arch_rng);

    // Arm 1: naive — train the full space for the whole budget.
    let mut rng = SmallRng::new(seed);
    let naive_net = Supernet::build(space.skeleton(), &mut rng).expect("build");
    let mut naive = SupernetTrainer::new(naive_net, TrainConfig::quick_test());
    naive
        .train_steps(&space, &data, budget_steps, 0.05, &mut rng)
        .expect("train");

    // Arm 2: train 60% of the budget, shrink the two back layers by real
    // evaluated quality, fine-tune the rest at a reduced learning rate
    // (the paper's 100-epoch + 15-epoch × 2 pattern, scaled down).
    let mut rng2 = SmallRng::new(seed);
    let shrink_net = Supernet::build(space.skeleton(), &mut rng2).expect("build");
    let mut shrunk_trainer = SupernetTrainer::new(shrink_net, TrainConfig::quick_test());
    let warm = budget_steps * 6 / 10;
    shrunk_trainer
        .train_steps(&space, &data, warm, 0.05, &mut rng2)
        .expect("train");
    let shrink_cfg = ShrinkConfig {
        stages: vec![vec![3], vec![2]],
        samples_per_subspace: 4,
    };
    let mut current_trainer = shrunk_trainer;
    let mut quality_rng = StdRng::seed_from_u64(seed ^ 0x51ab);
    let fine_tune_steps = (budget_steps - warm) / 2;
    let result = {
        let shrinker = ProgressiveShrinking::new(shrink_cfg);
        let data_ref = &data;
        // run stages manually so we can fine-tune between them with the
        // shrunk space
        let mut current_space = space.clone();
        for stage in 0..2 {
            let mut objective = SupernetObjective {
                trainer: &mut current_trainer,
                data: data_ref,
                batches: 1,
            };
            let single = ProgressiveShrinking::new(ShrinkConfig {
                stages: vec![vec![3 - stage]],
                samples_per_subspace: 4,
            });
            let r = single
                .run(
                    current_space.clone(),
                    &mut objective,
                    &mut quality_rng,
                    |_, _| Ok(()),
                )
                .expect("shrink stage");
            current_space = r.space;
            let mut ft_rng = SmallRng::new(seed ^ (stage as u64 + 99));
            current_trainer
                .train_steps(&current_space, data_ref, fine_tune_steps, 0.01, &mut ft_rng)
                .expect("fine-tune");
        }
        let _ = shrinker;
        (current_space, current_trainer)
    };
    let (shrunk_space, mut shrunk_trainer) = result;

    // Mean accuracy over probe subnets, each arm evaluating subnets from
    // its own final space (the shrunk arm restricts back-layer ops).
    let mean_acc = |trainer: &mut SupernetTrainer, space: &SearchSpace| -> f64 {
        // Each arm's measurement sweep is an independent configuration:
        // start it from a cold prefix cache so the reported figure cannot
        // depend on what earlier shrink-quality probes cached (results are
        // byte-identical either way; this keeps sweeps observably
        // independent and bounds resident activation memory).
        trainer.clear_prefix_cache();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7777);
        let archs: Vec<Arch> = (0..eval_subnets).map(|_| space.sample(&mut rng)).collect();
        archs
            .iter()
            .map(|a| trainer.evaluate(a, &data, 2).expect("eval"))
            .sum::<f64>()
            / eval_subnets as f64
    };
    let naive_accuracy = mean_acc(&mut naive, &space);
    let shrink_accuracy = mean_acc(&mut shrunk_trainer, &shrunk_space);
    let _ = probe_archs;
    Fig6ShrinkVsNaive {
        naive_accuracy,
        shrink_accuracy,
        eval_subnets,
    }
}

/// Renders the shrink-vs-naive comparison.
pub fn render_shrink_vs_naive(result: &Fig6ShrinkVsNaive) -> String {
    format!(
        "Fig. 6 (left) — supernet accuracy, equal step budget\n\
         naive training (full space) : {:.3}\n\
         progressive shrinking       : {:.3}\n\
         ({} subnets averaged; shrinking should match or exceed naive)\n",
        result.naive_accuracy, result.shrink_accuracy, result.eval_subnets
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> EvolutionConfig {
        EvolutionConfig {
            generations: 12,
            population: 30,
            parents: 10,
            ..Default::default()
        }
    }

    #[test]
    fn evolution_concentrates_near_target() {
        let result = run_evolution(1, small_config());
        // the population must concentrate near the constraint: compare the
        // fraction of individuals within ±15% of T at start vs end
        let near = |lats: &[f64]| {
            lats.iter()
                .filter(|&&l| (l / result.target_ms - 1.0).abs() < 0.15)
                .count() as f64
                / lats.len() as f64
        };
        let first_near = {
            // reconstruct generation-0 latencies from the stats is not
            // possible; use the recorded mean distance instead
            (result.generations[0].mean_ms - result.target_ms).abs()
        };
        let final_near = near(&result.final_latencies_ms);
        assert!(
            final_near > 0.5,
            "only {final_near:.0?} of the final population within 15% of T \
             (initial mean distance {first_near:.1} ms)"
        );
        // the discovered arch approximately meets the constraint (paper:
        // 34.3 ms for T = 34 ms)
        assert!(
            (result.best_latency_ms - result.target_ms).abs() / result.target_ms < 0.25,
            "best latency {} vs target {}",
            result.best_latency_ms,
            result.target_ms
        );
    }

    #[test]
    fn histogram_counts_all_points() {
        let lats = vec![30.0, 31.0, 33.9, 34.1, 35.0, 50.0];
        let hist = histogram(&lats, 2.0);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 6);
        assert!(hist.iter().any(|&(lo, c)| lo == 34.0 && c == 2));
    }

    #[test]
    fn render_evolution_shows_constraint() {
        let text = render_evolution(&run_evolution(2, small_config()));
        assert!(text.contains("T = 34 ms"));
        assert!(text.contains("discovered arch latency"));
    }

    #[test]
    #[ignore = "slow real-training experiment; run explicitly"]
    fn shrink_vs_naive_runs() {
        let result = run_shrink_vs_naive(3, 60);
        assert!(result.naive_accuracy >= 0.0 && result.naive_accuracy <= 1.0);
        assert!(result.shrink_accuracy >= 0.0 && result.shrink_accuracy <= 1.0);
    }
}
