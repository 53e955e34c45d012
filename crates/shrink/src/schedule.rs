//! The two-stage back-to-front shrinking schedule (§III-C, Fig. 5).

use crate::quality::subspace_quality;
use hsconas_evo::{EvoError, Objective};
use hsconas_space::{OpKind, SearchSpace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shrinking schedule configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShrinkConfig {
    /// Layers to fix, grouped by stage, each stage processed in the given
    /// order. The paper's default is `[[19, 18, 17, 16], [15, 14, 13, 12]]`
    /// (zero-based: layers 20→17 then 16→13).
    pub stages: Vec<Vec<usize>>,
    /// Architectures sampled per candidate subspace (`N`, paper: 100).
    pub samples_per_subspace: usize,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            stages: vec![vec![19, 18, 17, 16], vec![15, 14, 13, 12]],
            samples_per_subspace: 100,
        }
    }
}

/// The decision record for one fixed layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerDecision {
    /// The fixed layer.
    pub layer: usize,
    /// The winning operator.
    pub chosen: OpKind,
    /// Quality of every candidate subspace evaluated at this layer.
    pub qualities: Vec<(OpKind, f64)>,
    /// `log10 |A|` after fixing this layer.
    pub log10_size_after: f64,
}

/// The record for one complete stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Zero-based stage index.
    pub stage: usize,
    /// Per-layer decisions, in processing order.
    pub decisions: Vec<LayerDecision>,
    /// `log10 |A|` before the stage.
    pub log10_size_before: f64,
    /// `log10 |A|` after the stage.
    pub log10_size_after: f64,
}

impl StageRecord {
    /// Orders of magnitude removed by this stage.
    pub fn orders_removed(&self) -> f64 {
        self.log10_size_before - self.log10_size_after
    }
}

/// Result of a completed shrinking run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkResult {
    /// The final shrunk space (`A_ss^2nd` with the default schedule).
    pub space: SearchSpace,
    /// Per-stage records.
    pub stages: Vec<StageRecord>,
}

/// The progressive shrinking engine.
#[derive(Debug, Clone)]
pub struct ProgressiveShrinking {
    config: ShrinkConfig,
}

impl ProgressiveShrinking {
    /// Creates an engine with the given schedule.
    pub fn new(config: ShrinkConfig) -> Self {
        ProgressiveShrinking { config }
    }

    /// Runs the schedule. After each completed stage, `on_stage_complete`
    /// is invoked with the stage index and the current space — the paper
    /// fine-tunes the supernet inside this hook (15 epochs at reduced
    /// learning rate) before the next stage.
    ///
    /// While evaluating candidates for a layer, the operator of every
    /// *already-fixed* (subsequent) layer stays fixed, exactly as the paper
    /// prescribes ("when evaluating the 19-th layer, we fix the operator
    /// of \[the\] 20-th layer").
    ///
    /// A driver that checkpoints between stages calls this once per stage
    /// with a one-stage schedule, restricting the space it passes in by
    /// the saved [`LayerDecision`]s on resume: the hook cannot reach the
    /// RNG to save it, and a stage consumes the same RNG stream either way.
    ///
    /// # Errors
    ///
    /// Returns [`EvoError`] if a layer index is invalid, the objective
    /// fails, or the callback reports an error.
    pub fn run<R, F>(
        &self,
        space: SearchSpace,
        objective: &mut dyn Objective,
        rng: &mut R,
        mut on_stage_complete: F,
    ) -> Result<ShrinkResult, EvoError>
    where
        R: Rng + ?Sized,
        F: FnMut(usize, &SearchSpace) -> Result<(), EvoError>,
    {
        let mut current = space;
        let mut stages = Vec::with_capacity(self.config.stages.len());
        for (stage_idx, layers) in self.config.stages.iter().enumerate() {
            let mut stage_span =
                hsconas_telemetry::span!("shrink.stage", stage = stage_idx, layers = layers.len());
            let log10_size_before = current.log10_size();
            let mut decisions = Vec::with_capacity(layers.len());
            for &layer in layers {
                if layer >= current.num_layers() {
                    return Err(EvoError::Space(
                        hsconas_space::SpaceError::IndexOutOfRange {
                            what: "layer",
                            index: layer,
                            bound: current.num_layers(),
                        },
                    ));
                }
                let mut qualities = Vec::new();
                let mut best: Option<(OpKind, f64, SearchSpace)> = None;
                for &op in current.allowed_ops(layer).to_vec().iter() {
                    let candidate = current.restrict_op(layer, op)?;
                    let q = subspace_quality(
                        &candidate,
                        objective,
                        self.config.samples_per_subspace,
                        rng,
                    )?;
                    qualities.push((op, q));
                    let better = best.as_ref().map(|(_, bq, _)| q > *bq).unwrap_or(true);
                    if better {
                        best = Some((op, q, candidate));
                    }
                }
                let (chosen, _, next) = best.expect("layer has at least one candidate");
                current = next;
                decisions.push(LayerDecision {
                    layer,
                    chosen,
                    qualities,
                    log10_size_after: current.log10_size(),
                });
            }
            let record = StageRecord {
                stage: stage_idx,
                decisions,
                log10_size_before,
                log10_size_after: current.log10_size(),
            };
            // Quality stats over every candidate subspace scored this stage.
            let qs: Vec<f64> = record
                .decisions
                .iter()
                .flat_map(|d| d.qualities.iter().map(|(_, q)| *q))
                .collect();
            if !qs.is_empty() {
                let mean = qs.iter().sum::<f64>() / qs.len() as f64;
                stage_span.record("q_mean", mean);
                stage_span.record("q_min", qs.iter().cloned().fold(f64::INFINITY, f64::min));
                stage_span.record(
                    "q_max",
                    qs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                );
            }
            stage_span.record("orders_removed", record.orders_removed());
            // The stage span stays open across the hook so the paper's
            // per-stage fine-tune (run inside it) nests under `shrink.stage`.
            on_stage_complete(stage_idx, &current)?;
            stages.push(record);
            stage_span.close();
        }
        Ok(ShrinkResult {
            space: current,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_evo::Evaluation;
    use hsconas_space::Arch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An objective with a per-layer preferred operator, so the expected
    /// shrinking outcome is known exactly.
    struct LayerPreferences;
    impl LayerPreferences {
        fn preferred(layer: usize) -> OpKind {
            OpKind::ALL[layer % 5]
        }
    }
    impl Objective for LayerPreferences {
        fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
            let score = arch
                .genes()
                .iter()
                .enumerate()
                .filter(|(l, g)| g.op == Self::preferred(*l))
                .count() as f64;
            Ok(Evaluation {
                score,
                accuracy: 0.0,
                latency_ms: 0.0,
            })
        }
    }

    #[test]
    fn picks_the_preferred_operator_per_layer() {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(1);
        let config = ShrinkConfig {
            stages: vec![vec![19, 18], vec![17, 16]],
            samples_per_subspace: 60,
        };
        let result = ProgressiveShrinking::new(config)
            .run(space, &mut LayerPreferences, &mut rng, |_, _| Ok(()))
            .unwrap();
        for stage in &result.stages {
            for d in &stage.decisions {
                assert_eq!(
                    d.chosen,
                    LayerPreferences::preferred(d.layer),
                    "layer {} chose {:?}",
                    d.layer,
                    d.chosen
                );
                assert_eq!(d.qualities.len(), 5);
            }
        }
        assert_eq!(result.space.allowed_ops(19).len(), 1);
        assert_eq!(result.space.allowed_ops(16).len(), 1);
        assert_eq!(
            result.space.allowed_ops(15).len(),
            5,
            "unfixed layer untouched"
        );
    }

    #[test]
    fn paper_schedule_removes_three_orders_per_stage() {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(2);
        let config = ShrinkConfig {
            samples_per_subspace: 10, // keep the test fast
            ..Default::default()
        };
        let result = ProgressiveShrinking::new(config)
            .run(space, &mut LayerPreferences, &mut rng, |_, _| Ok(()))
            .unwrap();
        assert_eq!(result.stages.len(), 2);
        for stage in &result.stages {
            // 5^4 = 625 → 2.8 orders of magnitude, the paper's "three".
            let orders = stage.orders_removed();
            assert!(
                (orders - 4.0 * (5.0f64).log10()).abs() < 1e-9,
                "stage {} removed {orders} orders",
                stage.stage
            );
        }
    }

    #[test]
    fn callback_runs_after_each_stage() {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(3);
        let mut callback_stages = Vec::new();
        let config = ShrinkConfig {
            stages: vec![vec![19], vec![18], vec![17]],
            samples_per_subspace: 5,
        };
        ProgressiveShrinking::new(config)
            .run(space, &mut LayerPreferences, &mut rng, |stage, space| {
                callback_stages.push((stage, space.fixed_layers().len()));
                Ok(())
            })
            .unwrap();
        assert_eq!(callback_stages, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn callback_error_aborts() {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(4);
        let config = ShrinkConfig {
            stages: vec![vec![19], vec![18]],
            samples_per_subspace: 5,
        };
        let result = ProgressiveShrinking::new(config).run(
            space,
            &mut LayerPreferences,
            &mut rng,
            |stage, _| {
                if stage == 0 {
                    Err(EvoError::Objective {
                        detail: "fine-tune failed".into(),
                    })
                } else {
                    Ok(())
                }
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn bad_layer_index_errors() {
        let space = SearchSpace::tiny(10); // 4 layers
        let mut rng = StdRng::seed_from_u64(5);
        let config = ShrinkConfig {
            stages: vec![vec![7]],
            samples_per_subspace: 5,
        };
        let result = ProgressiveShrinking::new(config).run(
            space,
            &mut LayerPreferences,
            &mut rng,
            |_, _| Ok(()),
        );
        assert!(result.is_err());
    }

    #[test]
    fn default_schedule_matches_paper() {
        let c = ShrinkConfig::default();
        assert_eq!(c.stages, vec![vec![19, 18, 17, 16], vec![15, 14, 13, 12]]);
        assert_eq!(c.samples_per_subspace, 100);
    }
}
