//! An [`AccuracyModel`] backed by a trained supernet: the real-training
//! counterpart of the surrogate oracle, proving the NAS algorithms are
//! generic over how `ACC(arch)` is produced.

use crate::{SupernetError, SupernetTrainer};
use hsconas_accuracy::{AccuracyError, AccuracyModel};
use hsconas_data::SyntheticDataset;
use hsconas_space::{Arch, SpaceError};
use std::cell::RefCell;

/// Evaluates architectures with inherited weights from a trained supernet
/// on held-out synthetic data. Errors are reported in percent to match the
/// surrogate's units.
pub struct TrainedAccuracy {
    trainer: RefCell<SupernetTrainer>,
    data: SyntheticDataset,
    eval_batches: usize,
}

impl std::fmt::Debug for TrainedAccuracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedAccuracy")
            .field("eval_batches", &self.eval_batches)
            .finish()
    }
}

impl TrainedAccuracy {
    /// Wraps a trained supernet trainer.
    ///
    /// # Panics
    ///
    /// Panics if `eval_batches == 0`.
    pub fn new(trainer: SupernetTrainer, data: SyntheticDataset, eval_batches: usize) -> Self {
        assert!(eval_batches > 0, "need at least one evaluation batch");
        TrainedAccuracy {
            trainer: RefCell::new(trainer),
            data,
            eval_batches,
        }
    }
}

impl AccuracyModel for TrainedAccuracy {
    fn top1_error(&self, arch: &Arch) -> Result<f64, AccuracyError> {
        let acc = self
            .trainer
            .borrow_mut()
            .evaluate(arch, &self.data, self.eval_batches)
            .map_err(|e| match e {
                SupernetError::Space(s) => AccuracyError::Space(s),
                other => AccuracyError::Space(SpaceError::ArchMismatch {
                    detail: other.to_string(),
                }),
            })?;
        Ok(100.0 * (1.0 - acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Supernet, TrainConfig};
    use hsconas_space::SearchSpace;
    use hsconas_tensor::rng::SmallRng;

    #[test]
    fn oracle_reports_percent_error() {
        let space = SearchSpace::tiny(4);
        let data = SyntheticDataset::new(4, 32, 11);
        let mut rng = SmallRng::new(12);
        let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
        let trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
        let oracle = TrainedAccuracy::new(trainer, data, 2);
        let err = oracle.top1_error(&Arch::widest(4)).unwrap();
        assert!((0.0..=100.0).contains(&err));
        // untrained network ≈ chance (75% error for 4 classes)
        assert!(err > 40.0, "untrained error {err} suspiciously low");
        // deterministic
        assert_eq!(err, oracle.top1_error(&Arch::widest(4)).unwrap());
    }

    #[test]
    fn oracle_rejects_wrong_arch() {
        let space = SearchSpace::tiny(4);
        let data = SyntheticDataset::new(4, 32, 13);
        let mut rng = SmallRng::new(14);
        let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
        let trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
        let oracle = TrainedAccuracy::new(trainer, data, 1);
        assert!(oracle.top1_error(&Arch::widest(9)).is_err());
    }
}
