//! The calibrated latency predictor of Eq. 2–3.

use crate::lut::{LutImportError, LutSnapshot};
use crate::metrics::{pearson, rmse, spearman};
use crate::LatencyLut;
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_space::{Arch, SearchSpace, SpaceError};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// `LAT(arch) = Σ_l lut(op^l) + B` with `B` calibrated per Eq. 3.
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    lut: LatencyLut,
    bias_us: f64,
    calibration_samples: usize,
}

/// A serializable snapshot of a calibrated predictor: the profiled LUT
/// plus the Eq. 3 bias, enough to reconstruct predictions without
/// recalibrating (the expensive on-device part).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorSnapshot {
    /// The LUT snapshot.
    pub lut: LutSnapshot,
    /// The calibrated bias, microseconds.
    pub bias_us: f64,
    /// Calibration sample count.
    pub calibration_samples: usize,
}

/// Validation statistics of a predictor on held-out architectures
/// (the quantities behind Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Root-mean-squared error in milliseconds.
    pub rmse_ms: f64,
    /// Pearson correlation between predicted and measured latency.
    pub pearson: f64,
    /// Spearman rank correlation between predicted and measured latency
    /// (the ranking fidelity the search actually depends on).
    pub spearman: f64,
    /// Number of held-out architectures evaluated.
    pub samples: usize,
}

impl LatencyPredictor {
    /// Calibrates a predictor for `device` by sampling `m` architectures
    /// from `space` (the paper's `M` in Eq. 3), measuring each `repeats`
    /// times on the simulated device, and averaging the measured-minus-LUT
    /// gap into the bias `B`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if lowering any sampled architecture fails
    /// (cannot happen for self-consistent spaces).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `repeats == 0`.
    pub fn calibrate<R: Rng + ?Sized>(
        device: DeviceSpec,
        space: &SearchSpace,
        m: usize,
        repeats: usize,
        rng: &mut R,
    ) -> Result<Self, SpaceError> {
        assert!(m > 0, "need at least one calibration architecture");
        assert!(repeats > 0, "need at least one measurement repeat");
        let mut span = hsconas_telemetry::span!("latency.calibrate", m = m, repeats = repeats);
        let mut lut = LatencyLut::new(device, space.skeleton().clone());
        let mut gap_sum = 0.0;
        for _ in 0..m {
            let arch = space.sample(rng);
            let lut_sum = lut.op_sum_us(&arch)?;
            let net = lower_arch(space.skeleton(), &arch)?;
            let measured = lut.device().measure_network_mean(&net, repeats, rng);
            gap_sum += measured - lut_sum;
        }
        let bias_us = gap_sum / m as f64;
        span.record("bias_us", bias_us);
        hsconas_telemetry::gauge_set("latency.bias_us", bias_us);
        Ok(LatencyPredictor {
            lut,
            bias_us,
            calibration_samples: m,
        })
    }

    /// Like [`calibrate`](Self::calibrate), but measures the `m`
    /// calibration architectures across the shared worker pool
    /// (`hsconas-par`; `threads == 0` uses the process default).
    ///
    /// Determinism works differently from the serial path: sampling uses
    /// one stream seeded by `base_seed` while measurement `i` derives its
    /// own per-index stream, so results depend only on `base_seed` — not
    /// on the thread count or schedule. The bias therefore differs from
    /// a serial [`calibrate`](Self::calibrate) run in the noise term but
    /// agrees in expectation.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if lowering any sampled architecture fails.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `repeats == 0`.
    pub fn calibrate_parallel(
        device: DeviceSpec,
        space: &SearchSpace,
        m: usize,
        repeats: usize,
        base_seed: u64,
        threads: usize,
    ) -> Result<Self, SpaceError> {
        assert!(m > 0, "need at least one calibration architecture");
        assert!(repeats > 0, "need at least one measurement repeat");
        let mut span = hsconas_telemetry::span!("latency.calibrate", m = m, repeats = repeats);
        let mut rng = rand::rngs::StdRng::seed_from_u64(base_seed);
        let archs = space.sample_n(m, &mut rng);
        let nets = archs
            .iter()
            .map(|a| lower_arch(space.skeleton(), a))
            .collect::<Result<Vec<_>, _>>()?;
        let measured = hsconas_hwsim::measure_networks_parallel(
            &device,
            &nets,
            repeats,
            base_seed ^ 0xC2B2_AE3D,
            threads,
        );
        let mut lut = LatencyLut::new(device, space.skeleton().clone());
        let mut gap_sum = 0.0;
        for (arch, meas) in archs.iter().zip(&measured) {
            gap_sum += meas - lut.op_sum_us(arch)?;
        }
        let bias_us = gap_sum / m as f64;
        span.record("bias_us", bias_us);
        hsconas_telemetry::gauge_set("latency.bias_us", bias_us);
        Ok(LatencyPredictor {
            lut,
            bias_us,
            calibration_samples: m,
        })
    }

    /// A predictor with zero bias (`B = 0`), i.e. Eq. 2 without Eq. 3 —
    /// used by the bias ablation.
    pub fn without_bias(device: DeviceSpec, space: &SearchSpace) -> Self {
        LatencyPredictor {
            lut: LatencyLut::new(device, space.skeleton().clone()),
            bias_us: 0.0,
            calibration_samples: 0,
        }
    }

    /// The profiled per-operator lookup table.
    pub fn lut(&self) -> &crate::lut::LatencyLut {
        &self.lut
    }

    /// The calibrated communication bias `B`, microseconds.
    pub fn bias_us(&self) -> f64 {
        self.bias_us
    }

    /// Number of architectures used for calibration.
    pub fn calibration_samples(&self) -> usize {
        self.calibration_samples
    }

    /// The device this predictor targets.
    pub fn device(&self) -> &DeviceSpec {
        self.lut.device()
    }

    /// Predicted latency in microseconds. Takes `&self` — configurations
    /// not in the profiled LUT are computed on the fly (identically to the
    /// memoized values, see [`LatencyLut::op_sum_us_shared`]), so one
    /// predictor can be shared lock-free across EA worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if `arch` does not match the skeleton.
    pub fn predict_us(&self, arch: &Arch) -> Result<f64, SpaceError> {
        Ok(self.lut.op_sum_us_shared(arch)? + self.bias_us)
    }

    /// Predicted latency in milliseconds (the paper's reporting unit).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if `arch` does not match the skeleton.
    pub fn predict_ms(&self, arch: &Arch) -> Result<f64, SpaceError> {
        Ok(self.predict_us(arch)? / 1000.0)
    }

    /// Exports the calibrated state for persistence.
    pub fn export(&self) -> PredictorSnapshot {
        PredictorSnapshot {
            lut: self.lut.export(),
            bias_us: self.bias_us,
            calibration_samples: self.calibration_samples,
        }
    }

    /// Reconstructs a predictor from a snapshot over the same device and
    /// space. This is also the hot-reload path: a service re-reading a LUT
    /// file goes through the same validation, so a stale or foreign table
    /// is refused instead of silently predicting garbage.
    ///
    /// # Errors
    ///
    /// Returns [`LutImportError::DeviceMismatch`] if the snapshot was
    /// profiled on another device, or [`LutImportError::ForeignKey`] if any
    /// entry's key is impossible in `space` (wrong layout, shrunk space,
    /// out-of-grid channel widths).
    pub fn from_snapshot(
        device: DeviceSpec,
        space: &SearchSpace,
        snapshot: PredictorSnapshot,
    ) -> Result<Self, LutImportError> {
        snapshot.lut.validate_for_space(space)?;
        let mut lut = LatencyLut::new(device, space.skeleton().clone());
        lut.import(snapshot.lut)?;
        Ok(LatencyPredictor {
            lut,
            bias_us: snapshot.bias_us,
            calibration_samples: snapshot.calibration_samples,
        })
    }

    /// Validates the predictor on `n` freshly sampled architectures,
    /// measuring each `repeats` times, and reports RMSE / correlation
    /// (reproducing the Fig. 3 evaluation protocol).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] on lowering failure.
    pub fn validate<R: Rng + ?Sized>(
        &self,
        space: &SearchSpace,
        n: usize,
        repeats: usize,
        rng: &mut R,
    ) -> Result<ValidationReport, SpaceError> {
        assert!(n > 1, "need at least two validation architectures");
        let mut span = hsconas_telemetry::span!("latency.validate", n = n, repeats = repeats);
        let mut predicted = Vec::with_capacity(n);
        let mut measured = Vec::with_capacity(n);
        for _ in 0..n {
            let arch = space.sample(rng);
            predicted.push(self.predict_us(&arch)? / 1000.0);
            let net = lower_arch(space.skeleton(), &arch)?;
            let device = self.lut.device().clone();
            measured.push(device.measure_network_mean(&net, repeats, rng) / 1000.0);
        }
        let report = ValidationReport {
            rmse_ms: rmse(&predicted, &measured),
            pearson: pearson(&predicted, &measured),
            spearman: spearman(&predicted, &measured),
            samples: n,
        };
        span.record("rmse_ms", report.rmse_ms);
        span.record("pearson", report.pearson);
        span.record("spearman", report.spearman);
        hsconas_telemetry::gauge_set("latency.rmse_ms", report.rmse_ms);
        hsconas_telemetry::gauge_set("latency.pearson", report.pearson);
        hsconas_telemetry::gauge_set("latency.spearman", report.spearman);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bias_is_positive_and_near_structural_overhead() {
        let space = SearchSpace::hsconas_a();
        let device = DeviceSpec::cpu_xeon_6136();
        let mut rng = StdRng::seed_from_u64(1);
        let expected = 21.0 * device.inter_op_overhead_us + device.fixed_overhead_us;
        let predictor = LatencyPredictor::calibrate(device, &space, 30, 3, &mut rng).unwrap();
        let bias = predictor.bias_us();
        assert!(
            (bias / expected - 1.0).abs() < 0.05,
            "bias {bias} vs structural {expected}"
        );
    }

    #[test]
    fn calibrated_predictor_has_low_rmse_and_high_correlation() {
        let space = SearchSpace::hsconas_a();
        for device in DeviceSpec::paper_devices() {
            let mut rng = StdRng::seed_from_u64(2);
            let predictor =
                LatencyPredictor::calibrate(device.clone(), &space, 40, 5, &mut rng).unwrap();
            let report = predictor.validate(&space, 40, 5, &mut rng).unwrap();
            assert!(
                report.pearson > 0.95,
                "{}: pearson {}",
                device.name,
                report.pearson
            );
            assert!(
                report.spearman > 0.9,
                "{}: spearman {}",
                device.name,
                report.spearman
            );
            // RMSE should be a small fraction of typical latency.
            let typical = predictor.predict_ms(&Arch::widest(20)).unwrap();
            assert!(
                report.rmse_ms < typical * 0.1,
                "{}: rmse {} vs typical {}",
                device.name,
                report.rmse_ms,
                typical
            );
        }
    }

    #[test]
    fn parallel_calibration_is_thread_count_invariant() {
        let space = SearchSpace::hsconas_a();
        let one =
            LatencyPredictor::calibrate_parallel(DeviceSpec::cpu_xeon_6136(), &space, 24, 3, 99, 1)
                .unwrap();
        let eight =
            LatencyPredictor::calibrate_parallel(DeviceSpec::cpu_xeon_6136(), &space, 24, 3, 99, 8)
                .unwrap();
        assert_eq!(one.bias_us(), eight.bias_us(), "bitwise-identical bias");
        // And it agrees with the serial protocol's structural overhead.
        let device = DeviceSpec::cpu_xeon_6136();
        let expected = 21.0 * device.inter_op_overhead_us + device.fixed_overhead_us;
        assert!(
            (one.bias_us() / expected - 1.0).abs() < 0.05,
            "bias {} vs structural {expected}",
            one.bias_us()
        );
    }

    #[test]
    fn bias_ablation_underestimates() {
        let space = SearchSpace::hsconas_a();
        let device = DeviceSpec::gpu_gv100();
        let mut rng = StdRng::seed_from_u64(3);
        let without = LatencyPredictor::without_bias(device.clone(), &space);
        assert_eq!(without.bias_us(), 0.0);
        let arch = space.sample(&mut rng);
        let net = lower_arch(space.skeleton(), &arch).unwrap();
        let measured = device.network_time_us(&net);
        let predicted = without.predict_us(&arch).unwrap();
        assert!(predicted < measured, "no-bias prediction must undershoot");
    }

    #[test]
    fn prediction_is_deterministic_after_calibration() {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(4);
        let p = LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 10, 2, &mut rng)
            .unwrap();
        let arch = space.sample(&mut rng);
        assert_eq!(p.predict_us(&arch).unwrap(), p.predict_us(&arch).unwrap());
    }

    #[test]
    fn snapshot_reconstructs_identical_predictions() {
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(6);
        let original =
            LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 15, 2, &mut rng)
                .unwrap();
        let archs = space.sample_n(10, &mut rng);
        // force-profile everything before exporting
        for a in &archs {
            original.predict_us(a).unwrap();
        }
        let snapshot = original.export();
        let restored =
            LatencyPredictor::from_snapshot(DeviceSpec::edge_xavier(), &space, snapshot.clone())
                .unwrap();
        for a in &archs {
            assert_eq!(
                restored.predict_us(a).unwrap(),
                original.predict_us(a).unwrap()
            );
        }
        assert!(
            LatencyPredictor::from_snapshot(DeviceSpec::gpu_gv100(), &space, snapshot).is_err()
        );
    }

    #[test]
    fn reload_refuses_snapshot_with_foreign_key_set() {
        // Regression: a reload whose operator-key set does not belong to
        // the search space must fail with a typed error, not reconstruct a
        // predictor that silently answers from the wrong table.
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(11);
        let original =
            LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 10, 2, &mut rng)
                .unwrap();
        let mut snapshot = original.export();
        snapshot.lut.entries.push((
            crate::lut::LutKey {
                layer: 0,
                op: hsconas_space::OpKind::Shuffle3,
                c_in: 16,
                c_out: 12345,
            },
            42.0,
        ));
        let err = LatencyPredictor::from_snapshot(DeviceSpec::edge_xavier(), &space, snapshot)
            .unwrap_err();
        assert!(
            matches!(err, LutImportError::ForeignKey { .. }),
            "expected typed foreign-key refusal, got {err}"
        );
        // ... while a shrunk space refuses a full-space snapshot whose
        // entries use operators the shrunk space no longer allows.
        let shrunk = space.restrict_op(0, hsconas_space::OpKind::Skip).unwrap();
        let full = original.export();
        if full
            .lut
            .entries
            .iter()
            .any(|(k, _)| k.layer == 0 && k.op != hsconas_space::OpKind::Skip)
        {
            assert!(
                LatencyPredictor::from_snapshot(DeviceSpec::edge_xavier(), &shrunk, full).is_err()
            );
        }
    }

    #[test]
    fn device_order_gpu_fastest_edge_between() {
        // For the same arch, absolute latency ordering should be
        // CPU < GPU-batch-32? No — Table I shows GPU ~10ms, CPU ~25ms,
        // Edge ~50-70ms. Check GPU < CPU < Edge for the widest arch.
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(5);
        let arch = Arch::widest(20);
        let mut ms = Vec::new();
        for device in DeviceSpec::paper_devices() {
            let p = LatencyPredictor::calibrate(device, &space, 10, 2, &mut rng).unwrap();
            ms.push(p.predict_ms(&arch).unwrap());
        }
        assert!(ms[0] < ms[1], "GPU {} < CPU {}", ms[0], ms[1]);
        assert!(ms[1] < ms[2], "CPU {} < Edge {}", ms[1], ms[2]);
    }
}
