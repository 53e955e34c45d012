//! The deterministic capacity-based accuracy surrogate.

use crate::{AccuracyError, AccuracyModel};
use hsconas_space::{resolve_geometry, Arch, LayerGeom, NetworkSkeleton, OpKind};

/// Tunable constants of the surrogate; the defaults are calibrated against
/// the Table I anchor points (see the calibration tests at the bottom of
/// this file).
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateConfig {
    /// Asymptotic top-1 error for infinite capacity, percent.
    pub floor_error: f64,
    /// Error range above the floor at zero capacity, percent.
    pub range_error: f64,
    /// Capacity scale of the exponential-decay term.
    pub capacity_scale: f64,
    /// Penalty weight for layers narrower than the bottleneck threshold.
    pub bottleneck_weight: f64,
    /// Width ratio below which the bottleneck penalty kicks in.
    pub bottleneck_threshold: f64,
    /// Standard deviation of the deterministic per-architecture noise,
    /// percent.
    pub noise_std: f64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            floor_error: 17.5,
            range_error: 363.0,
            capacity_scale: 38.35,
            bottleneck_weight: 9.0,
            bottleneck_threshold: 0.30,
            noise_std: 0.15,
        }
    }
}

/// Capacity-based accuracy oracle (see the crate docs for the rationale).
#[derive(Debug, Clone)]
pub struct SurrogateAccuracy {
    skeleton: NetworkSkeleton,
    config: SurrogateConfig,
}

impl SurrogateAccuracy {
    /// Creates an oracle with default (Table-I-calibrated) constants.
    pub fn new(skeleton: NetworkSkeleton) -> Self {
        SurrogateAccuracy {
            skeleton,
            config: SurrogateConfig::default(),
        }
    }

    /// The oracle's skeleton.
    pub fn skeleton(&self) -> &NetworkSkeleton {
        &self.skeleton
    }

    /// The active configuration.
    pub fn config(&self) -> &SurrogateConfig {
        &self.config
    }

    /// Per-layer capacity contribution. Wider layers contribute
    /// logarithmically (diminishing returns), larger receptive fields and
    /// the deeper Xception block contribute a small multiplier, skips
    /// contribute nothing.
    fn layer_capacity(geom: &LayerGeom) -> f64 {
        let quality = match geom.op {
            OpKind::Skip => return 0.0,
            OpKind::Shuffle3 => 1.0,
            OpKind::Shuffle5 => 1.02,
            OpKind::Shuffle7 => 1.035,
            OpKind::Xception => 1.05,
        };
        quality * (geom.c_out as f64).log2()
    }

    /// Total capacity of an architecture.
    fn capacity(&self, geoms: &[LayerGeom]) -> f64 {
        geoms.iter().map(Self::layer_capacity).sum()
    }

    /// Bottleneck penalty: each parametric layer whose width ratio
    /// (`c_out / S^l`) falls below the threshold contributes a linear
    /// penalty. A single strangled layer ruins a network in practice.
    fn bottleneck_penalty(&self, geoms: &[LayerGeom]) -> f64 {
        let slots = self.skeleton.layer_slots();
        geoms
            .iter()
            .zip(&slots)
            .filter(|(g, _)| g.op != OpKind::Skip)
            .map(|(g, slot)| {
                let ratio = g.c_out as f64 / slot.max_channels as f64;
                if ratio < self.config.bottleneck_threshold {
                    self.config.bottleneck_weight * (self.config.bottleneck_threshold - ratio)
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Deterministic pseudo-noise in `(-3σ, 3σ)`, seeded by the
    /// architecture fingerprint: the same architecture always receives the
    /// same "evaluation variance".
    fn noise(&self, arch: &Arch) -> f64 {
        let mut h = arch.fingerprint();
        // xorshift* scramble, then map to (0,1)
        h ^= h >> 12;
        h ^= h << 25;
        h ^= h >> 27;
        let u = (h.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        // inverse-CDF-free bounded noise: scaled, centered triangular-ish
        let mut h2 = arch.fingerprint().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h2 ^= h2 >> 29;
        let v = (h2 >> 11) as f64 / (1u64 << 53) as f64;
        // sum of two uniforms → triangular distribution on (0, 2), centered
        let centered = u + v - 1.0;
        centered * self.config.noise_std * (6.0f64).sqrt() / 2.0
    }
}

impl AccuracyModel for SurrogateAccuracy {
    fn top1_error(&self, arch: &Arch) -> Result<f64, AccuracyError> {
        let geoms = resolve_geometry(&self.skeleton, arch)?;
        let capacity = self.capacity(&geoms);
        let base = self.config.floor_error
            + self.config.range_error * (-capacity / self.config.capacity_scale).exp();
        let err = base + self.bottleneck_penalty(&geoms) + self.noise(arch);
        Ok(err.clamp(self.config.floor_error * 0.9, 95.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::{ChannelLayout, ChannelScale, Gene, SearchSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn oracle_a() -> SurrogateAccuracy {
        SurrogateAccuracy::new(NetworkSkeleton::imagenet(ChannelLayout::A))
    }

    fn oracle_b() -> SurrogateAccuracy {
        SurrogateAccuracy::new(NetworkSkeleton::imagenet(ChannelLayout::B))
    }

    /// Calibration anchor: the widest layout-A network should land near
    /// the HSCoNet-A family's Table I errors (25.1–25.7%), and the widest
    /// layout-B near HSCoNet-B (23.5–23.8%). The searched models can only
    /// do as well as the widest member of their space, so the widest
    /// member must sit slightly *below* those bands.
    #[test]
    fn calibration_anchors() {
        let widest = Arch::widest(20);
        let a = oracle_a().top1_error(&widest).unwrap();
        let b = oracle_b().top1_error(&widest).unwrap();
        assert!((24.0..=25.5).contains(&a), "layout A widest err {a}");
        assert!((22.3..=23.8).contains(&b), "layout B widest err {b}");
        assert!(a - b > 1.0, "A–B family gap too small: {a} vs {b}");
    }

    #[test]
    fn top5_matches_baseline_fit() {
        // The MnasNet-A1 anchor: top1 24.8 → top5 ≈ 7.5.
        struct Fixed;
        impl AccuracyModel for Fixed {
            fn top1_error(&self, _: &Arch) -> Result<f64, AccuracyError> {
                Ok(24.8)
            }
        }
        let t5 = Fixed.top5_error(&Arch::widest(20)).unwrap();
        assert!((t5 - 7.5).abs() < 0.5, "{t5}");
    }

    #[test]
    fn narrower_is_worse() {
        let oracle = oracle_a();
        let mut prev = 0.0;
        for t in (1..=10u8).rev() {
            let mut arch = Arch::widest(20);
            for l in 0..20 {
                arch.set_gene(
                    l,
                    Gene::new(OpKind::Shuffle3, ChannelScale::from_tenths(t).unwrap()),
                )
                .unwrap();
            }
            let err = oracle.top1_error(&arch).unwrap();
            assert!(
                err > prev - 0.5,
                "scale {t}: err {err} should not beat wider {prev} by more than noise"
            );
            prev = err;
        }
        // extremes must differ by a lot
        let mut narrowest = Arch::widest(20);
        for l in 0..20 {
            narrowest
                .set_gene(
                    l,
                    Gene::new(OpKind::Shuffle3, ChannelScale::from_tenths(1).unwrap()),
                )
                .unwrap();
        }
        let narrow_err = oracle.top1_error(&narrowest).unwrap();
        let wide_err = oracle.top1_error(&Arch::widest(20)).unwrap();
        assert!(narrow_err > wide_err + 10.0);
    }

    #[test]
    fn skips_hurt_accuracy() {
        let oracle = oracle_a();
        let full = oracle.top1_error(&Arch::widest(20)).unwrap();
        let mut skippy = Arch::widest(20);
        for l in [1, 2, 3, 5, 6, 7] {
            skippy
                .set_gene(l, Gene::new(OpKind::Skip, ChannelScale::FULL))
                .unwrap();
        }
        let skip_err = oracle.top1_error(&skippy).unwrap();
        assert!(skip_err > full + 1.0, "{skip_err} vs {full}");
    }

    #[test]
    fn bigger_kernels_help_slightly() {
        let oracle = oracle_a();
        let mut k7 = Arch::widest(20);
        for l in 0..20 {
            k7.set_gene(l, Gene::new(OpKind::Shuffle7, ChannelScale::FULL))
                .unwrap();
        }
        let err3 = oracle.top1_error(&Arch::widest(20)).unwrap();
        let err7 = oracle.top1_error(&k7).unwrap();
        assert!(err7 < err3, "k7 {err7} should beat k3 {err3}");
        assert!(err3 - err7 < 3.0, "kernel bonus too strong");
    }

    #[test]
    fn bottleneck_penalty_applies() {
        let oracle = oracle_a();
        let mut pinched = Arch::widest(20);
        pinched
            .set_gene(
                10,
                Gene::new(OpKind::Shuffle3, ChannelScale::from_tenths(1).unwrap()),
            )
            .unwrap();
        let err = oracle.top1_error(&pinched).unwrap();
        let full = oracle.top1_error(&Arch::widest(20)).unwrap();
        // capacity loss of one layer is small; the penalty must dominate
        assert!(err > full + 1.0, "{err} vs {full}");
    }

    #[test]
    fn deterministic_per_arch() {
        let oracle = oracle_a();
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(1);
        for arch in space.sample_n(10, &mut rng) {
            assert_eq!(
                oracle.top1_error(&arch).unwrap(),
                oracle.top1_error(&arch).unwrap()
            );
        }
    }

    #[test]
    fn noise_is_bounded_and_varied() {
        let oracle = oracle_a();
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(2);
        let archs = space.sample_n(200, &mut rng);
        let noises: Vec<f64> = archs.iter().map(|a| oracle.noise(a)).collect();
        let max_abs = noises.iter().fold(0.0f64, |m, n| m.max(n.abs()));
        assert!(max_abs < 0.5, "noise too large: {max_abs}");
        let distinct = noises
            .iter()
            .map(|n| (n * 1e9) as i64)
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 150, "noise not varied: {distinct}");
    }

    #[test]
    fn errors_stay_in_valid_range() {
        let space = SearchSpace::hsconas_a();
        let oracle = oracle_a();
        let mut rng = StdRng::seed_from_u64(3);
        for arch in space.sample_n(200, &mut rng) {
            let err = oracle.top1_error(&arch).unwrap();
            assert!((10.0..=95.0).contains(&err), "{err}");
            let top5 = oracle.top5_error(&arch).unwrap();
            assert!(top5 < err, "top5 {top5} must be below top1 {err}");
            assert!(top5 >= 0.5);
        }
    }

    #[test]
    fn accuracy_is_complement() {
        let oracle = oracle_a();
        let arch = Arch::widest(20);
        let err = oracle.top1_error(&arch).unwrap();
        let acc = oracle.accuracy(&arch).unwrap();
        assert!((acc + err - 100.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_arch() {
        assert!(oracle_a().top1_error(&Arch::widest(3)).is_err());
    }
}
