//! Integration of the latency model with the device simulator and the
//! baseline zoo: the Eq. 2-3 predictor must track simulated ground truth
//! across heterogeneous network families, and the simulator must preserve
//! the orderings Table I depends on.

use hsconas_baselines::zoo;
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_latency::{spearman, LatencyPredictor};
use hsconas_space::{Arch, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn predictor_ranks_architectures_like_the_device() {
    let space = SearchSpace::hsconas_a();
    for device in DeviceSpec::paper_devices() {
        let mut rng = StdRng::seed_from_u64(5);
        let predictor =
            LatencyPredictor::calibrate(device.clone(), &space, 30, 3, &mut rng).unwrap();
        let archs = space.sample_n(60, &mut rng);
        let predicted: Vec<f64> = archs
            .iter()
            .map(|a| predictor.predict_ms(a).unwrap())
            .collect();
        let actual: Vec<f64> = archs
            .iter()
            .map(|a| {
                let net = lower_arch(space.skeleton(), a).unwrap();
                device.network_time_us(&net) / 1000.0
            })
            .collect();
        let rho = spearman(&predicted, &actual);
        assert!(rho > 0.98, "{}: rank correlation {rho}", device.name);
    }
}

#[test]
fn darts_is_slowest_on_cpu_among_baselines() {
    // The Table I relationship behind the paper's "x3.1 speedup over
    // DARTS" claim.
    let cpu = DeviceSpec::cpu_xeon_6136();
    let mut worst = ("", 0.0f64);
    for model in zoo::all_baselines() {
        let ms = cpu.network_time_us(&model.network) / 1000.0;
        if ms > worst.1 {
            worst = (Box::leak(model.name.clone().into_boxed_str()), ms);
        }
    }
    assert_eq!(worst.0, "DARTS", "slowest CPU baseline was {}", worst.0);
}

#[test]
fn baseline_latency_ordering_tracks_paper_per_device() {
    // Rank correlation between simulated and paper-reported baseline
    // latencies; the simulator must preserve the coarse ordering even
    // though absolute values differ.
    let models = zoo::all_baselines();
    for (i, device) in DeviceSpec::paper_devices().iter().enumerate() {
        let simulated: Vec<f64> = models
            .iter()
            .map(|m| device.network_time_us(&m.network))
            .collect();
        let paper: Vec<f64> = models.iter().map(|m| m.paper_latency_ms[i]).collect();
        let rho = spearman(&simulated, &paper);
        // The simulator preserves the coarse ordering only: it has no
        // model-specific kernel tuning (e.g. the real testbed's unusually
        // slow ShuffleNetV2 CPU path, or the Xavier's DVFS behaviour).
        // Per-model deltas are tabulated in EXPERIMENTS.md.
        assert!(
            rho > 0.4,
            "{}: simulated-vs-paper rank correlation {rho}",
            device.name
        );
    }
}

#[test]
fn widest_arch_slower_than_narrow_arch_everywhere() {
    let space = SearchSpace::hsconas_a();
    let widest = lower_arch(space.skeleton(), &Arch::widest(20)).unwrap();
    let mut narrow_arch = Arch::widest(20);
    for l in 0..20 {
        narrow_arch
            .set_gene(
                l,
                hsconas_space::Gene::new(
                    hsconas_space::OpKind::Shuffle3,
                    hsconas_space::ChannelScale::from_tenths(3).unwrap(),
                ),
            )
            .unwrap();
    }
    let narrow = lower_arch(space.skeleton(), &narrow_arch).unwrap();
    for device in DeviceSpec::paper_devices() {
        assert!(
            device.network_time_us(&widest) > device.network_time_us(&narrow),
            "{}",
            device.name
        );
    }
}

#[test]
fn bias_equals_structural_overhead_up_to_noise() {
    // B should converge to (ops-1) * inter_op + fixed as M grows.
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::gpu_gv100();
    let expected = 21.0 * device.inter_op_overhead_us + device.fixed_overhead_us;
    let mut rng = StdRng::seed_from_u64(8);
    let predictor = LatencyPredictor::calibrate(device, &space, 200, 3, &mut rng).unwrap();
    let rel = (predictor.bias_us() / expected - 1.0).abs();
    assert!(rel < 0.03, "bias off by {:.1}%", rel * 100.0);
}

/// Two predictors calibrated from the same seed hold the same table, so
/// their snapshots must serialize to the same bytes (checkpoints and the
/// serving daemon's persisted predictors depend on it).
#[test]
fn equal_predictors_export_identical_bytes() {
    let space = SearchSpace::hsconas_a();
    let export = || {
        let mut rng = StdRng::seed_from_u64(7);
        let predictor =
            LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 20, 2, &mut rng)
                .unwrap();
        serde_json::to_string(&predictor.export()).unwrap()
    };
    assert_eq!(export(), export());
}
