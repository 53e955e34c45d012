//! Device models: roofline latency simulation with utilization effects,
//! launch overheads, inter-operator communication costs, and measurement
//! noise.

use crate::{KernelDesc, NetworkDesc, OpDesc};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Device class, mirroring the paper's three platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Discrete data-center GPU (Quadro GV100 class), batch 32.
    Gpu,
    /// Server CPU (Xeon Gold 6136 class), batch 1.
    Cpu,
    /// Embedded SoC (Jetson Xavier class), batch 16.
    Edge,
}

/// An analytical device model. All rates are expressed per microsecond so
/// simulated times are in microseconds; reporting converts to milliseconds.
///
/// The model is deliberately richer than the paper's LUT (Eq. 2): it is the
/// *ground truth* the LUT is calibrated against, so it must contain effects
/// the LUT misses (inter-operator overhead, a fixed runtime cost, noise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Device name for reports.
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Inference batch size (the paper uses 32 / 1 / 16 for GPU / CPU /
    /// Edge, §III-A).
    pub batch: usize,
    /// Peak dense-convolution throughput, MACs per microsecond.
    pub peak_macs_per_us: f64,
    /// Memory bandwidth, bytes per microsecond.
    pub mem_bytes_per_us: f64,
    /// Fixed cost of launching one kernel, microseconds.
    pub launch_overhead_us: f64,
    /// Per-operator-boundary framework/communication cost, microseconds.
    /// This is what Eq. 3's bias term `B` ends up absorbing.
    pub inter_op_overhead_us: f64,
    /// Fixed per-inference runtime cost, microseconds.
    pub fixed_overhead_us: f64,
    /// Relative standard deviation of measurement noise.
    pub noise_rel: f64,
    /// Work (MACs, after batch scaling) at which a kernel reaches ~63% of
    /// peak utilization; small kernels run far below peak.
    pub util_knee_macs: f64,
    /// Throughput multiplier for depthwise convolutions (low arithmetic
    /// intensity exploits wide SIMD/tensor units poorly).
    pub depthwise_efficiency: f64,
}

impl DeviceSpec {
    /// Quadro GV100-class GPU at batch 32.
    ///
    /// Calibrated so the Table I baselines land in the right regime
    /// (MobileNetV2 ≈ 11 ms, ShuffleNetV2 1.5× ≈ 10 ms, DARTS ≈ 17 ms).
    pub fn gpu_gv100() -> Self {
        DeviceSpec {
            name: "gpu-gv100".into(),
            kind: DeviceKind::Gpu,
            batch: 32,
            peak_macs_per_us: 3.15e6,
            mem_bytes_per_us: 215_000.0,
            launch_overhead_us: 8.0,
            inter_op_overhead_us: 70.0,
            fixed_overhead_us: 900.0,
            noise_rel: 0.02,
            util_knee_macs: 8.0e6,
            depthwise_efficiency: 0.30,
        }
    }

    /// Xeon Gold 6136-class CPU at batch 1.
    pub fn cpu_xeon_6136() -> Self {
        DeviceSpec {
            name: "cpu-xeon-6136".into(),
            kind: DeviceKind::Cpu,
            batch: 1,
            peak_macs_per_us: 42_000.0,
            mem_bytes_per_us: 8_000.0,
            launch_overhead_us: 190.0,
            inter_op_overhead_us: 140.0,
            fixed_overhead_us: 1_800.0,
            noise_rel: 0.03,
            util_knee_macs: 4.0e5,
            depthwise_efficiency: 0.42,
        }
    }

    /// Jetson Xavier-class edge device (power mode 6) at batch 16.
    pub fn edge_xavier() -> Self {
        DeviceSpec {
            name: "edge-xavier".into(),
            kind: DeviceKind::Edge,
            batch: 16,
            peak_macs_per_us: 175_000.0,
            mem_bytes_per_us: 25_000.0,
            launch_overhead_us: 26.0,
            inter_op_overhead_us: 380.0,
            fixed_overhead_us: 6_500.0,
            noise_rel: 0.04,
            util_knee_macs: 3.0e6,
            depthwise_efficiency: 0.20,
        }
    }

    /// Resolves a device by its short alias (`gpu`, `cpu`, `edge`) or its
    /// full [`DeviceSpec::name`]; `None` for any other name.
    pub fn by_name(name: &str) -> Option<DeviceSpec> {
        match name {
            "gpu" | "gpu-gv100" => Some(DeviceSpec::gpu_gv100()),
            "cpu" | "cpu-xeon-6136" => Some(DeviceSpec::cpu_xeon_6136()),
            "edge" | "edge-xavier" => Some(DeviceSpec::edge_xavier()),
            _ => None,
        }
    }

    /// The paper's three devices in its reporting order (GPU, CPU, Edge).
    pub fn paper_devices() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::gpu_gv100(),
            DeviceSpec::cpu_xeon_6136(),
            DeviceSpec::edge_xavier(),
        ]
    }

    /// Deterministic simulated execution time of a single kernel in
    /// microseconds (no noise), for one inference at this device's batch
    /// size.
    pub fn kernel_time_us(&self, kernel: &KernelDesc) -> f64 {
        let batch = self.batch as f64;
        let work = kernel.macs * batch;
        let efficiency = if kernel.depthwise {
            self.depthwise_efficiency
        } else {
            1.0
        };
        // Utilization rises towards 1 as per-kernel work grows past the knee.
        let utilization = 1.0 - (-work / self.util_knee_macs).exp();
        let throughput = (self.peak_macs_per_us * efficiency * utilization).max(1.0);
        let compute = work / throughput;
        let bytes = kernel.activation_bytes * batch + kernel.weight_bytes;
        let memory = bytes / self.mem_bytes_per_us;
        compute.max(memory) + self.launch_overhead_us
    }

    /// Deterministic isolated execution time of one operator (sum of its
    /// kernel times, no inter-operator overhead, no noise). This is the
    /// quantity a profiling pass records into the latency LUT.
    pub fn op_time_us(&self, op: &OpDesc) -> f64 {
        op.kernels.iter().map(|k| self.kernel_time_us(k)).sum()
    }

    /// Deterministic whole-network latency: operator times plus
    /// inter-operator communication and the fixed runtime overhead —
    /// everything except measurement noise.
    pub fn network_time_us(&self, net: &NetworkDesc) -> f64 {
        let ops: f64 = net.ops.iter().map(|o| self.op_time_us(o)).sum();
        let boundaries = net.ops.len().saturating_sub(1) as f64;
        ops + boundaries * self.inter_op_overhead_us + self.fixed_overhead_us
    }

    /// One noisy "on-device" latency measurement (`LAT⁺` in Eq. 3),
    /// microseconds.
    pub fn measure_network<R: Rng + ?Sized>(&self, net: &NetworkDesc, rng: &mut R) -> f64 {
        let base = self.network_time_us(net);
        // Multiplicative Gaussian noise, clamped so latency stays positive.
        let noise: f64 = 1.0 + self.noise_rel * standard_normal(rng);
        base * noise.max(0.5)
    }

    /// Mean of `repeats` noisy measurements, microseconds.
    pub fn measure_network_mean<R: Rng + ?Sized>(
        &self,
        net: &NetworkDesc,
        repeats: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(repeats > 0, "need at least one measurement");
        (0..repeats)
            .map(|_| self.measure_network(net, rng))
            .sum::<f64>()
            / repeats as f64
    }
}

/// Standard normal sample via Box–Muller (kept local so the simulator only
/// needs the `Rng` trait, not a distributions crate).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_net() -> NetworkDesc {
        NetworkDesc::new(
            "test",
            vec![
                OpDesc::new("a", vec![KernelDesc::conv(16, 32, 3, 56, 56, 1)]),
                OpDesc::new(
                    "b",
                    vec![
                        KernelDesc::conv(32, 32, 1, 56, 56, 1),
                        KernelDesc::conv(32, 32, 3, 56, 56, 32),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn aliases_and_full_names_resolve() {
        for (alias, spec) in ["gpu", "cpu", "edge"]
            .iter()
            .zip(DeviceSpec::paper_devices())
        {
            assert_eq!(DeviceSpec::by_name(alias).unwrap().name, spec.name);
            assert_eq!(DeviceSpec::by_name(&spec.name).unwrap().name, spec.name);
        }
        assert!(DeviceSpec::by_name("tpu").is_none());
        assert!(DeviceSpec::by_name("GPU").is_none());
    }

    #[test]
    fn kernel_time_positive_and_finite() {
        for dev in DeviceSpec::paper_devices() {
            let k = KernelDesc::conv(8, 8, 3, 7, 7, 1);
            let t = dev.kernel_time_us(&k);
            assert!(t.is_finite() && t > 0.0, "{}: {t}", dev.name);
        }
    }

    #[test]
    fn more_macs_more_time() {
        let dev = DeviceSpec::cpu_xeon_6136();
        let small = dev.kernel_time_us(&KernelDesc::conv(16, 16, 3, 28, 28, 1));
        let large = dev.kernel_time_us(&KernelDesc::conv(64, 64, 3, 28, 28, 1));
        assert!(large > small);
    }

    #[test]
    fn depthwise_runs_below_dense_efficiency() {
        // Same MAC count: a depthwise kernel must be slower than a dense one
        // on compute-bound devices.
        let dev = DeviceSpec::gpu_gv100();
        let dense = KernelDesc::dense(1e9, 1e6, 1e5);
        let dw = KernelDesc::depthwise(1e9, 1e6, 1e5);
        assert!(dev.kernel_time_us(&dw) > dev.kernel_time_us(&dense));
    }

    #[test]
    fn small_kernels_underutilize() {
        // Two kernels of work W each must take longer than one kernel of 2W
        // (launch overhead + utilization knee penalize fragmentation).
        let dev = DeviceSpec::gpu_gv100();
        let one = dev.kernel_time_us(&KernelDesc::dense(2e7, 1e5, 1e4));
        let two = 2.0 * dev.kernel_time_us(&KernelDesc::dense(1e7, 5e4, 5e3));
        assert!(two > one);
    }

    #[test]
    fn network_time_exceeds_sum_of_ops() {
        // Property 2 from the crate docs: the LUT-sum underestimates.
        let net = sample_net();
        for dev in DeviceSpec::paper_devices() {
            let op_sum: f64 = net.ops.iter().map(|o| dev.op_time_us(o)).sum();
            let total = dev.network_time_us(&net);
            assert!(total > op_sum, "{}", dev.name);
        }
    }

    #[test]
    fn measurement_noise_has_expected_spread() {
        let net = sample_net();
        let dev = DeviceSpec::edge_xavier();
        let mut rng = StdRng::seed_from_u64(1);
        let base = dev.network_time_us(&net);
        let n = 2000;
        let samples: Vec<f64> = (0..n)
            .map(|_| dev.measure_network(&net, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean / base - 1.0).abs() < 0.01, "mean {mean} base {base}");
        assert!((std / base - dev.noise_rel).abs() < 0.01, "std {std}");
    }

    #[test]
    fn measure_mean_converges() {
        let net = sample_net();
        let dev = DeviceSpec::gpu_gv100();
        let mut rng = StdRng::seed_from_u64(2);
        let base = dev.network_time_us(&net);
        let mean = dev.measure_network_mean(&net, 200, &mut rng);
        assert!((mean / base - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_repeats_panics() {
        let dev = DeviceSpec::gpu_gv100();
        let mut rng = StdRng::seed_from_u64(3);
        dev.measure_network_mean(&sample_net(), 0, &mut rng);
    }

    #[test]
    fn paper_devices_have_paper_batches() {
        let devs = DeviceSpec::paper_devices();
        assert_eq!(devs[0].batch, 32);
        assert_eq!(devs[1].batch, 1);
        assert_eq!(devs[2].batch, 16);
    }
}
