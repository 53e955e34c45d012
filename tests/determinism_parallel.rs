//! Regression tests for the parallel-evaluation determinism contract:
//! every parallel site generates work items serially from the seeded RNG,
//! dispatches them to the worker pool, and merges results in item order —
//! so a fixed-seed run must be **byte-identical** at any thread count,
//! with or without the evaluation memo-cache.
//!
//! Thread counts are passed explicitly (not via the process-wide default)
//! so the tests cannot race each other through global state.

use hsconas_evo::{
    Evaluation, EvoError, EvolutionConfig, EvolutionSearch, MemoObjective, Objective,
    ParallelObjective, SearchResult,
};
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_shrink::{ProgressiveShrinking, ShrinkConfig, ShrinkResult};
use hsconas_space::cost::arch_cost;
use hsconas_space::{Arch, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic, `Sync` objective with real structure: latency from the
/// noise-free device timing model, "accuracy" as a smooth function of the
/// architecture's FLOPs plus a fingerprint-dependent wiggle (so equal-cost
/// architectures still get distinct scores).
fn score(space: &SearchSpace, device: &DeviceSpec, arch: &Arch) -> Result<Evaluation, EvoError> {
    let net = lower_arch(space.skeleton(), arch).map_err(|e| EvoError::Objective {
        detail: e.to_string(),
    })?;
    let latency_ms = device.network_time_us(&net) / 1000.0;
    let cost = arch_cost(space.skeleton(), arch).map_err(EvoError::Space)?;
    let accuracy =
        60.0 + 10.0 * (cost.total_flops() / 1e8).tanh() + (arch.fingerprint() % 997) as f64 / 997.0;
    let target_ms = 30.0;
    let score = accuracy - 20.0 * (latency_ms / target_ms - 1.0).abs();
    Ok(Evaluation {
        score,
        accuracy,
        latency_ms,
    })
}

struct SerialObjective {
    space: SearchSpace,
    device: DeviceSpec,
}

impl Objective for SerialObjective {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        score(&self.space, &self.device, arch)
    }
}

fn search_config() -> EvolutionConfig {
    EvolutionConfig {
        generations: 6,
        population: 20,
        parents: 8,
        ..Default::default()
    }
}

fn run_search(objective: &mut dyn Objective, seed: u64) -> SearchResult {
    let space = SearchSpace::hsconas_a();
    let mut rng = StdRng::seed_from_u64(seed);
    EvolutionSearch::new(space, search_config())
        .run(objective, &mut rng)
        .unwrap()
}

#[test]
fn ea_search_is_byte_identical_across_thread_counts_and_memo() {
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::edge_xavier();

    let mut serial = SerialObjective {
        space: space.clone(),
        device: device.clone(),
    };
    let reference = run_search(&mut serial, 2021);

    for threads in [1, 2, 8] {
        let sp = space.clone();
        let dev = device.clone();
        let mut par = ParallelObjective::new(move |a: &Arch| score(&sp, &dev, a), threads);
        let got = run_search(&mut par, 2021);
        assert_eq!(reference, got, "threads={threads} changed the search");
    }

    // Memo-cache on top of the parallel path: still identical, and the
    // cache must have absorbed the revisits.
    let sp = space.clone();
    let dev = device.clone();
    let mut memo = MemoObjective::new(ParallelObjective::new(
        move |a: &Arch| score(&sp, &dev, a),
        8,
    ));
    let got = run_search(&mut memo, 2021);
    assert_eq!(reference, got, "memo-cache changed the search");
    let stats = memo.stats();
    assert_eq!(
        stats.misses,
        memo.cached_count() as u64,
        "every distinct genome evaluated exactly once"
    );
}

fn run_shrink(objective: &mut dyn Objective, seed: u64) -> ShrinkResult {
    let space = SearchSpace::hsconas_a();
    let config = ShrinkConfig {
        stages: vec![vec![19, 18], vec![17]],
        samples_per_subspace: 30,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    ProgressiveShrinking::new(config)
        .run(space, objective, &mut rng, |_, _| Ok(()))
        .unwrap()
}

#[test]
fn shrink_is_byte_identical_across_thread_counts_and_memo() {
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::cpu_xeon_6136();

    let mut serial = SerialObjective {
        space: space.clone(),
        device: device.clone(),
    };
    let reference = run_shrink(&mut serial, 7);

    for threads in [1, 8] {
        let sp = space.clone();
        let dev = device.clone();
        let mut par = ParallelObjective::new(move |a: &Arch| score(&sp, &dev, a), threads);
        assert_eq!(
            reference,
            run_shrink(&mut par, 7),
            "threads={threads} changed the shrink schedule"
        );
    }

    let sp = space.clone();
    let dev = device.clone();
    let mut memo = MemoObjective::new(ParallelObjective::new(
        move |a: &Arch| score(&sp, &dev, a),
        8,
    ));
    assert_eq!(
        reference,
        run_shrink(&mut memo, 7),
        "memo-cache changed the shrink schedule"
    );
}

/// Supernet population evaluation (the accuracy oracle of the real-training
/// pipeline) must be byte-identical with the prefix-activation cache on or
/// off, the GEMM pack-weight cache on or off, at one worker thread or
/// eight. Thread count here drives the conv batch-parallel kernels, the
/// per-thread activation arenas, and the GEMM band split, so this pins
/// every memory-planning and decomposition layer to the determinism
/// contract at once.
#[test]
fn supernet_evaluation_is_identical_across_cache_and_threads() {
    use hsconas_data::SyntheticDataset;
    use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
    use hsconas_tensor::kernels::cache as pack_cache;
    use hsconas_tensor::rng::SmallRng;

    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 21);
    let population = space.sample_n(6, &mut StdRng::seed_from_u64(22));

    let run = |cache: bool, threads: usize, packs: bool| -> Vec<f64> {
        hsconas_par::set_default_threads(threads);
        pack_cache::set_enabled(packs);
        pack_cache::clear();
        let mut rng = SmallRng::new(23);
        let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
        let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
        let mut train_rng = SmallRng::new(24);
        trainer
            .train_steps(&space, &data, 6, 0.05, &mut train_rng)
            .unwrap();
        trainer.set_prefix_cache_enabled(cache);
        population
            .iter()
            .map(|a| trainer.evaluate(a, &data, 2).unwrap())
            .collect()
    };

    let reference = run(false, 1, false);
    for (cache, threads, packs) in [
        (true, 1, false),
        (false, 8, false),
        (true, 8, false),
        (false, 1, true),
        (true, 8, true),
    ] {
        assert_eq!(
            reference,
            run(cache, threads, packs),
            "cache={cache} threads={threads} pack_cache={packs} changed evaluation results"
        );
    }
    // Restore defaults so this test leaves no process-wide state behind.
    hsconas_par::set_default_threads(0);
    pack_cache::set_enabled(true);
    pack_cache::clear();
}

/// Both training loops double-buffer their batches: while step `s` runs,
/// a pool worker renders batch `s + 1` (`hsconas_par::overlap`). The loss
/// history and every parameter bit must be the same at one thread, where
/// rendering runs inline, and at two, where it runs beside the step.
#[test]
fn training_is_identical_at_one_and_two_threads() {
    use hsconas_data::SyntheticDataset;
    use hsconas_nn::Layer;
    use hsconas_supernet::subnet::{build_subnet, train_from_scratch};
    use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
    use hsconas_tensor::rng::SmallRng;

    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 31);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

    let run = |threads: usize| {
        hsconas_par::set_default_threads(threads);
        let mut rng = SmallRng::new(32);
        let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
        let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
        let mut train_rng = SmallRng::new(33);
        // A second call continues the batch stream where the first ended.
        trainer
            .train_steps(&space, &data, 5, 0.05, &mut train_rng)
            .unwrap();
        trainer
            .train_steps(&space, &data, 3, 0.01, &mut train_rng)
            .unwrap();
        let supernet_losses: Vec<f32> = trainer.history().iter().map(|r| r.loss).collect();
        let supernet_params = bits(&trainer.checkpoint().params.concat());

        let mut scratch_rng = SmallRng::new(34);
        let mut net = build_subnet(space.skeleton(), &Arch::widest(4), &mut scratch_rng).unwrap();
        let scratch = train_from_scratch(&mut net, &data, 6, 8, 0.08, &mut scratch_rng).unwrap();
        let mut scratch_params = Vec::new();
        net.visit_params(&mut |p, _, _| scratch_params.extend(bits(p.data())));
        (
            bits(&supernet_losses),
            supernet_params,
            bits(&scratch.losses),
            scratch.accuracy.to_bits(),
            scratch_params,
        )
    };

    let serial = run(1);
    let overlapped = run(2);
    hsconas_par::set_default_threads(0);
    assert_eq!(serial.0.len(), 8);
    assert_eq!(serial.0, overlapped.0, "supernet loss history");
    assert_eq!(serial.1, overlapped.1, "supernet parameters");
    assert_eq!(serial.2, overlapped.2, "from-scratch loss history");
    assert_eq!(serial.3, overlapped.3, "from-scratch accuracy");
    assert_eq!(serial.4, overlapped.4, "from-scratch parameters");
}

/// Telemetry is observation-only: installing a sink (which captures every
/// span and metric flush the search emits) must not change a single byte
/// of the result, at one worker thread or eight. This is the contract that
/// lets `--telemetry` ride along on reproducibility-sensitive experiments.
#[cfg(feature = "telemetry")]
#[test]
fn telemetry_sink_does_not_change_search_results() {
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::edge_xavier();
    let run = |threads: usize, telemetry: bool| -> SearchResult {
        let sp = space.clone();
        let dev = device.clone();
        let sink = telemetry.then(hsconas_telemetry::MemorySink::install);
        let mut par = ParallelObjective::new(move |a: &Arch| score(&sp, &dev, a), threads);
        let result = run_search(&mut par, 77);
        if let Some(sink) = sink {
            assert!(!sink.take().is_empty(), "sink captured the run");
            sink.uninstall();
        }
        result
    };
    let reference = run(1, false);
    for (threads, telemetry) in [(1, true), (8, false), (8, true)] {
        assert_eq!(
            reference,
            run(threads, telemetry),
            "threads={threads} telemetry={telemetry} changed the search"
        );
    }
}

#[test]
fn hwsim_measurement_sweep_is_thread_count_invariant() {
    let space = SearchSpace::hsconas_a();
    let mut rng = StdRng::seed_from_u64(3);
    let nets: Vec<_> = space
        .sample_n(16, &mut rng)
        .iter()
        .map(|a| lower_arch(space.skeleton(), a).unwrap())
        .collect();
    let device = DeviceSpec::gpu_gv100();
    let one = hsconas_hwsim::measure_networks_parallel(&device, &nets, 3, 11, 1);
    let eight = hsconas_hwsim::measure_networks_parallel(&device, &nets, 3, 11, 8);
    assert_eq!(one, eight);
}
