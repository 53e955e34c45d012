//! Release-mode gate on the cost of *enabled* telemetry: one pass of
//! proxy evaluation (two eval batches each, prefix cache on) over an
//! EA-generation-shaped population — the widest 4-layer genome plus 12
//! single-gene mutants, deduplicated and sorted by encoding — against a
//! tiny supernet trained for 10 steps must regress by less than 2% when a
//! telemetry sink is installed.
//!
//! The two variants are timed interleaved (off/on per round, min-of-N) so
//! thermal and scheduler drift cancel. The assertion only fires in release
//! builds — debug timings are too noisy for a 2% bound — but the workload
//! always runs, so the instrumented path stays exercised under `cargo
//! test`. `scripts/check.sh` runs this test with `--release` to enforce
//! the gate.

#![cfg(feature = "telemetry")]

use hsconas_data::SyntheticDataset;
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// An elite plus single-gene mutants, the shape the EA scheduler submits.
fn sibling_population(space: &SearchSpace, seed: u64) -> Vec<Arch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let elite = Arch::widest(4);
    let mut population = vec![elite.clone()];
    for i in 0..12 {
        let donor = space.sample(&mut rng);
        let mut mutant = elite.clone();
        mutant.set_gene(i % 4, donor.genes()[i % 4]).unwrap();
        population.push(mutant);
    }
    population.sort_by_key(|a| a.encode());
    population.dedup_by_key(|a| a.encode());
    population
}

#[test]
fn enabled_telemetry_costs_under_two_percent() {
    hsconas_par::set_default_threads(1);
    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 2021);
    let mut rng = SmallRng::new(2021);
    let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
    let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
    let mut train_rng = SmallRng::new(2022);
    trainer
        .train_steps(&space, &data, 10, 0.05, &mut train_rng)
        .unwrap();
    trainer.set_prefix_cache_enabled(true);
    let population = sibling_population(&space, 2023);

    let pass = |trainer: &mut SupernetTrainer| {
        for arch in &population {
            black_box(trainer.evaluate(arch, &data, 2).unwrap());
        }
    };
    pass(&mut trainer); // warm-up (arena, caches, page faults)

    let mut min_off = f64::INFINITY;
    let mut min_on = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        pass(&mut trainer);
        min_off = min_off.min(start.elapsed().as_secs_f64());

        let sink = hsconas_telemetry::MemorySink::install();
        let start = Instant::now();
        pass(&mut trainer);
        min_on = min_on.min(start.elapsed().as_secs_f64());
        sink.uninstall();
    }
    hsconas_par::set_default_threads(0);

    let ratio = min_on / min_off;
    eprintln!("telemetry overhead ratio: {ratio:.4} (off {min_off:.4}s, on {min_on:.4}s)");
    if cfg!(debug_assertions) {
        return; // debug timing noise exceeds the bound being tested
    }
    assert!(
        ratio < 1.02,
        "enabled telemetry regressed population_eval by {:.2}% (limit 2%)",
        (ratio - 1.0) * 100.0
    );
}
