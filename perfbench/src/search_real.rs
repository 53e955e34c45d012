//! `search_real`: the paper's full flow on real kernels — warm supernet
//! training, two shrink stages with fine-tuning, the EA scoring
//! candidates with inherited weights, and training the winner from
//! scratch.
//!
//! The untraced measurement times `hsconas::run_real_pipeline`. The
//! traced pass rebuilds the same pipeline out of the same public calls,
//! each wrapped in a span, and must return the same `best_arch` and
//! `from_scratch_accuracy` bits — that is the correctness gate, checked
//! in every run.

use crate::{stats, trace, Args, Report};
use hsconas::{run_real_pipeline, RealPipelineConfig};
use hsconas_data::SyntheticDataset;
use hsconas_evo::{Evaluation, EvoError, EvolutionSearch, Objective};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::LatencyPredictor;
use hsconas_shrink::{ProgressiveShrinking, ShrinkConfig};
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::subnet::{build_subnet, train_from_scratch};
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Set-up repetitions per run (the median is reported).
const SETUP_REPEATS: usize = 15;

/// What the gate compares, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    best_arch: Arch,
    from_scratch_bits: u64,
}

/// Work counts of one composed run.
#[derive(Debug, Default)]
struct Counts {
    train_steps: usize,
    shrink_candidates: usize,
    ea_evals: usize,
    prefix_hits: u64,
    prefix_lookups: u64,
}

/// The pipeline's objective (inherited-weight accuracy plus the latency
/// predictor, Eq. 1), with each call into the two layers in a span.
struct TracedObjective<'a> {
    trainer: &'a mut SupernetTrainer,
    data: &'a SyntheticDataset,
    predictor: &'a LatencyPredictor,
    config: &'a RealPipelineConfig,
    calls: usize,
}

impl Objective for TracedObjective<'_> {
    fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
        self.calls += 1;
        let acc = {
            let _s = trace::span("supernet.eval");
            self.trainer
                .evaluate(arch, self.data, self.config.eval_batches)
                .map_err(|e| EvoError::Objective {
                    detail: e.to_string(),
                })?
        };
        let latency_ms = {
            let _s = trace::span("latency.predict");
            self.predictor.predict_ms(arch).map_err(EvoError::Space)?
        };
        let accuracy = 100.0 * acc;
        Ok(Evaluation {
            score: accuracy + self.config.beta * (latency_ms / self.config.target_ms - 1.0).abs(),
            accuracy,
            latency_ms,
        })
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `run_real_pipeline` rebuilt from its public calls (no checkpointing).
fn composed(config: &RealPipelineConfig, seed: u64) -> Result<(Outcome, Counts), String> {
    let _root = trace::span("search_real.pipeline");
    let mut counts = Counts::default();
    let space = SearchSpace::tiny(config.classes);
    let data = {
        let _s = trace::span("data.synthetic");
        SyntheticDataset::new(config.classes, 32, seed)
    };
    let mut train_rng = SmallRng::new(seed);
    let mut trainer = {
        let _s = trace::span("supernet.build");
        SupernetTrainer::new(
            Supernet::build(space.skeleton(), &mut train_rng).map_err(err)?,
            TrainConfig::quick_test(),
        )
    };
    {
        let _s = trace::span("supernet.train");
        trainer
            .train_steps_resumable(
                &space,
                &data,
                config.warm_steps,
                0.05,
                &mut train_rng,
                None,
                0,
                &mut |_, _| Ok(()),
            )
            .map_err(err)?;
        counts.train_steps += config.warm_steps;
    }
    let mut search_rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let predictor = {
        let _s = trace::span("latency.calibrate");
        LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 20, 2, &mut search_rng)
            .map_err(err)?
    };

    let mut current_space = space.clone();
    for (stage_idx, layers) in config.shrink_stages.iter().enumerate() {
        let stage = ProgressiveShrinking::new(ShrinkConfig {
            stages: vec![layers.clone()],
            samples_per_subspace: config.samples_per_subspace,
        });
        let mut objective = TracedObjective {
            trainer: &mut trainer,
            data: &data,
            predictor: &predictor,
            config,
            calls: 0,
        };
        let result = {
            let _s = trace::span("shrink.run");
            stage
                .run(
                    current_space.clone(),
                    &mut objective,
                    &mut search_rng,
                    |_, _| Ok(()),
                )
                .map_err(err)?
        };
        counts.shrink_candidates += objective.calls;
        current_space = result.space;
        let mut ft_rng = SmallRng::new(seed ^ (stage_idx as u64 + 1));
        let _s = trace::span("supernet.train");
        trainer
            .train_steps(
                &current_space,
                &data,
                config.fine_tune_steps,
                0.01,
                &mut ft_rng,
            )
            .map_err(err)?;
        counts.train_steps += config.fine_tune_steps;
    }

    let evolution = {
        let mut objective = TracedObjective {
            trainer: &mut trainer,
            data: &data,
            predictor: &predictor,
            config,
            calls: 0,
        };
        let _s = trace::span("evo.search");
        let mut search = EvolutionSearch::new(current_space.clone(), config.evolution);
        let mut state = search
            .init_state(&mut objective, &mut search_rng)
            .map_err(err)?;
        while state.completed_generations() < config.evolution.generations {
            search
                .step_generation(&mut state, &mut objective, &mut search_rng)
                .map_err(err)?;
        }
        counts.ea_evals = objective.calls;
        search.finalize(&state).map_err(err)?
    };
    if let Some(prefix) = trainer.prefix_cache_stats() {
        counts.prefix_hits = prefix.hits;
        counts.prefix_lookups = prefix.hits + prefix.misses;
    }

    let _s = trace::span("supernet.final_train");
    let mut scratch_rng = SmallRng::new(seed ^ 0xbeef);
    let mut subnet =
        build_subnet(space.skeleton(), &evolution.best_arch, &mut scratch_rng).map_err(err)?;
    let scratch = train_from_scratch(
        &mut subnet,
        &data,
        config.final_steps,
        8,
        0.08,
        &mut scratch_rng,
    )
    .map_err(err)?;
    Ok((
        Outcome {
            best_arch: evolution.best_arch,
            from_scratch_bits: scratch.accuracy.to_bits(),
        },
        counts,
    ))
}

/// One timed `run_real_pipeline`.
fn untraced(config: &RealPipelineConfig, seed: u64) -> Result<(Outcome, f64), String> {
    let start = Instant::now();
    let result = run_real_pipeline(config, seed).map_err(err)?;
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(&result);
    Ok((
        Outcome {
            best_arch: result.best_arch,
            from_scratch_bits: result.from_scratch_accuracy.to_bits(),
        },
        seconds,
    ))
}

fn gate(reference: &Outcome, composed: &Outcome) -> Result<(), String> {
    if reference != composed {
        return Err(format!(
            "search_real: composed pipeline returned {composed:?}, run_real_pipeline returned {reference:?}"
        ));
    }
    Ok(())
}

/// Set-up: building the inputs the pipeline starts from — the synthetic
/// dataset and the untrained supernet — median of several repeats.
fn setup_seconds(config: &RealPipelineConfig, seed: u64) -> f64 {
    let space = SearchSpace::tiny(config.classes);
    let samples: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let data = {
                let _s = trace::span("data.synthetic");
                SyntheticDataset::new(config.classes, 32, seed)
            };
            let net = {
                let _s = trace::span("supernet.build");
                Supernet::build(space.skeleton(), &mut SmallRng::new(seed))
            };
            std::hint::black_box((&data, &net));
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Timed `run_real_pipeline` repetitions for `duration` (at least one),
/// each gated against `reference`. Returns each repetition's wall time
/// and the process's CPU time per repetition, in seconds.
fn measure(
    config: &RealPipelineConfig,
    seed: u64,
    duration: Duration,
    reference: &Outcome,
) -> Result<(Vec<f64>, f64), String> {
    let cpu = crate::cpu_seconds(None);
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed() < duration {
        let (outcome, seconds) = untraced(config, seed)?;
        gate(&outcome, reference)?;
        times.push(seconds);
    }
    let cpu_per_run = (crate::cpu_seconds(None) - cpu) / times.len() as f64;
    Ok((times, cpu_per_run))
}

/// The end-to-end timings of one measurement, from seconds.
fn timings(latency_s: f64, setup_s: f64) -> Report {
    let mut r = Report::default();
    r.metric("latency_ms", latency_s * 1e3, "ms");
    r.metric("setup_s", setup_s, "s");
    r
}

pub fn run(args: &Args) -> Result<Report, String> {
    let config = if args.tiny {
        RealPipelineConfig::smoke_test()
    } else {
        RealPipelineConfig::tiny_default()
    };
    let seed = args.seed;
    let mut report = Report::default();
    let setup_s = setup_seconds(&config, seed);

    if !args.trace {
        // The composed pipeline runs first, untimed: the gate compares
        // every timed run with it, and it warms the process (allocator,
        // kernel caches) so every timed run starts warm.
        let (composed_outcome, _) = composed(&config, seed)?;
        let (times, cpu_s) = measure(&config, seed, args.duration(), &composed_outcome)?;
        report.note(format!(
            "search_real: {} timed runs {:?} s, {cpu_s:.3} CPU s per run; best_arch {} from-scratch accuracy {}",
            times.len(),
            times,
            composed_outcome.best_arch,
            f64::from_bits(composed_outcome.from_scratch_bits)
        ));
        report.attempted = times.len() as u64 + 1;
        // The fastest repetition: host interference only adds time, and
        // over a run's few 5-second pipelines the minimum is the steadier
        // figure across runs.
        let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
        report.metrics = timings(fastest, setup_s).metrics;
        report.metric("peak_rss_mb", crate::vm_hwm_mb(None), "MB");
        return Ok(report);
    }

    // A full-size warm-up run first, so that neither the untraced nor the
    // traced run pays the process's first-run costs; its outcome is the
    // reference the timed and the traced runs must reproduce.
    let (reference, _) = untraced(&config, seed)?;
    let (times, _) = measure(&config, seed, Duration::ZERO, &reference)?;
    let untraced_report = timings(times[0], setup_s);

    trace::enable();
    let traced_setup_s = setup_seconds(&config, seed);
    // Recording restarts: the set-up's spans are not the pipeline's.
    trace::enable();
    let kernels_before = crate::kernels::KernelSnapshot::take();
    let start = Instant::now();
    let result = composed(&config, seed);
    let traced_s = start.elapsed().as_secs_f64();
    report.spans = trace::take();
    let kernels = crate::kernels::KernelSnapshot::take().since(&kernels_before);
    let (outcome, counts) = result?;
    gate(&reference, &outcome)?;
    let traced_report = timings(traced_s, traced_setup_s);
    report.attempted = 3;

    let totals = trace::totals(&report.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let train = get("supernet.train");
    let eval = get("supernet.eval");
    let steps = counts.train_steps.max(1) as f64;
    report.metric("supernet.train.ms_per_step", train.total_ms() / steps, "ms");
    report.metric("supernet.train.steps", counts.train_steps as f64, "count");
    report.metric("supernet.eval.calls", eval.count as f64, "count");
    report.metric("supernet.eval.ms_per_call", eval.mean_ms(), "ms");
    report.metric(
        "supernet.prefix_hit_ratio",
        counts.prefix_hits as f64 / counts.prefix_lookups.max(1) as f64,
        "ratio",
    );
    report.metric(
        "supernet.final_train.ms",
        get("supernet.final_train").total_ms(),
        "ms",
    );
    kernels.report(&mut report);
    report.metric("alloc.per_train_step", train.allocs as f64 / steps, "count");
    report.metric(
        "latency.calibrate.ms",
        get("latency.calibrate").total_ms(),
        "ms",
    );
    report.metric(
        "latency.predict.us_per_call",
        get("latency.predict").mean_ms() * 1e3,
        "us",
    );
    report.metric("evo.self_ms", get("evo.search").self_ms(), "ms");
    report.metric("evo.evals", counts.ea_evals as f64, "count");
    report.metric("shrink.self_ms", get("shrink.run").self_ms(), "ms");
    report.metric(
        "shrink.candidates",
        counts.shrink_candidates as f64,
        "count",
    );
    report.reconcile("search_real.pipeline");
    report.overhead(&untraced_report, &traced_report);
    Ok(report)
}
