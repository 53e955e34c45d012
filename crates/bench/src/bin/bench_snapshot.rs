//! Machine-readable performance snapshot of the memory-planned evaluation
//! path, for `scripts/bench_snapshot.sh` to stamp with the git revision.
//!
//! Measures, on one process with a fixed seed:
//!
//! * **population_eval** — archs/sec and equivalent forwards/sec for an
//!   EA-generation-shaped population evaluated against a trained tiny
//!   supernet, prefix cache off vs on, plus the cache hit rate;
//! * **alloc** — heap allocations per steady-state eval forward (counting
//!   global allocator; the arena makes this O(1));
//! * **search** — end-to-end fixed-seed EA search throughput on the
//!   surrogate pipeline (archs/sec), the number the paper's search-cost
//!   claim rests on;
//! * **telemetry** — per-phase wall time and allocation counts derived
//!   from an in-memory telemetry sink capturing the phases above, plus the
//!   measured overhead ratio of running with that sink installed
//!   (`schema_version` 1; older snapshot fields are unchanged);
//! * **kernels** — the GEMM kernel variant the runtime selector picked on
//!   this host, per-variant dispatch counts over the whole run, raw
//!   GFLOP/s per (shape class, variant) for conv-shaped GEMMs, a
//!   GFLOP/s-vs-band-count sweep for the packed variants (`--threads N`
//!   caps the sweep; host parallelism is recorded so single-core hosts
//!   are interpretable), and packed-weight-cache counters with the
//!   steady-state population-eval hit rate;
//! * **graph** — deployment pipeline numbers for a fixed mixed genome:
//!   compile time, patch counts, artifact byte size, and min-of-N
//!   single-image latency for the specialized graph vs the masked
//!   supernet forward it is bit-identical to;
//! * **pareto** — multi-device co-exploration numbers: frontier size /
//!   evaluations for a fixed-seed NSGA-II run over the three paper
//!   devices, plus the bench-table fast path — rows, probe hit rate, and
//!   the table-hit vs live-eval speedup (with bit-identity asserted) the
//!   serve `--bench-table` path banks on;
//! * **fleet** (only with `--fleet N`) — the same mixed serving workload
//!   driven against one in-process daemon and against a router fronting
//!   N in-process workers: requests/sec plus p50/p99 latency per request
//!   type, and the router's routed/retried/failed counters.
//!
//! Usage: `cargo run --release -p hsconas-bench --bin bench_snapshot`
//! (prints one JSON object to stdout). Requires the default `telemetry`
//! feature.

use hsconas_bench::seed_from_args;
use hsconas_data::SyntheticDataset;
use hsconas_evo::{EvolutionConfig, EvolutionSearch, MemoObjective, ParallelObjective};
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
use hsconas_telemetry::{span, MemorySink, RunReport};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// EA-generation-shaped population: an elite plus single-gene mutants,
/// sorted lexicographically as the evo scheduler would submit them.
fn sibling_population(space: &SearchSpace, seed: u64) -> Vec<Arch> {
    let mut arch_rng = StdRng::seed_from_u64(seed);
    let elite = Arch::widest(4);
    let mut population = vec![elite.clone()];
    for i in 0..12 {
        let donor = space.sample(&mut arch_rng);
        let layer = i % 4;
        let mut mutant = elite.clone();
        mutant.set_gene(layer, donor.genes()[layer]).unwrap();
        population.push(mutant);
    }
    population.sort_by_key(|a| a.encode());
    population.dedup_by_key(|a| a.encode());
    population
}

fn main() {
    let seed = seed_from_args();
    // `--threads N` caps the band counts the kernels sweep measures; the
    // eval phases below stay pinned to one worker regardless, so the
    // arena-warmth and cache numbers keep their fixed methodology.
    let args: Vec<String> = std::env::args().collect();
    let sweep_max: usize = args
        .windows(2)
        .find(|w| w[0] == "--threads")
        .and_then(|w| w[1].parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(8);
    // `--fleet N` adds the single-daemon vs N-shard serving comparison.
    let fleet_workers: usize = args
        .windows(2)
        .find(|w| w[0] == "--fleet")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(0);
    hsconas_par::set_default_threads(1);

    // --- population evaluation, cache off vs on -------------------------
    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, seed);
    let mut rng = SmallRng::new(seed);
    let net = Supernet::build(space.skeleton(), &mut rng).expect("build");
    let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
    let mut train_rng = SmallRng::new(seed ^ 1);
    trainer
        .train_steps(&space, &data, 10, 0.05, &mut train_rng)
        .expect("train");
    let population = sibling_population(&space, seed ^ 2);
    let eval_batches = 2usize;
    let reps = 10usize;

    // --- telemetry overhead: sink installed vs not, interleaved ---------
    // One steady-state population pass is the unit of work; min-of-N on
    // alternating rounds cancels thermal / scheduler drift. Measured
    // *before* the main sink is installed so the snapshot's headline
    // numbers carry at most this (gated < 2%) overhead.
    trainer.set_prefix_cache_enabled(true);
    trainer.clear_prefix_cache();
    let pass = |trainer: &mut SupernetTrainer| {
        for arch in &population {
            black_box(trainer.evaluate(arch, &data, eval_batches).expect("eval"));
        }
    };
    pass(&mut trainer); // warm-up
    let mut min_off = f64::INFINITY;
    let mut min_on = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        pass(&mut trainer);
        min_off = min_off.min(start.elapsed().as_secs_f64());
        let probe_sink = MemorySink::install();
        let start = Instant::now();
        pass(&mut trainer);
        min_on = min_on.min(start.elapsed().as_secs_f64());
        probe_sink.uninstall();
    }
    let overhead_ratio = min_on / min_off;

    // The main sink captures phase spans for the rest of the run; the
    // alloc probe lets spans record allocation deltas.
    hsconas_telemetry::set_alloc_probe(|| ALLOCS.load(Ordering::Relaxed));
    let sink = MemorySink::install();

    let mut sweep = |cache: bool| -> (f64, f64, f64) {
        trainer.set_prefix_cache_enabled(cache);
        trainer.clear_prefix_cache();
        // warm-up (also warms the thread-local arena)
        for arch in &population {
            black_box(trainer.evaluate(arch, &data, eval_batches).expect("eval"));
        }
        trainer.clear_prefix_cache();
        let start = Instant::now();
        for _ in 0..reps {
            trainer.clear_prefix_cache();
            for arch in &population {
                black_box(trainer.evaluate(arch, &data, eval_batches).expect("eval"));
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let evals = (population.len() * reps) as f64;
        let forwards = evals * (8 + eval_batches) as f64;
        let hit_rate = trainer
            .prefix_cache_stats()
            .map(|s| s.hit_rate())
            .unwrap_or(0.0);
        (evals / secs, forwards / secs, hit_rate)
    };
    // Packed-weight-cache deltas across the measured sweeps: the earlier
    // warm-ups populated the cache, so these passes are the steady state
    // the ≥90 % hit-rate budget is about.
    let pack_before = hsconas_tensor::kernels::cache::stats();
    let (archs_off, forwards_off, _) = {
        let _span = span!("bench.population_eval_cache_off");
        sweep(false)
    };
    let (archs_on, forwards_on, hit_rate) = {
        let _span = span!("bench.population_eval_cache_on");
        sweep(true)
    };
    let pack_after = hsconas_tensor::kernels::cache::stats();
    let pack_hits = pack_after.hits - pack_before.hits;
    let pack_lookups = pack_hits
        + (pack_after.misses - pack_before.misses)
        + (pack_after.invalidations - pack_before.invalidations);
    let steady_state_hit_rate = if pack_lookups == 0 {
        0.0
    } else {
        pack_hits as f64 / pack_lookups as f64
    };

    // --- allocations per steady-state forward ---------------------------
    let allocs_per_forward = {
        let _span = span!("bench.alloc");
        let input = hsconas_tensor::Tensor::randn([8, 3, 32, 32], 1.0, &mut rng);
        let widest = Arch::widest(4);
        let net = trainer.supernet_mut();
        net.forward(&input, &widest, false).expect("warm");
        net.forward(&input, &widest, false).expect("warm");
        let before = ALLOCS.load(Ordering::Relaxed);
        net.forward(&input, &widest, false).expect("measure");
        ALLOCS.load(Ordering::Relaxed) - before
    };

    // --- end-to-end fixed-seed EA search (surrogate pipeline) -----------
    let big_space = SearchSpace::hsconas_a();
    let device = DeviceSpec::edge_xavier();
    let score = {
        let space = big_space.clone();
        move |arch: &Arch| {
            let net = lower_arch(space.skeleton(), arch).map_err(|e| {
                hsconas_evo::EvoError::Objective {
                    detail: e.to_string(),
                }
            })?;
            let latency_ms = device.network_time_us(&net) / 1000.0;
            let cost = hsconas_space::cost::arch_cost(space.skeleton(), arch)
                .map_err(hsconas_evo::EvoError::Space)?;
            let accuracy = 60.0 + 10.0 * (cost.total_flops() / 1e8).tanh();
            Ok(hsconas_evo::Evaluation {
                score: accuracy - 20.0 * (latency_ms / 34.0 - 1.0).abs(),
                accuracy,
                latency_ms,
            })
        }
    };
    let config = EvolutionConfig {
        generations: 6,
        population: 20,
        parents: 8,
        ..Default::default()
    };
    let mut objective = MemoObjective::new(ParallelObjective::new(score, 1));
    let mut search_rng = StdRng::seed_from_u64(seed);
    let search_span = span!("bench.search");
    let start = Instant::now();
    let result = EvolutionSearch::new(big_space, config)
        .run(&mut objective, &mut search_rng)
        .expect("search");
    let search_secs = start.elapsed().as_secs_f64();
    search_span.close();
    let search_evals = objective.stats().hits + objective.stats().misses;

    // --- telemetry-derived per-phase summary ----------------------------
    hsconas_telemetry::flush_metrics();
    let report = RunReport::from_events(&sink.take());
    sink.uninstall();
    let phases: Vec<(String, Value)> = report
        .span_aggs
        .iter()
        .filter(|a| !a.path.contains('/')) // top-level bench.* phases only
        .map(|a| {
            let mut fields = vec![
                ("count".to_string(), Value::U64(a.count)),
                ("total_ms".to_string(), Value::F64(a.total_us as f64 / 1e3)),
            ];
            if let Some(allocs) = a.allocs {
                fields.push(("allocs".to_string(), Value::U64(allocs)));
            }
            (a.path.clone(), Value::Object(fields))
        })
        .collect();

    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };

    // --- GEMM kernel variants: GFLOP/s per shape class ------------------
    // Conv-shaped problems covering the selector's shape classes; every
    // variant the host supports is measured on each so the snapshot records
    // both the speedup and which variant the selector actually picks. The
    // packed variants additionally sweep explicit band counts 1..sweep_max
    // (the GFLOP/s-vs-threads curve); `host_parallelism` is recorded so a
    // flat curve on a single-core container reads as expected, not broken.
    let kernels = {
        use hsconas_tensor::kernels::{
            classify, dispatch_counts, gemm_with, gemm_with_threads, Op, Variant,
        };
        let mut variants = vec![Variant::Direct, Variant::Scalar];
        if Variant::Avx2.is_available() {
            variants.push(Variant::Avx2);
        }
        let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&t| t <= sweep_max.max(1))
            .collect();
        // The fourth shape is the "large" one the band split is for:
        // enough macro-rows for 8 bands and several ms of arithmetic.
        let shapes = [
            (32, 144, 576),
            (128, 256, 128),
            (64, 1024, 256),
            (256, 512, 512),
        ];
        let mut shape_objs: Vec<(String, Value)> = Vec::new();
        for (m, k, n) in shapes {
            let mut srng = SmallRng::new(seed ^ 7);
            let a: Vec<f32> = (0..m * k).map(|_| srng.next_f32() - 0.5).collect();
            let b: Vec<f32> = (0..k * n).map(|_| srng.next_f32() - 0.5).collect();
            let mut c = vec![0.0f32; m * n];
            let flops = 2.0 * (m * k * n) as f64;
            let reps = ((5e8 / flops) as usize).clamp(10, 2000);
            // `threads: None` = the auto policy (what `gemm` callers get);
            // `Some(t)` = an explicit band count.
            let time_one = |variant: Variant, threads: Option<usize>, c: &mut [f32]| -> f64 {
                let run = |c: &mut [f32]| match threads {
                    None => gemm_with(variant, Op::Ab, &a, &b, c, m, k, n, false),
                    Some(t) => {
                        gemm_with_threads(variant, t, Op::Ab, &a, &b, c, m, k, n, false);
                    }
                };
                for _ in 0..3 {
                    run(c);
                }
                let start = Instant::now();
                for _ in 0..reps {
                    run(black_box(c));
                }
                let gflops = flops * reps as f64 / start.elapsed().as_secs_f64() / 1e9;
                (gflops * 100.0).round() / 100.0
            };
            let mut fields: Vec<(String, Value)> = vec![(
                "class".to_string(),
                Value::Str(classify(m, k, n).name().to_string()),
            )];
            for &variant in &variants {
                fields.push((
                    format!("gflops_{}", variant.name()),
                    Value::F64(time_one(variant, None, &mut c)),
                ));
                if variant == Variant::Direct {
                    continue; // the direct loops never fork
                }
                for &t in &thread_counts {
                    fields.push((
                        format!("gflops_{}_t{}", variant.name(), t),
                        Value::F64(time_one(variant, Some(t), &mut c)),
                    ));
                }
            }
            shape_objs.push((format!("{m}x{k}x{n}"), Value::Object(fields)));
        }
        let counts = dispatch_counts();
        let bands = hsconas_tensor::kernels::parallel_counts();
        obj(vec![
            (
                "selected",
                Value::Str(
                    hsconas_tensor::kernels::selected_variant()
                        .name()
                        .to_string(),
                ),
            ),
            (
                "host_parallelism",
                Value::U64(
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1) as u64,
                ),
            ),
            (
                "thread_sweep",
                Value::Array(
                    thread_counts
                        .iter()
                        .map(|&t| Value::U64(t as u64))
                        .collect(),
                ),
            ),
            (
                "dispatch",
                obj(vec![
                    ("direct", Value::U64(counts.direct)),
                    ("scalar", Value::U64(counts.scalar)),
                    ("avx2", Value::U64(counts.avx2)),
                    ("depthwise", Value::U64(counts.depthwise)),
                ]),
            ),
            (
                "bands",
                obj(vec![
                    ("serial", Value::U64(bands.serial)),
                    ("parallel", Value::U64(bands.parallel)),
                ]),
            ),
            (
                "pack_cache",
                obj(vec![
                    ("hits", Value::U64(pack_after.hits)),
                    ("misses", Value::U64(pack_after.misses)),
                    ("evictions", Value::U64(pack_after.evictions)),
                    ("invalidations", Value::U64(pack_after.invalidations)),
                    ("entries", Value::U64(pack_after.entries as u64)),
                    ("bytes", Value::U64(pack_after.bytes as u64)),
                    (
                        "steady_state_hit_rate",
                        Value::F64((steady_state_hit_rate * 1e4).round() / 1e4),
                    ),
                ]),
            ),
            ("shapes", Value::Object(shape_objs)),
        ])
    };
    // --- graph deployment: optimized artifact vs masked supernet --------
    // Compile a mixed genome (narrow + grouped + skip layers so every
    // patch fires), then race single-image inference through the
    // specialized graph against the masked supernet forward it is
    // bit-identical to. Min-of-N cancels scheduler noise; the artifact
    // byte size is the on-disk deployment cost.
    let graph_block = {
        use hsconas_graph::{artifact, compile, execute, CompileOptions};
        use hsconas_space::{ChannelScale, Gene, NetworkSkeleton, OpKind};
        let sk = NetworkSkeleton::tiny(10);
        let genome = Arch::new(vec![
            Gene::new(
                OpKind::Xception,
                ChannelScale::from_tenths(4).expect("scale"),
            ),
            Gene::new(
                OpKind::Shuffle3,
                ChannelScale::from_tenths(4).expect("scale"),
            ),
            Gene::new(
                OpKind::Shuffle5,
                ChannelScale::from_tenths(6).expect("scale"),
            ),
            Gene::new(OpKind::Skip, ChannelScale::from_tenths(10).expect("scale")),
        ]);
        let opts = CompileOptions::default();
        let start = Instant::now();
        let (art, stats) = compile(&sk, &genome, &opts).expect("graph compile");
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;
        let artifact_bytes = artifact::to_bytes(&art).len();
        let mut reference =
            hsconas_graph::build_reference(&sk, &genome, opts.seed, opts.warmup_steps)
                .expect("reference supernet");
        let res = sk.input_resolution;
        let mut grng = SmallRng::new(seed ^ 11);
        let x = hsconas_tensor::Tensor::randn([1, sk.input_channels, res, res], 1.0, &mut grng);
        let time_min = |run: &mut dyn FnMut()| -> f64 {
            for _ in 0..3 {
                run();
            }
            let mut best = f64::INFINITY;
            for _ in 0..30 {
                let start = Instant::now();
                run();
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
            }
            (best * 1e4).round() / 1e4
        };
        let graph_ms = time_min(&mut || {
            black_box(execute(&art.graph, &x).expect("graph execute"));
        });
        let reference_ms = time_min(&mut || {
            black_box(reference.forward(&x, &genome, false).expect("reference"));
        });
        obj(vec![
            ("arch", Value::Str(genome.to_string())),
            ("nodes", Value::U64(art.graph.nodes.len() as u64)),
            (
                "weight_floats",
                Value::U64(art.graph.const_elements() as u64),
            ),
            ("artifact_bytes", Value::U64(artifact_bytes as u64)),
            ("compile_ms", Value::F64((compile_ms * 1e2).round() / 1e2)),
            (
                "patches",
                obj(vec![
                    ("fused", Value::U64(stats.fused as u64)),
                    ("specialized", Value::U64(stats.specialized as u64)),
                    ("folded", Value::U64(stats.folded as u64)),
                    ("removed", Value::U64(stats.removed as u64)),
                ]),
            ),
            ("infer_ms_graph", Value::F64(graph_ms)),
            ("infer_ms_reference", Value::F64(reference_ms)),
            (
                "speedup",
                Value::F64((reference_ms / graph_ms * 1e3).round() / 1e3),
            ),
        ])
    };

    // --- fleet serving throughput (opt-in via --fleet N) ----------------
    let fleet_block = if fleet_workers > 0 {
        Some(fleet_bench(fleet_workers))
    } else {
        None
    };

    let mut snapshot = obj(vec![
        ("seed", Value::U64(seed)),
        (
            "population_eval",
            obj(vec![
                ("population", Value::U64(population.len() as u64)),
                ("eval_batches", Value::U64(eval_batches as u64)),
                ("reps", Value::U64(reps as u64)),
                ("archs_per_sec_cache_off", Value::F64(archs_off)),
                ("archs_per_sec_cache_on", Value::F64(archs_on)),
                ("forwards_per_sec_cache_off", Value::F64(forwards_off)),
                ("forwards_per_sec_cache_on", Value::F64(forwards_on)),
                ("speedup", Value::F64(archs_on / archs_off)),
                ("cache_hit_rate", Value::F64(hit_rate)),
            ]),
        ),
        (
            "alloc",
            obj(vec![(
                "allocations_per_forward",
                Value::U64(allocs_per_forward),
            )]),
        ),
        (
            "search",
            obj(vec![
                ("generations", Value::U64(6)),
                ("population", Value::U64(20)),
                (
                    "archs_per_sec",
                    Value::F64(search_evals as f64 / search_secs),
                ),
                ("best_score", Value::F64(result.best_evaluation.score)),
            ]),
        ),
        (
            "telemetry",
            obj(vec![
                (
                    "schema_version",
                    Value::U64(hsconas_telemetry::SCHEMA_VERSION),
                ),
                ("overhead_ratio", Value::F64(overhead_ratio)),
                ("phases", Value::Object(phases)),
            ]),
        ),
        ("kernels", kernels),
        ("graph", graph_block),
        ("pareto", pareto_bench(seed)),
    ]);
    if let (Value::Object(fields), Some(fleet)) = (&mut snapshot, fleet_block) {
        fields.push(("fleet".to_string(), fleet));
    }
    println!("{}", serde_json::to_string_pretty(&snapshot).expect("json"));
}

/// The `pareto` snapshot block: a fixed-seed in-process NSGA-II run over
/// the three paper devices through the serve warm state (frontier size,
/// evaluations, wall time), plus the bench-table fast path — rows built
/// via the same `measure` path as `hsconas bench-table`, the hit rate
/// over a half-covered probe mix, and min-of-N table-hit vs live-eval
/// latency with bit-identity asserted before timing.
fn pareto_bench(seed: u64) -> Value {
    use hsconas_evo::{
        tradeoff_score, MemoObjective, Objective, ParallelObjective, ParetoObjective, ParetoSearch,
    };
    use hsconas_serve::router::arch_route_key;
    use hsconas_serve::{BenchTable, ServeOptions, TableDevice, TableEntry, WarmState};

    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };

    let state = WarmState::new(ServeOptions::default());
    let mut devices: Vec<_> = ["gpu", "cpu", "edge"]
        .iter()
        .map(|name| state.device(name).expect("warm device"))
        .collect();
    devices.sort_by(|a, b| a.name.cmp(&b.name));
    let target_ms = 34.0;
    let space = devices[0].space.clone();

    // Multi-device frontier over the live evaluators, exactly as the
    // serve `pareto` request wires them (memoized, pool width 1).
    let per_device: Vec<(String, Box<dyn Objective>)> = devices
        .iter()
        .map(|device| {
            let ctx = device.eval_context(target_ms);
            let objective = MemoObjective::with_shared_cache(
                ParallelObjective::new(device.evaluator(&ctx), 1),
                ctx.cache.clone(),
            );
            (
                device.name.clone(),
                Box::new(objective) as Box<dyn Objective>,
            )
        })
        .collect();
    let config = EvolutionConfig {
        generations: 4,
        population: 12,
        parents: 6,
        ..Default::default()
    };
    let mut objective = ParetoObjective::new(per_device).expect("pareto objective");
    let start = Instant::now();
    let frontier = ParetoSearch::new(space.clone(), config)
        .run(&mut objective, &mut StdRng::seed_from_u64(seed))
        .expect("pareto search");
    let search_secs = start.elapsed().as_secs_f64();

    // Bench table over a sampled subspace, through the same `measure`
    // path the offline `hsconas bench-table` job uses.
    let columns: Vec<TableDevice> = devices
        .iter()
        .map(|device| {
            let (_, bias_us) = device.predictor_stats();
            TableDevice {
                name: device.name.clone(),
                lut_generation: device.lut_generation(),
                bias_us,
            }
        })
        .collect();
    let samples = 32usize;
    let mut table = BenchTable::new(seed, samples as u64, columns);
    let covered = space.sample_n(samples, &mut StdRng::seed_from_u64(seed ^ 3));
    for arch in &covered {
        let fingerprint = arch_route_key(&arch.encode());
        if table.get(fingerprint).is_some() {
            continue;
        }
        let mut accuracy = 0.0;
        let mut latencies_ms = Vec::with_capacity(devices.len());
        for (i, device) in devices.iter().enumerate() {
            let (acc, lat) = device.measure(arch).expect("measure");
            if i == 0 {
                accuracy = acc;
            }
            latencies_ms.push(lat);
        }
        table.insert(
            fingerprint,
            TableEntry {
                accuracy,
                latencies_ms,
            },
        );
    }

    // Hit rate over a probe mix: every covered arch plus as many fresh
    // ones (expected rate ~0.5 — the point is that misses are counted,
    // not that coverage is total).
    let fresh = space.sample_n(samples, &mut StdRng::seed_from_u64(seed ^ 9));
    let mut hits = 0usize;
    let mut probes = 0usize;
    for arch in covered.iter().chain(&fresh) {
        probes += 1;
        if table.get(arch_route_key(&arch.encode())).is_some() {
            hits += 1;
        }
    }
    let hit_rate = hits as f64 / probes as f64;

    // Table-hit vs live-eval latency for one covered arch. The fast path
    // is a hash lookup plus an Eq. 1 recompute; the live path runs the
    // oracle and predictor. Bit-identity is asserted before timing, so
    // the speedup never comes from answering a different question.
    let probe = covered[0].clone();
    let fingerprint = arch_route_key(&probe.encode());
    let ctx = devices[0].eval_context(target_ms);
    let evaluator = devices[0].evaluator(&ctx);
    let live = evaluator(&probe).expect("live eval");
    let entry = table.get(fingerprint).expect("covered row");
    let beta = hsconas_serve::state::BETA;
    let table_score = tradeoff_score(entry.accuracy, entry.latencies_ms[0], target_ms, beta);
    assert_eq!(
        live.score.to_bits(),
        table_score.to_bits(),
        "table-hit score must be bit-identical to live evaluation"
    );
    assert_eq!(live.latency_ms.to_bits(), entry.latencies_ms[0].to_bits());

    let time_min = |run: &mut dyn FnMut() -> f64| -> f64 {
        let reps = 64;
        for _ in 0..reps {
            black_box(run());
        }
        let mut best = f64::INFINITY;
        for _ in 0..20 {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(run());
            }
            best = best.min(start.elapsed().as_secs_f64() / reps as f64);
        }
        best
    };
    let live_secs = time_min(&mut || evaluator(&probe).expect("live eval").score);
    let hit_secs = time_min(&mut || {
        let entry = table.get(fingerprint).expect("covered row");
        tradeoff_score(entry.accuracy, entry.latencies_ms[0], target_ms, beta)
    });

    obj(vec![
        (
            "devices",
            Value::Array(
                frontier
                    .devices
                    .iter()
                    .map(|d| Value::Str(d.clone()))
                    .collect(),
            ),
        ),
        ("frontier_size", Value::U64(frontier.points.len() as u64)),
        ("generations", Value::U64(frontier.generations as u64)),
        ("evaluated", Value::U64(frontier.evaluated)),
        ("search_ms", Value::F64((search_secs * 1e5).round() / 1e2)),
        (
            "bench_table",
            obj(vec![
                ("rows", Value::U64(table.len() as u64)),
                ("probes", Value::U64(probes as u64)),
                ("hits", Value::U64(hits as u64)),
                ("probe_hit_rate", Value::F64((hit_rate * 1e4).round() / 1e4)),
                ("live_eval_us", Value::F64((live_secs * 1e8).round() / 1e2)),
                ("table_hit_us", Value::F64((hit_secs * 1e8).round() / 1e2)),
                (
                    "speedup",
                    Value::F64((live_secs / hit_secs * 1e2).round() / 1e2),
                ),
            ]),
        ),
    ])
}

/// One topology's share of the `--fleet` comparison: requests/sec over
/// the mixed workload plus per-request-type latency samples.
struct ServingOutcome {
    requests_per_sec: f64,
    latency_ms: Vec<(String, Vec<f64>)>,
}

/// Drives the fixed mixed workload (predict/score/infer/search) over one
/// connection to `addr` and times every request client-side.
fn serving_workload(addr: &str) -> ServingOutcome {
    use hsconas_serve::proto::Command;
    use hsconas_serve::Client;

    let wide: Vec<usize> = (0..20).flat_map(|_| [0usize, 9]).collect();
    let tiny: Vec<usize> = (0..4).flat_map(|_| [0usize, 9]).collect();
    let predict = |arch: &[usize]| Command::PredictLatency {
        device: "edge".to_string(),
        arch: arch.to_vec(),
    };
    let score = |target_ms: f64| Command::Score {
        device: "edge".to_string(),
        target_ms,
        arch: wide.clone(),
    };
    // Distinct score targets and infer seeds defeat the eval memo, so
    // both topologies do real work on every request; the identical fixed
    // sequence keeps the comparison apples-to-apples.
    let mut requests: Vec<(&str, Command)> = Vec::new();
    for i in 0..40 {
        requests.push(("predict_latency", predict(&wide)));
        requests.push(("score", score(1_000.0 + i as f64)));
    }
    for i in 0..20u64 {
        requests.push((
            "infer",
            Command::Infer {
                arch: tiny.clone(),
                input_seed: i,
                batch: 1,
            },
        ));
    }
    for seed in 0..3u64 {
        requests.push((
            "search",
            Command::Search {
                device: "edge".to_string(),
                target_ms: 34.0,
                seed,
            },
        ));
    }

    let mut client = Client::connect(addr).expect("connect serving bench");
    client
        .set_timeout(Some(std::time::Duration::from_secs(600)))
        .ok();
    // Warm every request path once so first-touch calibration and graph
    // compilation don't land in the percentiles.
    for cmd in [
        predict(&wide),
        score(999.0),
        Command::Infer {
            arch: tiny.clone(),
            input_seed: 999,
            batch: 1,
        },
    ] {
        assert!(client.call(cmd).expect("warm call").is_ok());
    }

    let mut latency_ms: Vec<(String, Vec<f64>)> = Vec::new();
    let start = Instant::now();
    for (kind, cmd) in requests {
        let t0 = Instant::now();
        let response = client.call(cmd).expect("bench call");
        assert!(response.is_ok(), "bench request failed: {response:?}");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match latency_ms.iter_mut().find(|(k, _)| k == kind) {
            Some((_, samples)) => samples.push(ms),
            None => latency_ms.push((kind.to_string(), vec![ms])),
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let total: usize = latency_ms.iter().map(|(_, s)| s.len()).sum();
    ServingOutcome {
        requests_per_sec: total as f64 / secs,
        latency_ms,
    }
}

/// Nearest-rank percentile over an unsorted sample set.
fn percentile_ms(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    (sorted[idx] * 1e3).round() / 1e3
}

/// The `fleet` snapshot block: the same mixed workload against one
/// in-process daemon and against a router fronting `workers` in-process
/// daemons, so nightly runs record the routing overhead and the shard
/// scaling side by side.
fn fleet_bench(workers: usize) -> Value {
    use hsconas_serve::{Json, Router, RouterOptions, ServeOptions, Server};

    let serve_options = || ServeOptions {
        preload: vec!["edge".to_string()],
        ..Default::default()
    };
    let outcome_obj = |outcome: &ServingOutcome| -> Vec<(String, Value)> {
        let mut fields = vec![(
            "requests_per_sec".to_string(),
            Value::F64((outcome.requests_per_sec * 1e2).round() / 1e2),
        )];
        let latency: Vec<(String, Value)> = outcome
            .latency_ms
            .iter()
            .map(|(kind, samples)| {
                (
                    kind.clone(),
                    Value::Object(vec![
                        ("count".to_string(), Value::U64(samples.len() as u64)),
                        (
                            "p50_ms".to_string(),
                            Value::F64(percentile_ms(samples, 0.5)),
                        ),
                        (
                            "p99_ms".to_string(),
                            Value::F64(percentile_ms(samples, 0.99)),
                        ),
                    ]),
                )
            })
            .collect();
        fields.push(("latency_ms".to_string(), Value::Object(latency)));
        fields
    };

    // Single daemon baseline.
    let server = Server::bind(serve_options()).expect("bind single daemon");
    let single_addr = server.local_addr().to_string();
    let single_thread = std::thread::spawn(move || server.run());
    let single = serving_workload(&single_addr);
    hsconas_serve::Client::connect(&single_addr)
        .and_then(|mut c| c.shutdown())
        .expect("drain single daemon");
    single_thread
        .join()
        .expect("join single daemon")
        .expect("single daemon run");

    // Router + N in-process workers (drained by the router on shutdown).
    let mut worker_threads = Vec::new();
    let mut shard_addrs = Vec::new();
    for _ in 0..workers {
        let worker = Server::bind(serve_options()).expect("bind worker");
        shard_addrs.push(worker.local_addr().to_string());
        worker_threads.push(std::thread::spawn(move || worker.run()));
    }
    let router = Router::bind(RouterOptions {
        shards: shard_addrs,
        ..Default::default()
    })
    .expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_thread = std::thread::spawn(move || router.run());
    let sharded = serving_workload(&router_addr);
    let mut status_client =
        hsconas_serve::Client::connect(&router_addr).expect("connect for fleet status");
    let status = status_client.status().expect("fleet status");
    let router_counter = |name: &str| -> u64 {
        status
            .result
            .as_ref()
            .and_then(|r| r.get("router"))
            .and_then(|r| r.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let (routed, retried, failed) = (
        router_counter("routed"),
        router_counter("retried"),
        router_counter("failed"),
    );
    status_client.shutdown().expect("drain fleet");
    router_thread
        .join()
        .expect("join router")
        .expect("router run");
    for thread in worker_threads {
        thread.join().expect("join worker").expect("worker run");
    }

    let mut sharded_fields = outcome_obj(&sharded);
    sharded_fields.push(("routed".to_string(), Value::U64(routed)));
    sharded_fields.push(("retried".to_string(), Value::U64(retried)));
    sharded_fields.push(("failed".to_string(), Value::U64(failed)));
    Value::Object(vec![
        ("workers".to_string(), Value::U64(workers as u64)),
        ("single".to_string(), Value::Object(outcome_obj(&single))),
        ("sharded".to_string(), Value::Object(sharded_fields)),
    ])
}
