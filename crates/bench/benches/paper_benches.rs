//! Criterion benchmarks, one per paper artifact, measuring the runtime of
//! each experiment harness's core computation at reduced sampling budgets.
//!
//! Run with `cargo bench -p hsconas-bench`. These complement the
//! `src/bin/*` binaries (which regenerate the actual tables/figures): the
//! benches document how expensive each stage of the pipeline is, which is
//! itself one of the paper's claims (hardware modeling is cheap, search is
//! cheap once the supernet exists).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hsconas_bench::{ablation, fig2, fig3, fig4, fig5, fig6, table1};
use hsconas_evo::EvolutionConfig;
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_latency::LatencyPredictor;
use hsconas_space::{Arch, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Fig. 2: cost-model + simulated-measurement throughput.
fn bench_fig2(c: &mut Criterion) {
    c.bench_function("fig2_scatter_50_archs", |b| {
        b.iter(|| black_box(fig2::run(1, 50)))
    });
}

/// Fig. 3: latency predictor calibration and validation.
fn bench_fig3(c: &mut Criterion) {
    let config = fig3::Fig3Config {
        calibration_archs: 20,
        repeats: 2,
        validation_archs: 20,
    };
    c.bench_function("fig3_calibrate_and_validate", |b| {
        b.iter(|| black_box(fig3::run(1, &config)))
    });
    // single-prediction latency (the quantity that replaces on-device
    // measurement inside the search loop)
    let space = SearchSpace::hsconas_a();
    let mut rng = StdRng::seed_from_u64(7);
    let predictor =
        LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 20, 2, &mut rng).unwrap();
    let archs = space.sample_n(64, &mut rng);
    let mut i = 0;
    c.bench_function("fig3_single_prediction", |b| {
        b.iter(|| {
            i = (i + 1) % archs.len();
            black_box(predictor.predict_us(&archs[i]).unwrap())
        })
    });
    // versus an actual simulated on-device measurement
    let device = DeviceSpec::edge_xavier();
    let nets: Vec<_> = archs
        .iter()
        .map(|a| lower_arch(space.skeleton(), a).unwrap())
        .collect();
    let mut j = 0;
    c.bench_function("fig3_on_device_measurement", |b| {
        b.iter(|| {
            j = (j + 1) % nets.len();
            black_box(device.measure_network(&nets[j], &mut rng))
        })
    });
}

/// Fig. 4: uniform-vs-dynamic scaling comparison at small budget.
fn bench_fig4(c: &mut Criterion) {
    c.bench_function("fig4_uniform_vs_dynamic", |b| {
        b.iter(|| black_box(fig4::run(1, 3, 9)))
    });
}

/// Fig. 5: progressive shrinking.
fn bench_fig5(c: &mut Criterion) {
    c.bench_function("fig5_progressive_shrinking", |b| {
        b.iter(|| black_box(fig5::run(1, 5)))
    });
}

/// Fig. 6: one EA search on the edge device.
fn bench_fig6(c: &mut Criterion) {
    let config = EvolutionConfig {
        generations: 5,
        population: 16,
        parents: 6,
        ..Default::default()
    };
    c.bench_function("fig6_evolutionary_search", |b| {
        b.iter(|| black_box(fig6::run_evolution(1, config)))
    });
}

/// Table I: baseline rows (simulating all 11 baselines on 3 devices).
fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_baseline_rows", |b| {
        b.iter(|| black_box(hsconas::report::baseline_rows()))
    });
    let fast = hsconas::PipelineConfig::fast_test();
    let mut group = c.benchmark_group("table1_full");
    group.sample_size(10);
    group.bench_function("table1_fast_budget", |b| {
        b.iter(|| black_box(table1::run(1, &fast)))
    });
    group.finish();
}

/// Ablations: bias on/off and search strategies.
fn bench_ablations(c: &mut Criterion) {
    c.bench_function("ablation_bias", |b| {
        b.iter(|| black_box(ablation::bias(1, 10)))
    });
    c.bench_function("ablation_search_strategies", |b| {
        b.iter(|| black_box(ablation::search(1, 60)))
    });
}

/// Extensions: energy-constrained search and batch sweep.
fn bench_extensions(c: &mut Criterion) {
    let small = EvolutionConfig {
        generations: 4,
        population: 12,
        parents: 4,
        ..Default::default()
    };
    c.bench_function("extension_energy_search", |b| {
        b.iter(|| black_box(hsconas_bench::extension_energy::run(1, small)))
    });
    c.bench_function("extension_batch_sweep", |b| {
        b.iter(|| black_box(hsconas_bench::extension_batch::run()))
    });
    c.bench_function("ablation_proxy_guidance", |b| {
        b.iter(|| black_box(hsconas_bench::ablation_proxy::run(1, small)))
    });
}

/// Core-kernel micro-benchmarks backing the harness numbers.
fn bench_kernels(c: &mut Criterion) {
    let space = SearchSpace::hsconas_a();
    let mut rng = StdRng::seed_from_u64(3);
    let archs = space.sample_n(64, &mut rng);
    let mut i = 0;
    c.bench_function("space_sample", |b| {
        b.iter(|| black_box(space.sample(&mut rng)))
    });
    c.bench_function("space_arch_cost", |b| {
        b.iter(|| {
            i = (i + 1) % archs.len();
            black_box(hsconas_space::cost::arch_cost(space.skeleton(), &archs[i]).unwrap())
        })
    });
    c.bench_function("hwsim_lower_arch", |b| {
        b.iter(|| {
            i = (i + 1) % archs.len();
            black_box(lower_arch(space.skeleton(), &archs[i]).unwrap())
        })
    });
    let _ = Arch::widest(20);
}

/// GEMM throughput on conv-shaped problems, one group per shape, A/B'd
/// across every kernel variant the host supports (direct, packed scalar,
/// packed AVX2+FMA) under the auto band policy, and for the packed
/// variants at explicit band counts 1/2/4/8 (`_b<bands>`). Each group
/// declares 2·m·k·n elements per call, so its `Gelem/s` reads as GFLOP/s.
fn bench_matmul_tiled(c: &mut Criterion) {
    use hsconas_tensor::kernels::{gemm_ext, selected_variant, GemmTags, Op, Variant};
    let variants: Vec<Variant> = [Variant::Direct, Variant::Scalar, Variant::Avx2]
        .into_iter()
        .filter(|v| v.is_available())
        .collect();
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "matmul: selected variant {}, available_parallelism {host}; elements are FLOPs",
        selected_variant().name()
    );
    // (m, k, n): output-channel panel × im2col rows × output pixels — the
    // shapes the supernet's convolutions lower to, plus one large enough
    // for 8 row bands and several ms of arithmetic.
    for (m, k, n) in [
        (32, 144, 576),
        (128, 256, 128),
        (64, 1024, 256),
        (256, 512, 512),
    ] {
        let mut rng = hsconas_tensor::rng::SmallRng::new(5);
        let a: Vec<f32> = (0..m * k).map(|_| rng.next_f32() - 0.5).collect();
        let b_mat: Vec<f32> = (0..k * n).map(|_| rng.next_f32() - 0.5).collect();
        let mut out = vec![0.0f32; m * n];
        let mut group = c.benchmark_group(&format!("matmul_{m}x{k}x{n}"));
        group.throughput(Throughput::Elements(2 * (m * k * n) as u64));
        for &variant in &variants {
            // Band count 0 is the auto policy `gemm` callers get; the
            // direct loops never fork, so only the packed variants sweep.
            let bands: &[usize] = match variant {
                Variant::Direct => &[0],
                _ => &[0, 1, 2, 4, 8],
            };
            for &threads in bands {
                let name = match threads {
                    0 => variant.name().to_string(),
                    t => format!("{}_b{t}", variant.name()),
                };
                group.bench_function(&name, |bch| {
                    bch.iter(|| {
                        gemm_ext(
                            variant,
                            threads,
                            Op::Ab,
                            black_box(&a),
                            black_box(&b_mat),
                            black_box(&mut out),
                            m,
                            k,
                            n,
                            false,
                            GemmTags::default(),
                        );
                    })
                });
            }
        }
        group.finish();
    }
}

/// Batch-parallel convolution (forward + backward) at 1 worker vs the
/// process default, on a batch big enough to clear the fan-out threshold.
fn bench_conv2d_batch_parallel(c: &mut Criterion) {
    use hsconas_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dParams};
    use hsconas_tensor::Tensor;
    let params = Conv2dParams {
        c_in: 16,
        c_out: 32,
        kernel: 3,
        stride: 1,
        pad: 1,
        groups: 1,
    };
    let mut rng = hsconas_tensor::rng::SmallRng::new(9);
    let input = Tensor::randn([8, 16, 24, 24], 1.0, &mut rng);
    let weight = Tensor::randn(params.weight_shape(), 0.1, &mut rng);
    let out = conv2d_forward(&input, &weight, &params).unwrap();
    let grad_out = Tensor::full(out.shape(), 1.0);
    for (label, threads) in [("1thread", 1usize), ("default", 0usize)] {
        hsconas_par::set_default_threads(threads);
        c.bench_function(&format!("conv2d_fwd_batch8_{label}"), |b| {
            b.iter(|| black_box(conv2d_forward(&input, &weight, &params).unwrap()))
        });
        c.bench_function(&format!("conv2d_bwd_batch8_{label}"), |b| {
            b.iter(|| black_box(conv2d_backward(&input, &weight, &grad_out, &params).unwrap()))
        });
    }
    hsconas_par::set_default_threads(0);
}

/// Depthwise convolution (forward + backward) on the direct depthwise
/// kernels, at the search space's smallest and largest kernel sizes.
fn bench_conv2d_depthwise(c: &mut Criterion) {
    use hsconas_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dParams};
    use hsconas_tensor::Tensor;
    for kernel in [3usize, 7] {
        let params = Conv2dParams {
            c_in: 48,
            c_out: 48,
            kernel,
            stride: 1,
            pad: kernel / 2,
            groups: 48,
        };
        let mut rng = hsconas_tensor::rng::SmallRng::new(10);
        let input = Tensor::randn([16, 48, 16, 16], 1.0, &mut rng);
        let weight = Tensor::randn(params.weight_shape(), 0.1, &mut rng);
        let out = conv2d_forward(&input, &weight, &params).unwrap();
        let grad_out = Tensor::full(out.shape(), 1.0);
        c.bench_function(&format!("conv2d_dw_fwd_k{kernel}_batch16"), |b| {
            b.iter(|| black_box(conv2d_forward(&input, &weight, &params).unwrap()))
        });
        c.bench_function(&format!("conv2d_dw_bwd_k{kernel}_batch16"), |b| {
            b.iter(|| black_box(conv2d_backward(&input, &weight, &grad_out, &params).unwrap()))
        });
    }
}

/// One EA generation's worth of candidate evaluations, serial vs fanned
/// out over the worker pool; elements are archs.
fn bench_ea_generation_parallel(c: &mut Criterion) {
    use hsconas_evo::{Evaluation, EvoError, Objective, ParallelObjective};
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::edge_xavier();
    let score = {
        let space = space.clone();
        move |arch: &Arch| -> Result<Evaluation, EvoError> {
            let net = lower_arch(space.skeleton(), arch).map_err(|e| EvoError::Objective {
                detail: e.to_string(),
            })?;
            let latency_ms = device.network_time_us(&net) / 1000.0;
            let cost =
                hsconas_space::cost::arch_cost(space.skeleton(), arch).map_err(EvoError::Space)?;
            let accuracy = 60.0 + 10.0 * (cost.total_flops() / 1e8).tanh();
            Ok(Evaluation {
                score: accuracy - 20.0 * (latency_ms / 30.0 - 1.0).abs(),
                accuracy,
                latency_ms,
            })
        }
    };
    let mut rng = StdRng::seed_from_u64(13);
    let population = space.sample_n(50, &mut rng);
    let mut group = c.benchmark_group("ea_generation_50archs");
    group.throughput(Throughput::Elements(population.len() as u64));
    for (label, threads) in [("serial", 1usize), ("parallel_default", 0usize)] {
        let mut objective = ParallelObjective::new(score.clone(), threads);
        group.bench_function(label, |b| {
            b.iter(|| black_box(objective.evaluate_batch(&population).unwrap()))
        });
    }
    group.finish();
}

/// Population accuracy-proxy evaluation against the real supernet with the
/// prefix-activation cache off vs on — the memory-planning headline. The
/// population is an EA-generation shape (an elite plus single-gene
/// mutants), evaluated in lexicographic genome order as the evo scheduler
/// would submit it; elements are archs.
fn bench_population_eval_prefix_cache(c: &mut Criterion) {
    use hsconas_data::SyntheticDataset;
    use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
    use hsconas_tensor::rng::SmallRng;

    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 17);
    let mut rng = SmallRng::new(18);
    let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
    let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
    let mut train_rng = SmallRng::new(19);
    trainer
        .train_steps(&space, &data, 10, 0.05, &mut train_rng)
        .unwrap();

    // Elite + 12 single-gene mutants, sorted lexicographically (what
    // MemoObjective's prefix-locality schedule feeds the oracle).
    let mut arch_rng = StdRng::seed_from_u64(20);
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

    let eval_batches = 2;
    let mut group = c.benchmark_group("population_eval");
    group.sample_size(10);
    group.throughput(Throughput::Elements(population.len() as u64));
    for (label, cache) in [("cache_off", false), ("cache_on", true)] {
        trainer.set_prefix_cache_enabled(cache);
        group.bench_function(&format!("population_eval_{label}"), |b| {
            b.iter(|| {
                // Each iteration is an independent population sweep.
                trainer.clear_prefix_cache();
                for arch in &population {
                    black_box(trainer.evaluate(arch, &data, eval_batches).unwrap());
                }
            })
        });
    }
    group.finish();
}

/// The synthetic training batch render, at the trainers' shape (batch 8,
/// 32×32): `batch` (a fresh tensor) and `render_batch` (into a reused
/// buffer, as the double-buffered training loops call it). Elements are
/// images.
fn bench_data_render(c: &mut Criterion) {
    let data = hsconas_data::SyntheticDataset::new(4, 32, 1);
    let mut group = c.benchmark_group("data_render");
    group.throughput(Throughput::Elements(8));
    let mut start = 0u64;
    group.bench_function("batch8_32x32", |b| {
        b.iter(|| {
            start += 8;
            black_box(data.batch(8, start))
        })
    });
    let mut buf = vec![0.0f32; 8 * 3 * 32 * 32];
    group.bench_function("render_batch8_32x32", |b| {
        b.iter(|| {
            start += 8;
            data.render_batch(start, &mut buf);
            black_box(&buf);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_table1,
    bench_ablations,
    bench_extensions,
    bench_kernels,
    bench_matmul_tiled,
    bench_conv2d_batch_parallel,
    bench_conv2d_depthwise,
    bench_ea_generation_parallel,
    bench_population_eval_prefix_cache,
    bench_data_render
);
criterion_main!(benches);
