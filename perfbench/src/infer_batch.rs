//! `infer_batch`: the deploy user. Compiles a seeded set of genomes from
//! `SearchSpace::tiny(10)`, round-trips each artifact through its byte
//! codec, then runs `hsconas_graph::execute` closed-loop at batch 16,
//! round-robin over the genomes.
//!
//! Gate, before any timing: every compiled graph's logits equal the
//! `build_reference` supernet's forward exactly (f32 `==`), and every
//! artifact round trip is byte-identical.

use crate::kernels::KernelSnapshot;
use crate::{stats, trace, Args, Report};
use hsconas_graph::{artifact, build_reference, compile, execute, Artifact, CompileOptions};
use hsconas_space::{Arch, Gene, SearchSpace};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Genomes compiled per run.
const GENOMES: usize = 16;
/// Images per batch: the paper's edge batch and the serving cap.
const BATCH: usize = hsconas_serve::proto::MAX_INFER_BATCH;
/// Classes of the tiny space the genomes come from.
const CLASSES: usize = 10;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPEATS: usize = 5;

/// The seeded genome set. Each layer's operators and channel scales are
/// dealt from a seeded shuffle of the layer's choices repeated, so every
/// seed's set uses each choice equally often (up to one): seeds change
/// which genomes are built, hardly how much work they are.
fn genomes(seed: u64) -> Vec<Arch> {
    let space = SearchSpace::tiny(CLASSES);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dealt = |choices: usize| -> Vec<usize> {
        let mut cards: Vec<usize> = (0..GENOMES).map(|i| i % choices).collect();
        for i in (1..cards.len()).rev() {
            cards.swap(i, rng.gen_range(0..=i));
        }
        cards
    };
    let columns: Vec<(Vec<usize>, Vec<usize>)> = (0..space.num_layers())
        .map(|l| {
            (
                dealt(space.allowed_ops(l).len()),
                dealt(space.allowed_scales(l).len()),
            )
        })
        .collect();
    (0..GENOMES)
        .map(|g| {
            Arch::new(
                columns
                    .iter()
                    .enumerate()
                    .map(|(l, (ops, scales))| {
                        Gene::new(
                            space.allowed_ops(l)[ops[g]],
                            space.allowed_scales(l)[scales[g]],
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Compiles and codec-round-trips every genome; the gate's codec half.
fn build_set(archs: &[Arch]) -> Result<Vec<Artifact>, String> {
    let skeleton = SearchSpace::tiny(CLASSES).skeleton().clone();
    let opts = CompileOptions::default();
    archs
        .iter()
        .map(|arch| {
            let (compiled, _) = {
                let _s = trace::span("graph.compile");
                compile(&skeleton, arch, &opts).map_err(|e| e.to_string())?
            };
            let _s = trace::span("graph.codec");
            let bytes = artifact::to_bytes(&compiled);
            let decoded = artifact::from_bytes(&bytes).map_err(|e| e.to_string())?;
            if artifact::to_bytes(&decoded) != bytes {
                return Err(format!("infer_batch: artifact for {arch} is not byte-identical after a codec round trip"));
            }
            Ok(decoded)
        })
        .collect()
}

/// One seeded input batch per genome.
fn inputs(artifacts: &[Artifact], seed: u64) -> Vec<Tensor> {
    artifacts
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let g = &a.graph;
            let mut rng = SmallRng::new(seed ^ (0x5eed_0000 + i as u64));
            Tensor::randn([BATCH, g.input_c, g.input_h, g.input_w], 1.0, &mut rng)
        })
        .collect()
}

/// The logits gate: compiled graph vs the reference supernet, exactly.
fn check_logits(archs: &[Arch], artifacts: &[Artifact], xs: &[Tensor]) -> Result<(), String> {
    let opts = CompileOptions::default();
    let skeleton = SearchSpace::tiny(CLASSES).skeleton().clone();
    for ((arch, art), x) in archs.iter().zip(artifacts).zip(xs) {
        let mut net = build_reference(&skeleton, arch, opts.seed, opts.warmup_steps)
            .map_err(|e| e.to_string())?;
        let reference = net.forward(x, arch, false).map_err(|e| e.to_string())?;
        let got = execute(&art.graph, x).map_err(|e| e.to_string())?;
        let same = reference.shape() == got.shape()
            && reference.data().iter().zip(got.data()).all(|(a, b)| a == b);
        if !same {
            return Err(format!(
                "infer_batch: compiled logits for {arch} differ from the reference forward"
            ));
        }
    }
    Ok(())
}

/// Closed loop for `duration`: per-batch latencies in ms.
fn closed_loop(
    artifacts: &[Artifact],
    xs: &[Tensor],
    duration: Duration,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while latencies.is_empty() || start.elapsed() < duration {
        let k = i % artifacts.len();
        let t = Instant::now();
        let out = {
            let _s = trace::span("graph.exec");
            execute(&artifacts[k].graph, &xs[k]).map_err(|e| e.to_string())?
        };
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
        i += 1;
    }
    Ok(latencies)
}

/// Times set-up (compile + codec of the whole set) several times, then
/// the closed loop; fills the end-to-end timings.
fn measure(
    report: &mut Report,
    archs: &[Arch],
    xs: &[Tensor],
    duration: Duration,
) -> Result<Vec<Artifact>, String> {
    let mut setups = Vec::new();
    let mut artifacts = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        artifacts = build_set(archs)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let cpu = crate::cpu_seconds(None);
    let start = Instant::now();
    let latencies = closed_loop(&artifacts, xs, duration)?;
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_s = crate::cpu_seconds(None) - cpu;
    let tail = stats::tail(&latencies, 99.0);
    report.note(format!(
        "infer_batch: {} batches of {BATCH} in {elapsed:.3} s, {:.1} images/s, {cpu_s:.3} CPU s; batch p50 {:.3} ms, p{} {:.3} ms over {} samples ({} beyond)",
        latencies.len(),
        (latencies.len() * BATCH) as f64 / elapsed,
        stats::median(&latencies),
        tail.percentile,
        tail.value,
        tail.samples,
        tail.beyond,
    ));
    report.attempted += latencies.len() as u64;
    report.metric("latency_ms", stats::fastest_window_median(&latencies), "ms");
    report.metric("setup_s", stats::median(&setups), "s");
    Ok(artifacts)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let archs = genomes(args.seed);
    let mut report = Report::default();
    // Gate first, untimed: it also warms every lazily built kernel path.
    let artifacts = build_set(&archs)?;
    let xs = inputs(&artifacts, args.seed);
    check_logits(&archs, &artifacts, &xs)?;

    if !args.trace {
        measure(&mut report, &archs, &xs, args.duration())?;
        report.metric("peak_rss_mb", crate::vm_hwm_mb(None), "MB");
        return Ok(report);
    }

    let half = args.duration() / 2;
    let mut untraced = Report::default();
    measure(&mut untraced, &archs, &xs, half)?;
    let before = KernelSnapshot::take();
    let mut traced = Report::default();
    trace::enable();
    let result = {
        let _root = trace::span("infer_batch.run");
        measure(&mut traced, &archs, &xs, half)
    };
    report.spans = trace::take();
    result?;
    let kernels = KernelSnapshot::take().since(&before);
    report.attempted = untraced.attempted + traced.attempted;

    let totals = trace::totals(&report.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let exec = get("graph.exec");
    report.metric("supernet.train.steps", 0.0, "count");
    kernels.report(&mut report);
    report.metric(
        "alloc.per_image",
        exec.allocs as f64 / (exec.count.max(1) as usize * BATCH) as f64,
        "count",
    );
    report.metric(
        "graph.compile.ms_per_call",
        get("graph.compile").mean_ms(),
        "ms",
    );
    report.metric(
        "graph.codec.ms_per_call",
        get("graph.codec").mean_ms(),
        "ms",
    );
    report.metric("graph.exec.ms_per_batch", exec.mean_ms(), "ms");
    report.reconcile("infer_batch.run");
    report.overhead(&untraced, &traced);
    Ok(report)
}
