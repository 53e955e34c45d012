//! Crash-safe resume contract: a pipeline interrupted at **any**
//! checkpoint boundary and resumed must be bit-identical to an
//! uninterrupted run — same weights, same RNG streams, same winner — and
//! an EA search checkpointed under one worker-thread count must resume
//! bit-identically under another. Corrupt or mismatched checkpoints must
//! be rejected loudly, never silently reinterpreted.

use std::fs;
use std::path::{Path, PathBuf};

use hsconas::checkpoint::inspect_checkpoint;
use hsconas::{
    run_real_pipeline, run_real_pipeline_checkpointed, run_search_checkpointed, search_for_device,
    search_for_device_checkpointed, CheckpointOptions, PipelineConfig, PipelineError,
    RealPipelineConfig, SearchOutcome,
};
use hsconas_evo::{
    Evaluation, EvoError, EvolutionConfig, EvolutionSearch, MemoObjective, ParallelObjective,
    SearchResult,
};
use hsconas_hwsim::{lower_arch, DeviceSpec};
use hsconas_space::{Arch, SearchSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A scratch checkpoint directory, unique per test, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hsck-resume-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Checkpoint files in a directory, sorted by cursor (the zero-padded
/// filenames make lexical order chronological).
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "hsck"))
        .collect();
    files.sort();
    files
}

/// Copies the first `count` checkpoint files into a fresh directory —
/// simulating a run that was killed right after writing checkpoint
/// `count - 1` (the copied latest file becomes the resume point).
fn copy_prefix(files: &[PathBuf], count: usize, dst: &Path) {
    fs::create_dir_all(dst).expect("create prefix dir");
    for file in &files[..count] {
        let name = file.file_name().expect("file name");
        fs::copy(file, dst.join(name)).expect("copy checkpoint");
    }
}

// ---------------------------------------------------------------------------
// Real-training pipeline: every boundary, bit-identical
// ---------------------------------------------------------------------------

#[test]
fn real_pipeline_resumes_bit_identically_from_every_boundary() {
    let config = RealPipelineConfig::smoke_test();
    let seed = 11;
    let reference = run_real_pipeline(&config, seed).expect("reference run");

    // A fully checkpointed run (keep everything, checkpoint warm training
    // every 16 steps) must agree with the plain run...
    let full = ScratchDir::new("real-full");
    let opts = CheckpointOptions::new(full.path())
        .keep_last(0)
        .train_interval(16);
    let checkpointed =
        run_real_pipeline_checkpointed(&config, seed, Some(&opts)).expect("checkpointed run");
    assert_eq!(checkpointed.best_arch, reference.best_arch);
    assert_eq!(
        checkpointed.from_scratch_accuracy.to_bits(),
        reference.from_scratch_accuracy.to_bits()
    );
    assert_eq!(
        checkpointed.inherited_accuracy.to_bits(),
        reference.inherited_accuracy.to_bits()
    );
    assert_eq!(
        checkpointed.latency_ms.to_bits(),
        reference.latency_ms.to_bits()
    );
    assert_eq!(checkpointed.shrunk_space, reference.shrunk_space);

    // ...and so must a resume from *every* prefix of its checkpoint
    // sequence: mid-warm-training, post-calibration, each shrink stage,
    // each EA generation.
    let files = checkpoint_files(full.path());
    assert!(
        files.len() >= 2 + 1 + config.shrink_stages.len() + config.evolution.generations,
        "expected mid-train + calibration + per-stage + per-generation checkpoints, got {}",
        files.len()
    );
    for count in 1..=files.len() {
        let partial = ScratchDir::new(&format!("real-prefix-{count}"));
        copy_prefix(&files, count, partial.path());
        let opts = CheckpointOptions::new(partial.path())
            .resume(true)
            .keep_last(0)
            .train_interval(16);
        let resumed = run_real_pipeline_checkpointed(&config, seed, Some(&opts))
            .unwrap_or_else(|e| panic!("resume from checkpoint {count}/{}: {e}", files.len()));
        assert_eq!(
            resumed.best_arch, reference.best_arch,
            "winner diverged resuming from checkpoint {count}"
        );
        assert_eq!(
            resumed.from_scratch_accuracy.to_bits(),
            reference.from_scratch_accuracy.to_bits(),
            "final accuracy diverged resuming from checkpoint {count}"
        );
        assert_eq!(
            resumed.inherited_accuracy.to_bits(),
            reference.inherited_accuracy.to_bits(),
            "inherited accuracy diverged resuming from checkpoint {count}"
        );
        assert_eq!(resumed.shrunk_space, reference.shrunk_space);
    }
}

#[test]
fn real_pipeline_refuses_checkpoints_from_a_different_run() {
    let config = RealPipelineConfig::smoke_test();
    let dir = ScratchDir::new("real-mismatch");
    let opts = CheckpointOptions::new(dir.path()).train_interval(16);
    run_real_pipeline_checkpointed(&config, 11, Some(&opts)).expect("seed-11 run");
    // Same directory, different seed: the config hash differs, so resume
    // must refuse rather than continue the wrong experiment.
    let resume = CheckpointOptions::new(dir.path())
        .resume(true)
        .train_interval(16);
    let err = run_real_pipeline_checkpointed(&config, 12, Some(&resume))
        .expect_err("seed mismatch must fail");
    assert!(
        err.to_string().contains("config"),
        "expected a config-hash error, got: {err}"
    );
}

// ---------------------------------------------------------------------------
// Surrogate pipeline: every boundary, bit-identical
// ---------------------------------------------------------------------------

/// Runs the surrogate pipeline for (seed 3, cpu, 24 ms) and returns the
/// outcome with the driving RNG's final state.
fn surrogate_run(opts: Option<&CheckpointOptions>) -> (SearchOutcome, [u64; 4]) {
    let space = SearchSpace::hsconas_a();
    let device = DeviceSpec::cpu_xeon_6136();
    let config = PipelineConfig::fast_test();
    let mut rng = StdRng::seed_from_u64(3);
    let outcome = match opts {
        Some(opts) => {
            search_for_device_checkpointed(space, device, 24.0, &config, &mut rng, Some(opts))
        }
        None => search_for_device(space, device, 24.0, &config, &mut rng),
    }
    .expect("surrogate pipeline");
    (outcome, rng.state())
}

fn assert_same_outcome(
    got: &(SearchOutcome, [u64; 4]),
    want: &(SearchOutcome, [u64; 4]),
    what: &str,
) {
    assert_eq!(got.0.best_arch, want.0.best_arch, "winner diverged: {what}");
    assert_eq!(
        got.0.best.score.to_bits(),
        want.0.best.score.to_bits(),
        "score diverged: {what}"
    );
    assert_eq!(
        got.0.latency_bias_us.to_bits(),
        want.0.latency_bias_us.to_bits(),
        "bias diverged: {what}"
    );
    assert_eq!(
        got.0.evolution, want.0.evolution,
        "EA history diverged: {what}"
    );
    assert_eq!(
        got.0.shrink, want.0.shrink,
        "shrink record diverged: {what}"
    );
    assert_eq!(got.1, want.1, "final RNG state diverged: {what}");
}

#[test]
fn surrogate_pipeline_resumes_bit_identically_from_every_boundary() {
    let reference = surrogate_run(None);

    let full = ScratchDir::new("surrogate-full");
    let opts = CheckpointOptions::new(full.path()).keep_last(0);
    assert_same_outcome(&surrogate_run(Some(&opts)), &reference, "checkpointed run");

    // calibration + one per shrink stage + initial population + one per
    // EA generation
    let config = PipelineConfig::fast_test();
    let files = checkpoint_files(full.path());
    assert_eq!(
        files.len(),
        1 + config.shrink_config.stages.len() + 1 + config.evolution.generations
    );
    for count in 1..=files.len() {
        let partial = ScratchDir::new(&format!("surrogate-prefix-{count}"));
        copy_prefix(&files, count, partial.path());
        let opts = CheckpointOptions::new(partial.path())
            .resume(true)
            .keep_last(0);
        assert_same_outcome(
            &surrogate_run(Some(&opts)),
            &reference,
            &format!("resuming from checkpoint {count}/{}", files.len()),
        );
    }
}

// ---------------------------------------------------------------------------
// EA search: kill/resume across worker-thread counts
// ---------------------------------------------------------------------------

/// Deterministic, `Sync` objective: latency from the noise-free device
/// timing model, accuracy a smooth function of the genome.
fn score(space: &SearchSpace, arch: &Arch) -> Result<Evaluation, EvoError> {
    let device = DeviceSpec::edge_xavier();
    let net = lower_arch(space.skeleton(), arch).map_err(|e| EvoError::Objective {
        detail: e.to_string(),
    })?;
    let latency_ms = device.network_time_us(&net) / 1000.0;
    let accuracy = 60.0 + (arch.fingerprint() % 997) as f64 / 50.0;
    Ok(Evaluation {
        score: accuracy - 20.0 * (latency_ms / 34.0 - 1.0).abs(),
        accuracy,
        latency_ms,
    })
}

fn ea_config() -> EvolutionConfig {
    EvolutionConfig {
        generations: 5,
        population: 16,
        parents: 6,
        ..Default::default()
    }
}

/// Runs the checkpointed EA to completion over `dir` with an explicit
/// worker-thread count.
fn run_ea(dir: &Path, resume: bool, threads: usize, seed: u64) -> SearchResult {
    let space = SearchSpace::hsconas_a();
    let eval_space = space.clone();
    let mut objective = MemoObjective::new(ParallelObjective::new(
        move |arch: &Arch| score(&eval_space, arch),
        threads,
    ));
    let mut search = EvolutionSearch::new(space, ea_config());
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = CheckpointOptions::new(dir).resume(resume).keep_last(0);
    run_search_checkpointed(&mut search, &mut objective, &mut rng, Some(&opts)).expect("search")
}

#[test]
fn ea_search_resumes_bit_identically_across_thread_counts() {
    let full = ScratchDir::new("ea-full");
    let reference = run_ea(full.path(), false, 1, 21);
    let files = checkpoint_files(full.path());
    // init population + one per generation
    assert_eq!(files.len(), ea_config().generations + 1);

    // Kill after every generation; resume under 1 and 8 worker threads.
    // The merged batch order is thread-count invariant, so every resumed
    // history must equal the uninterrupted one bit-for-bit.
    for count in 1..=files.len() {
        for threads in [1, 8] {
            let partial = ScratchDir::new(&format!("ea-prefix-{count}-t{threads}"));
            copy_prefix(&files, count, partial.path());
            let resumed = run_ea(partial.path(), true, threads, 21);
            assert_eq!(
                resumed, reference,
                "EA diverged resuming from checkpoint {count} at {threads} threads"
            );
        }
    }
}

#[test]
fn ea_checkpoint_retention_keeps_last_k() {
    let dir = ScratchDir::new("ea-retention");
    let space = SearchSpace::hsconas_a();
    let eval_space = space.clone();
    let mut objective = MemoObjective::new(ParallelObjective::new(
        move |arch: &Arch| score(&eval_space, arch),
        1,
    ));
    let mut search = EvolutionSearch::new(space, ea_config());
    let mut rng = StdRng::seed_from_u64(3);
    let opts = CheckpointOptions::new(dir.path()).keep_last(2);
    run_search_checkpointed(&mut search, &mut objective, &mut rng, Some(&opts)).expect("search");
    let files = checkpoint_files(dir.path());
    assert_eq!(files.len(), 2, "retention must prune to keep_last");
    // The survivors are the newest: the last two generations.
    let names: Vec<String> = files
        .iter()
        .map(|f| f.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    let last_cursor = ea_config().generations as u64;
    assert!(
        names[1].contains(&format!("{last_cursor:012}")),
        "names: {names:?}"
    );
}

// ---------------------------------------------------------------------------
// Corruption and tamper rejection
// ---------------------------------------------------------------------------

fn corrupt_latest(dir: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
    let files = checkpoint_files(dir);
    let latest = files.last().expect("at least one checkpoint");
    let mut bytes = fs::read(latest).expect("read checkpoint");
    mutate(&mut bytes);
    fs::write(latest, bytes).expect("rewrite checkpoint");
}

fn resume_err_after(dir: &Path, mutate: impl FnOnce(&mut Vec<u8>)) -> PipelineError {
    corrupt_latest(dir, mutate);
    let space = SearchSpace::hsconas_a();
    let eval_space = space.clone();
    let mut objective = MemoObjective::new(ParallelObjective::new(
        move |arch: &Arch| score(&eval_space, arch),
        1,
    ));
    let mut search = EvolutionSearch::new(space, ea_config());
    let mut rng = StdRng::seed_from_u64(21);
    let opts = CheckpointOptions::new(dir).resume(true).keep_last(0);
    run_search_checkpointed(&mut search, &mut objective, &mut rng, Some(&opts))
        .expect_err("corrupt checkpoint must be rejected")
}

#[test]
fn resume_rejects_corrupt_checkpoints() {
    // One reference run re-used for each tamper case (copied per case).
    let master = ScratchDir::new("corrupt-master");
    run_ea(master.path(), false, 1, 21);
    let files = checkpoint_files(master.path());

    // Flipped payload byte -> checksum failure.
    let flipped = ScratchDir::new("corrupt-flip");
    copy_prefix(&files, files.len(), flipped.path());
    let err = resume_err_after(flipped.path(), |bytes| {
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
    });
    assert!(
        err.to_string().contains("checksum"),
        "expected checksum error, got: {err}"
    );

    // Truncated file -> explicit truncation error.
    let truncated = ScratchDir::new("corrupt-trunc");
    copy_prefix(&files, files.len(), truncated.path());
    let err = resume_err_after(truncated.path(), |bytes| {
        bytes.truncate(bytes.len() / 2);
    });
    assert!(
        err.to_string().contains("truncated"),
        "expected truncation error, got: {err}"
    );

    // Foreign magic -> not one of ours.
    let magic = ScratchDir::new("corrupt-magic");
    copy_prefix(&files, files.len(), magic.path());
    let err = resume_err_after(magic.path(), |bytes| {
        bytes[..4].copy_from_slice(b"NOPE");
    });
    assert!(
        err.to_string().contains("magic"),
        "expected bad-magic error, got: {err}"
    );

    // Future format version -> refuse, don't guess.
    let version = ScratchDir::new("corrupt-version");
    copy_prefix(&files, files.len(), version.path());
    let err = resume_err_after(version.path(), |bytes| {
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    });
    assert!(
        err.to_string().contains("version"),
        "expected version error, got: {err}"
    );
}

#[test]
fn inspect_reports_header_and_detects_tampering() {
    let dir = ScratchDir::new("inspect");
    run_ea(dir.path(), false, 1, 21);
    let files = checkpoint_files(dir.path());
    let report = inspect_checkpoint(files.last().unwrap()).expect("inspect");
    assert!(report.contains("HSCK v1"), "report: {report}");
    assert!(report.contains("search"), "report: {report}");
    assert!(report.contains("verified"), "report: {report}");

    corrupt_latest(dir.path(), |bytes| {
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
    });
    let err = inspect_checkpoint(files.last().unwrap()).expect_err("tampered file");
    assert!(err.contains("checksum"), "err: {err}");
}

// ---------------------------------------------------------------------------
// Property: random kill points are always bit-identical
// ---------------------------------------------------------------------------

fn tiny_ea(dir: &Path, resume: bool, seed: u64) -> SearchResult {
    let space = SearchSpace::tiny(8);
    let eval_space = space.clone();
    let mut objective = MemoObjective::new(ParallelObjective::new(
        move |arch: &Arch| score(&eval_space, arch),
        1,
    ));
    let config = EvolutionConfig {
        generations: 4,
        population: 8,
        parents: 3,
        ..Default::default()
    };
    let mut search = EvolutionSearch::new(space, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = CheckpointOptions::new(dir).resume(resume).keep_last(0);
    run_search_checkpointed(&mut search, &mut objective, &mut rng, Some(&opts)).expect("search")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and any kill point, resuming reproduces the
    /// uninterrupted result bit-for-bit.
    #[test]
    fn random_kill_points_resume_bit_identically(seed in 0u64..1000, kill in 1usize..=5) {
        let full = ScratchDir::new(&format!("prop-full-{seed}-{kill}"));
        let reference = tiny_ea(full.path(), false, seed);
        let files = checkpoint_files(full.path());
        let count = kill.min(files.len());
        let partial = ScratchDir::new(&format!("prop-prefix-{seed}-{kill}"));
        copy_prefix(&files, count, partial.path());
        let resumed = tiny_ea(partial.path(), true, seed);
        prop_assert_eq!(resumed, reference);
    }
}
