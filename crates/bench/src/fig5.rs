//! Fig. 5 reproduction: the progressive space-shrinking pipeline — the
//! initial space `A`, the first shrink `A_ss^1st` (layers 20→17), and the
//! second shrink `A_ss^2nd` (layers 16→13), each stage cutting the space
//! size by roughly three orders of magnitude while evaluating only
//! `5 × 4` subspaces instead of `5⁴`.

use hsconas::{CheckpointOptions, Checkpointer};
use hsconas_accuracy::{AccuracyModel, SurrogateAccuracy};
use hsconas_ckpt::{fnv1a, Phase};
use hsconas_evo::TradeoffObjective;
use hsconas_hwsim::DeviceSpec;
use hsconas_shrink::{ShrinkConfig, ShrinkResult};
use hsconas_space::{Arch, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Fig. 5 result: the shrink record plus the space-size trajectory.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// `log10 |A|` of the initial space.
    pub initial_log10: f64,
    /// The shrink record (stages, per-layer decisions, sizes).
    pub shrink: ShrinkResult,
    /// Subspaces evaluated by the progressive method (`5 × 4` per stage).
    pub subspaces_evaluated: usize,
    /// Subspaces a joint four-layer evaluation would need (`5⁴` per stage).
    pub subspaces_joint: usize,
}

/// Runs progressive shrinking on the edge device with the paper's
/// schedule; `samples_per_subspace` tunes runtime (paper: 100).
pub fn run(seed: u64, samples_per_subspace: usize) -> Fig5Result {
    run_checkpointed(seed, samples_per_subspace, None)
}

/// [`run`] with optional crash-safe checkpointing: a checkpoint lands
/// after calibration and after every completed shrinking stage; with
/// `resume` set the trajectory continues from the latest one
/// bit-identically (the restricted space is rebuilt by replaying the
/// checkpointed per-layer decisions and the RNG stream is restored).
pub fn run_checkpointed(
    seed: u64,
    samples_per_subspace: usize,
    ckpt: Option<&CheckpointOptions>,
) -> Fig5Result {
    let space = SearchSpace::hsconas_a();
    let oracle = SurrogateAccuracy::new(space.skeleton().clone());
    let mut rng = StdRng::seed_from_u64(seed);
    // The space/device/schedule are fixed in code, so the config hash
    // only needs the two free knobs.
    let config_hash = fnv1a(format!("fig5-v1:{samples_per_subspace}:{seed}").as_bytes());
    let mut boundaries =
        Checkpointer::open(ckpt, Phase::Shrink, || Ok(config_hash)).expect("open checkpoints");
    let predictor = boundaries
        .calibrate(DeviceSpec::edge_xavier(), &space, 40, 3, &mut rng, None)
        .expect("calibration");
    let mut objective = TradeoffObjective::new(
        move |arch: &Arch| oracle.accuracy(arch).map_err(|e| e.to_string()),
        move |arch: &Arch| predictor.predict_ms(arch).map_err(|e| e.to_string()),
        34.0,
        -20.0,
    );
    let config = ShrinkConfig {
        samples_per_subspace,
        ..Default::default()
    };
    let initial_log10 = space.log10_size();
    let shrink = boundaries
        .shrink(
            space,
            &config,
            &mut objective,
            &mut rng,
            |_, _, _| Ok(()),
            |_| None,
        )
        .expect("shrinking");
    let per_stage_layers = config.stages.iter().map(|s| s.len()).collect::<Vec<_>>();
    let subspaces_evaluated = per_stage_layers.iter().map(|l| 5 * l).sum();
    let subspaces_joint = per_stage_layers.iter().map(|l| 5usize.pow(*l as u32)).sum();
    Fig5Result {
        initial_log10,
        shrink,
        subspaces_evaluated,
        subspaces_joint,
    }
}

/// Renders the shrink trajectory and per-layer decisions.
pub fn render(result: &Fig5Result) -> String {
    let mut out = String::new();
    out.push_str("Fig. 5 — progressive space shrinking\n");
    out.push_str(&format!(
        "initial space      : 10^{:.2} architectures\n",
        result.initial_log10
    ));
    for stage in &result.shrink.stages {
        out.push_str(&format!(
            "after stage {} (A_ss^{}): 10^{:.2}  (-{:.2} orders)\n",
            stage.stage + 1,
            if stage.stage == 0 { "1st" } else { "2nd" },
            stage.log10_size_after,
            stage.orders_removed()
        ));
        for d in &stage.decisions {
            let quality_list = d
                .qualities
                .iter()
                .map(|(op, q)| format!("{op}:{q:.2}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "  layer {:>2} -> {:<12} ({quality_list})\n",
                d.layer + 1,
                d.chosen.to_string()
            ));
        }
    }
    out.push_str(&format!(
        "subspace evaluations: {} (progressive) vs {} (joint per-stage)\n",
        result.subspaces_evaluated, result.subspaces_joint
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_stage_removes_about_three_orders() {
        let result = run(1, 15);
        assert_eq!(result.shrink.stages.len(), 2);
        for stage in &result.shrink.stages {
            let orders = stage.orders_removed();
            assert!(
                (2.5..=3.0).contains(&orders),
                "stage {} removed {orders} orders (expected ~2.8)",
                stage.stage
            );
        }
    }

    #[test]
    fn evaluation_count_matches_paper_complexity_claim() {
        let result = run(2, 5);
        assert_eq!(result.subspaces_evaluated, 2 * 5 * 4);
        assert_eq!(result.subspaces_joint, 2 * 625);
    }

    #[test]
    fn final_space_has_eight_fixed_layers() {
        let result = run(3, 10);
        assert_eq!(result.shrink.space.fixed_layers().len(), 8);
        // layers 12..=19 fixed (the paper's 13th..20th)
        for l in 12..20 {
            assert_eq!(result.shrink.space.allowed_ops(l).len(), 1, "layer {l}");
        }
        for l in 0..12 {
            assert_eq!(result.shrink.space.allowed_ops(l).len(), 5, "layer {l}");
        }
    }

    /// Checkpoint files in `dir`, oldest first (the zero-padded cursor in
    /// each name makes lexical order chronological).
    fn checkpoint_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("checkpoint dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "hsck"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn run_checkpointed_resumes_bit_identically_from_every_boundary() {
        let samples = 3;
        let reference = run(5, samples);
        let root = std::env::temp_dir().join(format!("fig5-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let full = root.join("full");
        let opts = CheckpointOptions::new(&full).keep_last(0);
        let checkpointed = run_checkpointed(5, samples, Some(&opts));
        assert_eq!(checkpointed.shrink, reference.shrink);

        // calibration + one per shrink stage
        let files = checkpoint_files(&full);
        assert_eq!(files.len(), 1 + reference.shrink.stages.len());
        for count in 1..=files.len() {
            let partial = root.join(format!("prefix-{count}"));
            std::fs::create_dir_all(&partial).expect("prefix dir");
            for file in &files[..count] {
                std::fs::copy(file, partial.join(file.file_name().expect("name")))
                    .expect("copy checkpoint");
            }
            let opts = CheckpointOptions::new(&partial).resume(true).keep_last(0);
            let resumed = run_checkpointed(5, samples, Some(&opts));
            assert_eq!(
                resumed.shrink, reference.shrink,
                "shrink diverged resuming from checkpoint {count}"
            );
            assert_eq!(
                resumed.initial_log10.to_bits(),
                reference.initial_log10.to_bits()
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn render_shows_trajectory() {
        let text = render(&run(4, 5));
        assert!(text.contains("A_ss^1st"));
        assert!(text.contains("A_ss^2nd"));
        assert!(text.contains("subspace evaluations"));
    }
}
