//! Integration of the real-training substrate: tensor kernels → nn layers
//! → supernet training → inherited-weight evaluation → evolutionary
//! search, on the tiny space and synthetic dataset.

use hsconas_accuracy::AccuracyModel;
use hsconas_data::SyntheticDataset;
use hsconas_evo::{EvolutionConfig, EvolutionSearch, TradeoffObjective};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::LatencyPredictor;
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig, TrainedAccuracy};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn supernet_one_shot_training_transfers_to_subnets() {
    // Train with single-path sampling across the whole tiny space; the
    // widest subnet must end up above chance with inherited weights.
    // 800 steps leaves margin across RNG streams: at 400 the full-width
    // channels (trained only when the widest scale is sampled) can still
    // sit at chance for unlucky path sequences.
    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 31);
    let mut rng = SmallRng::new(32);
    let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
    let mut trainer = SupernetTrainer::new(
        net,
        TrainConfig {
            steps: 800,
            batch_size: 8,
            base_lr: 0.08,
            warmup_steps: 10,
            augment_pad: 0,
        },
    );
    trainer.train(&space, &data, &mut rng).unwrap();
    let acc = trainer.evaluate(&Arch::widest(4), &data, 4).unwrap();
    assert!(
        acc > 0.35,
        "inherited-weight accuracy {acc} near chance (0.25)"
    );
}

#[test]
fn end_to_end_search_with_trained_oracle() {
    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 41);
    let mut rng = SmallRng::new(42);
    let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
    let mut trainer = SupernetTrainer::new(
        net,
        TrainConfig {
            steps: 120,
            batch_size: 8,
            base_lr: 0.08,
            warmup_steps: 8,
            augment_pad: 0,
        },
    );
    trainer.train(&space, &data, &mut rng).unwrap();
    let oracle = TrainedAccuracy::new(trainer, data, 2);

    let mut search_rng = StdRng::seed_from_u64(43);
    let predictor =
        LatencyPredictor::calibrate(DeviceSpec::edge_xavier(), &space, 10, 2, &mut search_rng)
            .unwrap();
    let mut objective = TradeoffObjective::new(
        move |arch: &Arch| oracle.accuracy(arch).map_err(|e| e.to_string()),
        move |arch: &Arch| predictor.predict_ms(arch).map_err(|e| e.to_string()),
        20.0,
        -20.0,
    );
    let config = EvolutionConfig {
        generations: 3,
        population: 8,
        parents: 3,
        ..Default::default()
    };
    let result = EvolutionSearch::new(space.clone(), config)
        .run(&mut objective, &mut search_rng)
        .unwrap();
    assert!(space.contains(&result.best_arch));
    assert!(result.best_evaluation.accuracy >= 25.0 - 1e-9); // at least chance-level
    assert!(result.best_evaluation.latency_ms > 0.0);
}

/// End-to-end observability acceptance: a real pipeline run streamed to a
/// JSONL telemetry log must decode into a run report covering every phase
/// — supernet training, latency calibration, shrink stages, and EA
/// generations — exactly what `hsconas report` shows.
#[cfg(feature = "telemetry")]
#[test]
fn real_pipeline_jsonl_log_renders_full_phase_report() {
    use hsconas::real_pipeline::{run_real_pipeline, RealPipelineConfig};

    let path = std::env::temp_dir().join(format!(
        "hsconas-telemetry-test-{}.jsonl",
        std::process::id()
    ));
    {
        let _guard = hsconas_telemetry::init_jsonl(&path).unwrap();
        run_real_pipeline(&RealPipelineConfig::smoke_test(), 5).unwrap();
    } // guard drop flushes metrics and closes the log

    let text = std::fs::read_to_string(&path).unwrap();
    let report = hsconas_telemetry::RunReport::from_jsonl(&text).unwrap();
    std::fs::remove_file(&path).ok();

    let paths: Vec<&str> = report.span_aggs.iter().map(|a| a.path.as_str()).collect();
    for phase in [
        "pipeline.train",
        "pipeline.calibrate",
        "pipeline.shrink",
        "pipeline.search",
        "pipeline.final_train",
    ] {
        assert!(paths.contains(&phase), "missing phase {phase} in {paths:?}");
    }
    // Sub-spans roll up under their phase.
    assert!(paths.contains(&"pipeline.calibrate/latency.calibrate"));
    assert!(paths.contains(&"pipeline.shrink/shrink.stage"));
    assert!(paths.contains(&"pipeline.search/ea.search/ea.generation"));
    // Decoded pipeline-specific rows and flushed metrics made it through.
    assert!(!report.generations.is_empty(), "EA generation rows decoded");
    assert!(!report.stages.is_empty(), "shrink stage rows decoded");
    assert!(
        report.gauges.iter().any(|(k, _)| k == "latency.bias_us"),
        "calibration gauge flushed"
    );

    let rendered = report.render();
    for section in [
        "-- phases --",
        "-- EA generations --",
        "-- shrink stages --",
    ] {
        assert!(rendered.contains(section), "report lacks {section}");
    }
}

#[test]
fn fine_tuning_in_shrunk_space_does_not_break_inherited_eval() {
    // train → restrict the last layer → fine-tune → evaluate an arch from
    // the shrunk space; exercises the §III-C fine-tuning path.
    let space = SearchSpace::tiny(4);
    let data = SyntheticDataset::new(4, 32, 51);
    let mut rng = SmallRng::new(52);
    let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
    let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
    trainer
        .train_steps(&space, &data, 20, 0.05, &mut rng)
        .unwrap();
    let shrunk = space
        .restrict_op(3, hsconas_space::OpKind::Shuffle3)
        .unwrap();
    trainer
        .train_steps(&shrunk, &data, 10, 0.01, &mut rng)
        .unwrap();
    let mut arch_rng = StdRng::seed_from_u64(53);
    let arch = shrunk.sample(&mut arch_rng);
    let acc = trainer.evaluate(&arch, &data, 2).unwrap();
    assert!((0.0..=1.0).contains(&acc));
}
