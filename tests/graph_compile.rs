//! Property tests for the graph compile → infer pipeline (DESIGN.md §12):
//! for *random* genomes, executing the compiled (optimized, specialized)
//! graph is bit-identical to the masked supernet forward — at thread
//! counts 1, 2, 3 (ragged batch shards) and 8, at every batch size up to
//! the serving cap, and under whatever `HSCONAS_KERNEL` variant this
//! process latched (the CI matrix re-runs this binary per variant). The
//! serialized artifact must round-trip to the same bits as well.

use hsconas_graph::{artifact, build_reference, compare_against, compile, execute, CompileOptions};
use hsconas_space::{Arch, ChannelScale, Gene, NetworkSkeleton, OpKind, SearchSpace};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use proptest::prelude::*;

/// Small skeleton with both stride-1 and stride-2 searchable slots, so
/// random genomes exercise every specialization path (slice narrowing,
/// branch collapse, downsample-skip adaptation, grouped-conv padding).
fn skeleton() -> NetworkSkeleton {
    NetworkSkeleton {
        input_resolution: 16,
        input_channels: 3,
        stem_channels: 8,
        stage_channels: [16, 32, 32, 32],
        stage_depths: [2, 2, 0, 0],
        head_channels: 64,
        num_classes: 10,
    }
}

fn arch_strategy(layers: usize) -> impl Strategy<Value = Arch> {
    proptest::collection::vec((0usize..OpKind::ALL.len(), 1u8..=10u8), layers).prop_map(|genes| {
        Arch::new(
            genes
                .into_iter()
                .map(|(op, tenths)| {
                    Gene::new(
                        OpKind::from_index(op).expect("index in range"),
                        ChannelScale::from_tenths(tenths).expect("tenths in range"),
                    )
                })
                .collect(),
        )
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    // Each case compiles two supernets and runs a dozen forwards on each;
    // keep the case count modest so the suite stays inside tier-1 time
    // budgets.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two skeletons: the small one above, and `tiny(64)`, whose head
    /// product (16×128×64 at batch 16) is packed-class for the whole
    /// batch but direct-class for a 2-image shard — so a shard computes
    /// the same logits only because the head is pinned to the batch shape.
    #[test]
    fn compiled_graph_is_bit_identical_across_threads(
        arch in arch_strategy(4),
        input_seed in 0u64..1000,
        batch in 1usize..=16,
    ) {
        for (name, sk) in [("small", skeleton()), ("tiny(64)", SearchSpace::tiny(64).skeleton().clone())] {
            let opts = CompileOptions::default();
            let (art, _) = compile(&sk, &arch, &opts).expect("compile");
            let mut net =
                build_reference(&sk, &arch, opts.seed, opts.warmup_steps).expect("reference");
            let mut rng = SmallRng::new(input_seed);
            let res = sk.input_resolution;
            let x = Tensor::randn([batch, sk.input_channels, res, res], 1.0, &mut rng);

            // Round-trip through the serialized artifact before executing:
            // the loaded graph must carry the exact same constants and
            // structure.
            let loaded = artifact::from_bytes(&artifact::to_bytes(&art)).expect("round-trip");
            prop_assert_eq!(&art.graph, &loaded.graph);

            let mut outputs: Vec<Vec<u32>> = Vec::new();
            for threads in [1usize, 2, 3, 8] {
                hsconas_par::set_default_threads(threads);
                outputs.push(bits(&net.forward(&x, &arch, false).expect("reference forward")));
                outputs.push(bits(&execute(&art.graph, &x).expect("graph execute")));
                outputs.push(bits(&execute(&loaded.graph, &x).expect("loaded execute")));
                // Every checkpoint of the traced run, logits included,
                // against the reference forward's boundary activations.
                let report =
                    compare_against(&loaded, &mut net, &arch, &x).expect("traced compare");
                prop_assert_eq!(
                    report.max_abs_err, 0.0,
                    "a checkpoint diverged for genome {} on the {} skeleton at {} threads, batch {}",
                    &arch, name, threads, batch
                );
            }
            hsconas_par::set_default_threads(0);
            let first = &outputs[0];
            for (i, out) in outputs.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    first, out,
                    "output {} diverged for genome {} on the {} skeleton at batch {} (3t = \
                     reference at the t-th thread count, 3t+1/3t+2 = graph/loaded graph)",
                    i, &arch, name, batch
                );
            }
        }
    }
}
