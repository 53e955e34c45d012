//! Property tests for the memory-planning layer: the activation arena and
//! the prefix-activation cache are pure performance features, so turning
//! either on or off must never change a single bit of any result.

use hsconas_data::SyntheticDataset;
use hsconas_space::SearchSpace;
use hsconas_supernet::{Supernet, SupernetTrainer, TrainConfig};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::{arena, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arena-backed and plain-heap forward/backward are bit-identical for
    /// random architectures (random ops + channel scales) and batch sizes:
    /// the logits and every parameter's gradient.
    #[test]
    fn arena_on_off_forward_backward_bit_identical(
        weight_seed in 0u64..1_000,
        arch_seed in 0u64..1_000,
        batch in 1usize..4,
    ) {
        let space = SearchSpace::tiny(4);
        let arch = space.sample(&mut StdRng::seed_from_u64(arch_seed));
        let run = |pooled: bool| {
            arena::set_enabled(pooled);
            let mut rng = SmallRng::new(weight_seed);
            let mut net = Supernet::build(space.skeleton(), &mut rng).unwrap();
            let x = Tensor::randn([batch, 3, 32, 32], 1.0, &mut rng);
            let y = net.forward(&x, &arch, true).unwrap();
            net.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
            let mut grads = Vec::new();
            net.visit_params(&mut |_, g, _| grads.extend(g.data().iter().map(|v| v.to_bits())));
            (y, grads)
        };
        let (y_pooled, g_pooled) = run(true);
        let (y_plain, g_plain) = run(false);
        arena::set_enabled(true);
        prop_assert_eq!(y_pooled.data(), y_plain.data());
        prop_assert!(g_pooled.iter().any(|&b| b != 0));
        prop_assert_eq!(g_pooled, g_plain);
    }

    /// Subnet evaluation with the prefix-activation cache is bit-identical
    /// to uncached evaluation for random architecture sequences (the cache
    /// resumes the later archs from prefixes of the earlier ones).
    #[test]
    fn prefix_cache_on_off_evaluation_bit_identical(
        weight_seed in 0u64..1_000,
        arch_seed in 0u64..1_000,
        batches in 1usize..3,
    ) {
        let space = SearchSpace::tiny(4);
        let data = SyntheticDataset::new(4, 32, 11);
        let mut rng = SmallRng::new(weight_seed);
        let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
        let mut trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
        let mut arch_rng = StdRng::seed_from_u64(arch_seed);
        let archs = space.sample_n(4, &mut arch_rng);
        let cached: Vec<f64> = archs
            .iter()
            .map(|a| trainer.evaluate(a, &data, batches).unwrap())
            .collect();
        trainer.set_prefix_cache_enabled(false);
        let plain: Vec<f64> = archs
            .iter()
            .map(|a| trainer.evaluate(a, &data, batches).unwrap())
            .collect();
        prop_assert_eq!(cached, plain);
    }
}
