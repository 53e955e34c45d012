//! Property tests for the fleet router's consistent-hash ring: the
//! stability guarantees the fleet's bit-identity contract rests on must
//! hold for arbitrary fleet sizes, vnode counts, and keys — not just the
//! handful exercised by the unit tests.

use hsconas_ckpt::fnv1a;
use hsconas_serve::router::{arch_route_key, device_target_key, HashRing, VNODES_PER_SHARD};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same key, same ring parameters → same shard, across independent
    /// ring rebuilds (the "router restart" case). Ring placement must be
    /// a pure function of `(shards, vnodes)`.
    #[test]
    fn same_key_same_shard_across_restarts(
        shards in 1usize..12,
        vnodes in 1usize..128,
        key in 0u64..u64::MAX,
    ) {
        let a = HashRing::new(shards, vnodes);
        let b = HashRing::new(shards, vnodes);
        prop_assert_eq!(a.shard_for(key), b.shard_for(key));
        prop_assert!(a.shard_for(key) < shards);
    }

    /// Growing the fleet by one shard only ever moves keys TO the new
    /// shard — never between surviving shards — and moves roughly 1/(N+1)
    /// of them. This is what makes fleet resizes cheap: a key that stays
    /// keeps its shard's warm caches.
    #[test]
    fn adding_a_shard_moves_only_about_one_over_n_keys(
        shards in 1usize..10,
        key_seed in 0u64..u64::MAX,
    ) {
        let before = HashRing::new(shards, VNODES_PER_SHARD);
        let after = HashRing::new(shards + 1, VNODES_PER_SHARD);
        let keys = 4_096u64;
        let mut moved = 0usize;
        for i in 0..keys {
            let key = fnv1a(&(key_seed ^ i).to_le_bytes());
            let (was, now) = (before.shard_for(key), after.shard_for(key));
            if was != now {
                prop_assert_eq!(now, shards, "keys may only move to the new shard");
                moved += 1;
            }
        }
        let expected = keys as f64 / (shards + 1) as f64;
        let ratio = moved as f64 / expected;
        prop_assert!(
            (0.3..3.0).contains(&ratio),
            "moved {} keys, expected about {:.0}",
            moved,
            expected
        );
    }

    /// Routing keys are total functions: any device string and finite
    /// positive target produce a key, aliases canonicalize, and the key
    /// separates devices from targets (no accidental collisions between
    /// the fields).
    #[test]
    fn device_target_keys_are_stable_and_alias_insensitive(
        target in 0.1f64..10_000.0,
        junk in 0u64..1_000_000,
    ) {
        let junk_device = format!("dev-{junk}");
        for (alias, canonical) in [
            ("gpu", "gpu-gv100"),
            ("cpu", "cpu-xeon-6136"),
            ("edge", "edge-xavier"),
        ] {
            prop_assert_eq!(
                device_target_key(alias, target),
                device_target_key(canonical, target)
            );
        }
        // Unknown devices still route deterministically (the owning shard
        // answers the 404 so error bytes match single-daemon behavior).
        prop_assert_eq!(
            device_target_key(&junk_device, target),
            device_target_key(&junk_device, target)
        );
    }

    /// Infer routing is a pure function of the genome.
    #[test]
    fn arch_keys_depend_only_on_the_genome(
        arch in prop::collection::vec(0usize..10, 1..40),
    ) {
        prop_assert_eq!(arch_route_key(&arch), arch_route_key(&arch));
        let mut longer = arch.clone();
        longer.push(0);
        prop_assert_ne!(arch_route_key(&arch), arch_route_key(&longer));
    }
}
