//! Row-major matrix-product tests of [`crate::kernels::gemm`].
//!
//! Every dense product in the crate goes through `kernels::gemm`; these
//! tests hold it to naive loops in the plain matrix-multiply conventions
//! — `A·B`, `Aᵀ·B` with `a` stored `k×m`, `A·Bᵀ` with `b` stored `n×k` —
//! through the auto-selected route, so tiny shapes take the direct kernel
//! and larger ones the packed path.

mod tests {
    use crate::kernels::{gemm, GemmTags, Op};
    use crate::rng::SmallRng;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn rand_vec(len: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..len).map(|_| rng.next_normal() as f32).collect()
    }

    /// Untagged `gemm` at `(m, k, n)`.
    fn matmul(op: Op, a: &[f32], b: &[f32], c: &mut [f32], (m, k, n): (usize, usize, usize)) {
        gemm(op, a, b, c, m, k, n, false, GemmTags::default());
    }

    fn assert_close(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (x, y) in got.iter().zip(want) {
            let tol = 1e-3 * (1.0 + y.abs());
            assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = SmallRng::new(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8), (13, 1, 17)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(Op::Ab, &a, &b, &mut c, (m, k, n));
            let want = naive(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_matches_naive_across_tile_boundaries() {
        // Sizes straddling the MR/NR/KC tile edges, including k > KC so
        // multiple k-blocks accumulate into the same c tile.
        let mut rng = SmallRng::new(7);
        for &(m, k, n) in &[
            (4, 8, 8),
            (5, 9, 9),
            (3, 300, 7),
            (6, 257, 24),
            (9, 511, 17),
            (12, 256, 8),
            (40, 300, 96),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(Op::Ab, &a, &b, &mut c, (m, k, n));
            let want = naive(&a, &b, m, k, n);
            assert_close(&format!("({m},{k},{n})"), &c, &want);
        }
    }

    #[test]
    fn matmul_accumulate_adds() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm(Op::Ab, &a, &b, &mut c, 2, 2, 2, true, GemmTags::default());
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn zeroed_rows_do_not_contaminate() {
        // Masked-channel pattern: whole rows of `a` zero. The direct route
        // (tiny shape) and the packed route's zero-panel skip must both
        // leave exactly the nonzero rows' products.
        let mut rng = SmallRng::new(8);
        let packed_masked: Vec<usize> = (0..30).filter(|r| r % 5 != 0 && r % 7 != 2).collect();
        let cases = [
            (10, 40, 12, vec![1, 4, 5, 6, 7, 9]),
            (30, 64, 48, packed_masked),
        ];
        for (m, k, n, masked) in cases {
            let mut a = rand_vec(m * k, &mut rng);
            for &r in &masked {
                a[r * k..(r + 1) * k].fill(0.0);
            }
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(Op::Ab, &a, &b, &mut c, (m, k, n));
            let want = naive(&a, &b, m, k, n);
            for &r in &masked {
                assert!(
                    c[r * n..(r + 1) * n].iter().all(|&v| v == 0.0),
                    "({m},{k},{n}) row {r} not exactly zero"
                );
            }
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn at_b_matches_transposed_naive() {
        let mut rng = SmallRng::new(2);
        for &(k, m, n) in &[
            (6, 4, 5),
            (300, 9, 17),
            (257, 4, 8),
            (64, 13, 31),
            (300, 48, 40),
        ] {
            let a = rand_vec(k * m, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(Op::AtB, &a, &b, &mut c, (m, k, n));
            // transpose a into (m, k) and multiply
            let mut at = vec![0.0; m * k];
            for kk in 0..k {
                for i in 0..m {
                    at[i * k + kk] = a[kk * m + i];
                }
            }
            let want = naive(&at, &b, m, k, n);
            assert_close(&format!("({k},{m},{n})"), &c, &want);
        }
    }

    #[test]
    fn a_bt_matches_transposed_naive() {
        let mut rng = SmallRng::new(3);
        for &(m, k, n) in &[
            (4, 6, 5),
            (7, 300, 9),
            (5, 64, 16),
            (1, 23, 1),
            (48, 300, 40),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(n * k, &mut rng);
            let mut c = vec![0.0; m * n];
            matmul(Op::ABt, &a, &b, &mut c, (m, k, n));
            let mut bt = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    bt[kk * n + j] = b[j * k + kk];
                }
            }
            let want = naive(&a, &bt, m, k, n);
            assert_close(&format!("({m},{k},{n})"), &c, &want);
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        // Same inputs must give bit-identical outputs on repeated calls
        // (the determinism regression suite relies on this).
        let mut rng = SmallRng::new(4);
        let (m, k, n) = (11, 270, 19);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        matmul(Op::Ab, &a, &b, &mut c1, (m, k, n));
        matmul(Op::Ab, &a, &b, &mut c2, (m, k, n));
        assert_eq!(c1, c2);
    }

    #[test]
    fn overwrite_equals_accumulate_onto_zeroed_c() {
        // Overwrite must be bit-identical to accumulating onto a zeroed
        // output — same kernel, same accumulation order — for every op.
        let mut rng = SmallRng::new(12);
        let (m, k, n) = (40, 100, 96);
        for op in [Op::Ab, Op::AtB, Op::ABt] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c1 = vec![7.0; m * n];
            matmul(op, &a, &b, &mut c1, (m, k, n));
            let mut c2 = vec![0.0; m * n];
            gemm(op, &a, &b, &mut c2, m, k, n, true, GemmTags::default());
            for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{op:?}[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_dims_panic() {
        let mut c = vec![0.0; 4];
        matmul(Op::Ab, &[1.0; 3], &[1.0; 4], &mut c, (2, 2, 2));
    }
}
