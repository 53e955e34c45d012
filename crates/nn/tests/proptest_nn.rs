//! Property tests for the nn layer zoo: shape contracts and gradient
//! plumbing must hold for arbitrary valid configurations.

use hsconas_nn::{BatchNorm2d, Conv2d, Layer, Linear, Relu, ShuffleUnit, ShuffleUnitKind};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conv2d output shape follows the convolution arithmetic, and the
    /// backward pass returns a gradient of the input's shape.
    #[test]
    fn conv_shape_contract(
        c_in in 1usize..6,
        c_out in 1usize..6,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        hw in 4usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::new(seed);
        let pad = kernel / 2;
        let mut conv = Conv2d::new(c_in, c_out, kernel, stride, pad, 1, &mut rng);
        let x = Tensor::randn([2, c_in, hw, hw], 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        let expect = (hw + 2 * pad - kernel) / stride + 1;
        prop_assert_eq!(y.shape().to_vec(), vec![2, c_out, expect, expect]);
        let g = conv.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
        prop_assert_eq!(g.shape(), x.shape());
    }

    /// Batch-norm training output always has near-zero channel means.
    #[test]
    fn batchnorm_normalizes_any_input(
        channels in 1usize..5,
        hw in 2usize..8,
        shift in -10.0f32..10.0,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::new(seed);
        let mut bn = BatchNorm2d::new(channels);
        let x = Tensor::randn([4, channels, hw, hw], 2.0, &mut rng).map(|v| v + shift);
        let y = bn.forward(&x, true).unwrap();
        let s = y.shape();
        for c in 0..channels {
            let mut sum = 0.0f32;
            for n in 0..s.n {
                for h in 0..s.h {
                    for w in 0..s.w {
                        sum += y.at(n, c, h, w);
                    }
                }
            }
            let mean = sum / (s.n * s.h * s.w) as f32;
            prop_assert!(mean.abs() < 1e-2, "channel {} mean {}", c, mean);
        }
    }

    /// ReLU forward is idempotent and non-negative.
    #[test]
    fn relu_idempotent(seed in 0u64..1000, len in 1usize..64) {
        let mut rng = SmallRng::new(seed);
        let x = Tensor::randn([1, 1, 1, len], 3.0, &mut rng);
        let mut relu = Relu::new();
        let once = relu.forward(&x, false).unwrap();
        let twice = relu.forward(&once, false).unwrap();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
    }

    /// Every ShuffleUnit variant preserves the stride-1 shape contract
    /// and halves resolution at stride 2, for arbitrary even widths.
    #[test]
    fn shuffle_unit_shape_contract(
        half_c in 2usize..8,
        hw in prop::sample::select(vec![4usize, 6, 8]),
        kind_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let c = half_c * 2;
        let kind = [
            ShuffleUnitKind::Standard { kernel: 3 },
            ShuffleUnitKind::Standard { kernel: 5 },
            ShuffleUnitKind::Standard { kernel: 7 },
            ShuffleUnitKind::Xception,
        ][kind_idx];
        let mut rng = SmallRng::new(seed);
        let x = Tensor::randn([1, c, hw, hw], 1.0, &mut rng);
        let mut s1 = ShuffleUnit::new(kind, c, c, 1, &mut rng).unwrap();
        prop_assert_eq!(s1.forward(&x, false).unwrap().shape().to_vec(), vec![1, c, hw, hw]);
        let mut s2 = ShuffleUnit::new(kind, c, 2 * c, 2, &mut rng).unwrap();
        prop_assert_eq!(
            s2.forward(&x, false).unwrap().shape().to_vec(),
            vec![1, 2 * c, hw / 2, hw / 2]
        );
    }

    /// Linear layers satisfy the additivity property
    /// `f(x + y) - f(0) == (f(x) - f(0)) + (f(y) - f(0))`.
    #[test]
    fn linear_is_affine(seed in 0u64..1000, features in 1usize..8) {
        let mut rng = SmallRng::new(seed);
        let mut fc = Linear::new(features, 3, &mut rng);
        let x = Tensor::randn([1, features, 1, 1], 1.0, &mut rng);
        let y = Tensor::randn([1, features, 1, 1], 1.0, &mut rng);
        let zero = Tensor::zeros([1, features, 1, 1]);
        let f = |fc: &mut Linear, v: &Tensor| fc.forward(v, false).unwrap();
        let f0 = f(&mut fc, &zero);
        let sum_input = x.add(&y).unwrap();
        let lhs = f(&mut fc, &sum_input);
        for i in 0..3 {
            let expect = f(&mut fc, &x).data()[i] + f(&mut fc, &y).data()[i] - f0.data()[i];
            prop_assert!((lhs.data()[i] - expect).abs() < 1e-3);
        }
    }
}
