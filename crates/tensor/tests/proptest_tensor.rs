//! Property tests for the tensor kernels: adjoint identities and shape
//! contracts must hold for arbitrary valid configurations, not just the
//! hand-picked unit-test cases.

use hsconas_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dParams};
use hsconas_tensor::im2col::{col2im, im2col, ConvGeom};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use proptest::prelude::*;

fn conv_params() -> impl Strategy<Value = (Conv2dParams, usize)> {
    (
        1usize..6,                                // input channels
        1usize..6,                                // dense output channels
        prop::bool::ANY,                          // depthwise (c_out = groups = c_in)
        prop::sample::select(vec![1usize, 3, 5]), // kernel
        1usize..3,                                // stride
        5usize..9,                                // spatial size
    )
        .prop_map(|(c_in, c_out, depthwise, kernel, stride, hw)| {
            let (c_out, groups) = if depthwise { (c_in, c_in) } else { (c_out, 1) };
            (
                Conv2dParams {
                    c_in,
                    c_out,
                    kernel,
                    stride,
                    pad: kernel / 2,
                    groups,
                },
                hw,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The im2col/col2im pair satisfies the adjoint identity
    /// `<im2col(x), y> == <x, col2im(y)>` for every geometry.
    #[test]
    fn im2col_adjoint(
        channels in 1usize..4,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        hw in 5usize..10,
        seed in 0u64..500,
    ) {
        let geom = ConvGeom {
            channels,
            in_h: hw,
            in_w: hw,
            kernel,
            stride,
            pad: kernel / 2,
        };
        let mut rng = SmallRng::new(seed);
        let x: Vec<f32> = (0..channels * hw * hw).map(|_| rng.next_normal() as f32).collect();
        let y: Vec<f32> = (0..geom.col_rows() * geom.col_cols())
            .map(|_| rng.next_normal() as f32)
            .collect();
        let mut cx = vec![0.0; y.len()];
        im2col(&x, &geom, &mut cx);
        let lhs: f32 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut xy = vec![0.0; x.len()];
        col2im(&y, &geom, &mut xy);
        let rhs: f32 = x.iter().zip(&xy).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{} vs {}", lhs, rhs);
    }

    /// Convolution is linear in its input:
    /// `conv(a·x) == a·conv(x)` for every parameter combination.
    #[test]
    fn conv_is_linear_in_input((params, hw) in conv_params(), scale in 0.25f32..4.0, seed in 0u64..500) {
        let mut rng = SmallRng::new(seed);
        let x = Tensor::randn([1, params.c_in, hw, hw], 1.0, &mut rng);
        let w = Tensor::randn(params.weight_shape(), 0.5, &mut rng);
        let y1 = conv2d_forward(&x, &w, &params).unwrap();
        let y2 = conv2d_forward(&x.scale(scale), &w, &params).unwrap();
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a * scale - b).abs() < 1e-3 * (a.abs() * scale).max(1.0));
        }
    }

    /// The convolution backward input-gradient is the adjoint of the
    /// forward map: `<conv(x), g> == <x, backward(g).input>`.
    #[test]
    fn conv_backward_is_adjoint((params, hw) in conv_params(), seed in 0u64..500) {
        let mut rng = SmallRng::new(seed);
        let x = Tensor::randn([1, params.c_in, hw, hw], 1.0, &mut rng);
        let w = Tensor::randn(params.weight_shape(), 0.5, &mut rng);
        let y = conv2d_forward(&x, &w, &params).unwrap();
        let g = Tensor::randn(y.shape(), 1.0, &mut rng);
        let grads = conv2d_backward(&x, &w, &g, &params).unwrap();
        let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(grads.input.data()).map(|(a, b)| a * b).sum();
        prop_assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{} vs {}",
            lhs,
            rhs
        );
    }

    /// concat ∘ split is the identity for any split point.
    #[test]
    fn split_concat_roundtrip(c in 2usize..12, split_frac in 0.1f64..0.9, seed in 0u64..500) {
        let mut rng = SmallRng::new(seed);
        let t = Tensor::randn([2, c, 3, 3], 1.0, &mut rng);
        let split = ((c as f64 * split_frac) as usize).clamp(1, c - 1);
        let (a, b) = t.split_channels(split).unwrap();
        let back = Tensor::concat_channels(&[&a, &b]).unwrap();
        prop_assert_eq!(back, t);
    }

    /// channel_shuffle is a permutation: sorted data is preserved and the
    /// inverse recovers the input, for every valid group count.
    #[test]
    fn shuffle_is_permutation(per in 1usize..5, groups in 1usize..5, seed in 0u64..500) {
        let c = per * groups;
        let mut rng = SmallRng::new(seed);
        let t = Tensor::randn([1, c, 2, 2], 1.0, &mut rng);
        let s = t.channel_shuffle(groups).unwrap();
        let mut a: Vec<f32> = t.data().to_vec();
        let mut b: Vec<f32> = s.data().to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert_eq!(a, b);
        prop_assert_eq!(s.channel_unshuffle(groups).unwrap(), t);
    }
}
