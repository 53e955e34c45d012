//! The depthwise dispatch counter counts convolution calls, not channel
//! planes, and depthwise convolutions dispatch no GEMM. Kept in its own
//! test binary so no concurrently running test bumps the process-wide
//! counters between the two snapshots.

use hsconas_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dParams};
use hsconas_tensor::kernels::dispatch_counts;
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

#[test]
fn one_forward_and_one_backward_count_two_depthwise_calls() {
    let p = Conv2dParams {
        c_in: 6,
        c_out: 6,
        kernel: 3,
        stride: 1,
        pad: 1,
        groups: 6,
    };
    let mut rng = SmallRng::new(4);
    let x = Tensor::randn([2, 6, 5, 5], 1.0, &mut rng);
    let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);

    let before = dispatch_counts();
    let y = conv2d_forward(&x, &w, &p).unwrap();
    conv2d_backward(&x, &w, &y, &p).unwrap();
    let after = dispatch_counts();

    assert_eq!(after.depthwise - before.depthwise, 2);
    assert_eq!(after.direct, before.direct);
    assert_eq!(after.scalar, before.scalar);
    assert_eq!(after.avx2, before.avx2);
}
