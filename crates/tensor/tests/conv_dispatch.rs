//! GEMM dispatch counts per convolution route. Kept in their own test
//! binary so no test elsewhere bumps the process-wide counters between two
//! snapshots; the tests here take one lock for the same reason.
//!
//! The depthwise dispatch counter counts convolution calls, not channel
//! planes, and depthwise convolutions dispatch no GEMM. A pointwise
//! convolution on a plane narrower than one register tile folds the batch
//! into one forward GEMM and one input-gradient GEMM; its weight gradient
//! and every wider plane still run one GEMM per image.

use std::sync::Mutex;

use hsconas_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dParams};
use hsconas_tensor::kernels::{dispatch_counts, DispatchCounts};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

static COUNTERS: Mutex<()> = Mutex::new(());

/// Dispatch-count deltas of one forward and of one backward call.
fn dispatches(p: &Conv2dParams, input: [usize; 4]) -> (DispatchCounts, DispatchCounts) {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SmallRng::new(4);
    let x = Tensor::randn(input, 1.0, &mut rng);
    let w = Tensor::randn(p.weight_shape(), 0.5, &mut rng);
    let before = dispatch_counts();
    let y = conv2d_forward(&x, &w, p).unwrap();
    let mid = dispatch_counts();
    conv2d_backward(&x, &w, &y, p).unwrap();
    let after = dispatch_counts();
    (delta(&before, &mid), delta(&mid, &after))
}

fn delta(a: &DispatchCounts, b: &DispatchCounts) -> DispatchCounts {
    DispatchCounts {
        direct: b.direct - a.direct,
        scalar: b.scalar - a.scalar,
        avx2: b.avx2 - a.avx2,
        depthwise: b.depthwise - a.depthwise,
    }
}

fn pointwise(c_in: usize, c_out: usize) -> Conv2dParams {
    Conv2dParams {
        c_in,
        c_out,
        kernel: 1,
        stride: 1,
        pad: 0,
        groups: 1,
    }
}

/// Direct GEMM dispatches, asserting nothing else ran.
fn direct_only(d: DispatchCounts) -> u64 {
    assert_eq!((d.scalar, d.avx2, d.depthwise), (0, 0, 0), "{d:?}");
    d.direct
}

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
    let (fwd, bwd) = dispatches(&p, [2, 6, 5, 5]);
    assert_eq!(fwd.depthwise + bwd.depthwise, 2);
    assert_eq!(fwd.direct + bwd.direct, 0);
    assert_eq!(fwd.scalar + bwd.scalar, 0);
    assert_eq!(fwd.avx2 + bwd.avx2, 0);
}

#[test]
fn pointwise_on_a_narrow_plane_folds_the_batch_into_one_gemm() {
    let (fwd, bwd) = dispatches(&pointwise(64, 64), [8, 64, 2, 2]);
    assert_eq!(direct_only(fwd), 1, "forward: one folded W·X");
    assert_eq!(
        direct_only(bwd),
        8 + 1,
        "backward: dW per image, one folded dIn"
    );
}

#[test]
fn pointwise_on_a_wide_plane_runs_one_gemm_per_image() {
    let (fwd, bwd) = dispatches(&pointwise(16, 16), [8, 16, 4, 4]);
    assert_eq!(direct_only(fwd), 8);
    assert_eq!(direct_only(bwd), 8 + 8);
}
