//! Pooling kernels: global average pooling and square average pooling,
//! each with its backward pass.

use crate::{Shape4, Tensor, TensorError};

/// Global average pooling: `[n, c, h, w] -> [n, c, 1, 1]`.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let s = input.shape();
    let mut out = Tensor::zeros([s.n, s.c, 1, 1]);
    let plane = (s.h * s.w) as f32;
    for n in 0..s.n {
        for c in 0..s.c {
            let mut acc = 0.0;
            for h in 0..s.h {
                for w in 0..s.w {
                    acc += input.at(n, c, h, w);
                }
            }
            *out.at_mut(n, c, 0, 0) = acc / plane;
        }
    }
    out
}

/// Backward pass of [`global_avg_pool`], spreading the gradient uniformly
/// over each spatial plane.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `grad_out` is not
/// `[n, c, 1, 1]` for the given input shape.
pub fn global_avg_pool_backward(
    input_shape: Shape4,
    grad_out: &Tensor,
) -> Result<Tensor, TensorError> {
    let expect = Shape4::new(input_shape.n, input_shape.c, 1, 1);
    if grad_out.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            op: "global_avg_pool_backward",
            expected: expect.to_vec(),
            actual: grad_out.shape().to_vec(),
        });
    }
    let mut grad_in = Tensor::zeros(input_shape);
    let inv = 1.0 / (input_shape.h * input_shape.w) as f32;
    for n in 0..input_shape.n {
        for c in 0..input_shape.c {
            let g = grad_out.at(n, c, 0, 0) * inv;
            for h in 0..input_shape.h {
                for w in 0..input_shape.w {
                    *grad_in.at_mut(n, c, h, w) = g;
                }
            }
        }
    }
    Ok(grad_in)
}

/// Average pooling with a square `kernel`, `stride`, and zero `pad`.
///
/// Padding cells count toward the divisor (count-include-pad semantics),
/// matching the behaviour used for ShuffleNet-style stems.
pub fn avg_pool(input: &Tensor, kernel: usize, stride: usize, pad: usize) -> Tensor {
    let s = input.shape();
    let oh = (s.h + 2 * pad).saturating_sub(kernel) / stride + 1;
    let ow = (s.w + 2 * pad).saturating_sub(kernel) / stride + 1;
    let mut out = Tensor::zeros([s.n, s.c, oh, ow]);
    let inv = 1.0 / (kernel * kernel) as f32;
    for n in 0..s.n {
        for c in 0..s.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && ix >= 0 && iy < s.h as isize && ix < s.w as isize {
                                acc += input.at(n, c, iy as usize, ix as usize);
                            }
                        }
                    }
                    *out.at_mut(n, c, oy, ox) = acc * inv;
                }
            }
        }
    }
    out
}

/// Backward pass of [`avg_pool`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `grad_out` does not match the
/// pooled output shape.
pub fn avg_pool_backward(
    input_shape: Shape4,
    grad_out: &Tensor,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    let oh = (input_shape.h + 2 * pad).saturating_sub(kernel) / stride + 1;
    let ow = (input_shape.w + 2 * pad).saturating_sub(kernel) / stride + 1;
    let expect = Shape4::new(input_shape.n, input_shape.c, oh, ow);
    if grad_out.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool_backward",
            expected: expect.to_vec(),
            actual: grad_out.shape().to_vec(),
        });
    }
    let mut grad_in = Tensor::zeros(input_shape);
    let inv = 1.0 / (kernel * kernel) as f32;
    for n in 0..input_shape.n {
        for c in 0..input_shape.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at(n, c, oy, ox) * inv;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0
                                && ix >= 0
                                && iy < input_shape.h as isize
                                && ix < input_shape.w as isize
                            {
                                *grad_in.at_mut(n, c, iy as usize, ix as usize) += g;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn global_avg_pool_known() {
        let t = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let p = global_avg_pool(&t);
        assert_eq!(p.at(0, 0, 0, 0), 3.0);
    }

    #[test]
    fn global_avg_pool_backward_uniform() {
        let g = Tensor::from_vec([1, 1, 1, 1], vec![4.0]).unwrap();
        let back = global_avg_pool_backward(Shape4::new(1, 1, 2, 2), &g).unwrap();
        assert_eq!(back.data(), &[1.0, 1.0, 1.0, 1.0]);
        assert!(global_avg_pool_backward(Shape4::new(1, 2, 2, 2), &g).is_err());
    }

    #[test]
    fn avg_pool_known() {
        let t = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let p = avg_pool(&t, 2, 2, 0);
        assert_eq!(p.shape(), Shape4::new(1, 1, 1, 1));
        assert_eq!(p.at(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn avg_pool_adjoint() {
        // <avg_pool(x), y> == <x, avg_pool_backward(y)>
        let mut rng = SmallRng::new(7);
        let x = Tensor::randn([2, 3, 5, 5], 1.0, &mut rng);
        let y_shape = avg_pool(&x, 3, 2, 1).shape();
        let y = Tensor::randn(y_shape, 1.0, &mut rng);
        let lhs: f32 = avg_pool(&x, 3, 2, 1)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let back = avg_pool_backward(x.shape(), &y, 3, 2, 1).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }
}
