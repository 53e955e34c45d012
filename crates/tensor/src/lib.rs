//! # hsconas-tensor
//!
//! A small, dependency-light NCHW tensor library with the forward and
//! backward kernels needed to train the HSCoNAS supernet from scratch:
//! dense matrix multiplication, 2-D convolution (im2col-based dense and
//! direct depthwise), pooling, and the elementwise primitives used by
//! ShuffleNetV2-style blocks (channel shuffle / split / concat).
//!
//! The crate is deliberately minimal: it implements exactly the operator set
//! required by the paper's search space, each with a straightforward
//! reference implementation that is unit-tested against naive loops and
//! finite-difference gradient checks.
//!
//! ## Example
//!
//! ```
//! use hsconas_tensor::Tensor;
//!
//! # fn main() -> Result<(), hsconas_tensor::TensorError> {
//! let a = Tensor::zeros([1, 3, 8, 8]);
//! let b = a.map(|v| v + 1.0);
//! assert_eq!(b.sum(), (3 * 8 * 8) as f32);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the AVX2 microkernel module is the single
// scoped exception (`kernels/avx2.rs` carries `#![allow(unsafe_code)]`);
// everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod arena;
pub mod conv;
pub mod im2col;
pub mod kernels;
#[cfg(test)]
mod matmul;
pub mod pool;
pub mod rng;
pub mod scratch;

pub use error::TensorError;
pub use shape::Shape4;
pub use tensor::Tensor;
