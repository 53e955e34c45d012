//! # hsconas-nn
//!
//! Neural-network layers, blocks, losses, and optimizers built on
//! [`hsconas_tensor`]. This is the training substrate for the HSCoNAS
//! supernet: it provides the ShuffleNetV2-style building blocks the paper's
//! search space is made of (§IV-B), batch normalization, SGD with momentum /
//! weight decay / gradient clipping, and the cosine learning-rate schedule
//! with warm-up used in the paper's experimental settings (§IV-A).
//!
//! ## Example
//!
//! ```
//! use hsconas_nn::{Layer, Linear};
//! use hsconas_tensor::{rng::SmallRng, Tensor};
//!
//! # fn main() -> Result<(), hsconas_nn::NnError> {
//! let mut rng = SmallRng::new(0);
//! let mut fc = Linear::new(8, 4, &mut rng);
//! let x = Tensor::randn([2, 8, 1, 1], 1.0, &mut rng);
//! let y = fc.forward(&x, true)?;
//! assert_eq!(y.shape().c, 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod layer;

pub mod activation;
pub mod batchnorm;
pub mod blocks;
pub mod conv_layer;
pub mod linear;
pub mod loss;
pub mod network;
pub mod optim;
pub mod pooling;
pub mod schedule;
pub mod shuffle;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use blocks::{ShuffleUnit, ShuffleUnitKind, SkipConnection};
pub use conv_layer::Conv2d;
pub use error::NnError;
pub use layer::{BnMode, Layer, LayerExport, ParamVisitor};
pub use linear::Linear;
pub use loss::SoftmaxCrossEntropy;
pub use network::Sequential;
pub use optim::Sgd;
pub use pooling::GlobalAvgPool;
pub use schedule::CosineSchedule;
pub use shuffle::ChannelShuffle;
