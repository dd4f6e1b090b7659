//! DNN model zoo: LeNet-5, VGG, and ResNet builders.
//!
//! Every model can be built in two flavours selected by [`ConvMode`]:
//!
//! * **accurate** — standard float convolutions ([`appmult_nn::layers::Conv2d`]);
//! * **approximate** — LUT-based AppMult convolutions
//!   ([`appmult_retrain::ApproxConv2d`]) with a chosen gradient rule.
//!
//! Following the paper (and refs. \[13\], \[16\]), only the *convolution*
//! layers are approximated; batch-norm, pooling, and the classifier remain
//! accurate. Architectures are parameterized by a width divisor so the
//! faithful paper-scale models (`width_div = 1`) and CPU-scale variants
//! (`width_div = 4` or `8`) share every line of code.
//!
//! # Example
//!
//! ```
//! use appmult_models::{lenet5, ModelConfig};
//! use appmult_nn::{Module, Tensor};
//!
//! let mut model = lenet5(&ModelConfig::quick_test());
//! let y = model.forward(&Tensor::zeros(&[2, 3, 16, 16]), true);
//! assert_eq!(y.shape(), &[2, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod lenet;
mod resnet;
mod vgg;

pub use builder::{copy_params, ConvMode, ModelConfig};
pub use lenet::lenet5;
pub use resnet::{resnet, ResNetDepth};
pub use vgg::{vgg, VggDepth};
