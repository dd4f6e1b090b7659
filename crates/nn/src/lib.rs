//! A minimal CPU deep-learning framework with explicit backward passes.
//!
//! The paper retrains CNNs whose multiplications go through approximate
//! multiplier LUTs with custom gradients — something mainstream autograd
//! engines make awkward. This crate therefore implements the training stack
//! from scratch with *explicit* `forward`/`backward` methods per layer, so
//! the AppMult layers in `appmult-retrain` can plug their LUT-based
//! gradients (Eq. 9 of the paper) straight into the chain rule.
//!
//! Provided: [`Tensor`] (f32, NCHW), the [`Module`] trait, convolution /
//! linear / batch-norm / pooling / activation layers, softmax cross-entropy
//! with top-k metrics, Adam with the paper's step learning-rate schedule,
//! and finite-difference gradient checking used throughout the test suite.
//!
//! # Example: train a tiny MLP on XOR
//!
//! ```
//! use appmult_nn::{
//!     layers::{Linear, Relu, Sequential},
//!     loss::softmax_cross_entropy,
//!     optim::{Adam, Optimizer},
//!     Module, Tensor,
//! };
//!
//! let mut net = Sequential::new()
//!     .push(Linear::new(2, 8, 42))
//!     .push(Relu::new())
//!     .push(Linear::new(8, 2, 43));
//! let x = Tensor::from_vec(vec![0., 0., 0., 1., 1., 0., 1., 1.], &[4, 2]);
//! let labels = [0usize, 1, 1, 0];
//! let mut adam = Adam::new(0.05);
//! let mut last = f32::MAX;
//! for _ in 0..200 {
//!     let logits = net.forward(&x, true);
//!     let (loss, grad) = softmax_cross_entropy(&logits, &labels);
//!     net.backward(&grad);
//!     adam.step(&mut net);
//!     net.zero_grad();
//!     last = loss;
//! }
//! assert!(last < 0.1, "failed to fit XOR: loss {last}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod metrics;
mod module;
pub mod optim;
pub mod serialize;
mod tensor;

pub use module::{Module, Parameter};
pub use tensor::Tensor;
