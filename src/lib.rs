//! # appmult — AppMult-aware DNN retraining with difference-based gradients
//!
//! Facade crate for the `appmult` workspace, a from-scratch Rust
//! reproduction of *"Gradient Approximation of Approximate Multipliers for
//! High-Accuracy Deep Neural Network Retraining"* (DATE 2025).
//!
//! The workspace implements the full stack the paper depends on:
//!
//! * [`circuit`] — gate-level netlists, multiplier generators, simulation,
//!   an ASAP7-calibrated cost model, and approximate logic synthesis;
//! * [`mult`] — the approximate-multiplier zoo, product LUTs, and error
//!   metrics (ER / NMED / MaxED);
//! * [`nn`] — a CPU deep-learning framework with explicit backward passes;
//! * [`retrain`] — the paper's contribution: quantization, AppMult function
//!   smoothing (Eq. 4), difference-based gradients (Eqs. 5–6), gradient
//!   LUTs, LUT-based approximate layers, and the retraining loop;
//! * [`models`] — LeNet / VGG / ResNet model builders;
//! * [`data`] — synthetic CIFAR-style datasets;
//! * [`serve`] — batched inference: model registry with checkpoint
//!   rebuild, greedy batching over one bounded FIFO, typed rejections.
//!
//! # Quickstart
//!
//! ```
//! use appmult::mult::{zoo, ErrorMetrics, Multiplier};
//! use appmult::retrain::{GradientLut, GradientMode};
//!
//! // A 7-bit multiplier that drops the 6 rightmost partial-product columns
//! // (Fig. 2 of the paper).
//! let m = zoo::mul7u_rm6();
//! let lut = m.to_lut();
//! let metrics = ErrorMetrics::exhaustive(&lut);
//! assert!(metrics.nmed > 0.0);
//!
//! // Difference-based gradient LUT with half window size 2 (Table I).
//! let grads = GradientLut::build(&lut, GradientMode::difference_based(2));
//! assert!(grads.wrt_x(10, 64) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use appmult_circuit as circuit;
pub use appmult_data as data;
pub use appmult_kernels as kernels;
pub use appmult_models as models;
pub use appmult_mult as mult;
pub use appmult_nn as nn;
pub use appmult_obs as obs;
pub use appmult_retrain as retrain;
pub use appmult_serve as serve;
