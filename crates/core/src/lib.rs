//! AppMult-aware DNN retraining with difference-based gradient
//! approximation — the core contribution of the reproduced paper.
//!
//! The pipeline (Fig. 4 of the paper):
//!
//! 1. **Quantize** — weights and activations are fake-quantized to unsigned
//!    `B`-bit integers with per-tensor scale/zero-point (Eq. 7; [`QuantParams`],
//!    [`Observer`]).
//! 2. **Approximate multiply** — products are served from the AppMult's
//!    precomputed LUT and dequantized (Eq. 8; [`ApproxConv2d`], the one
//!    approximate layer: the paper replaces convolution multipliers only).
//! 3. **Backpropagate** — `dAM/dW` and `dAM/dX` come from a gradient LUT
//!    ([`GradientLut`]) built with either the baseline STE rule or the
//!    paper's smoothed difference-based rule (Eqs. 4-6; [`GradientMode`],
//!    [`smooth_row`]), chained per Eq. 9 with clipped-STE `Q'`.
//! 4. **Retrain** — [`retrain`] runs the epoch loop with the paper's
//!    learning-rate schedule; [`select_hws`] reproduces the half-window-size
//!    sweep of Sec. V-A.
//!
//! # Example: STE vs difference-based gradients on one slice
//!
//! ```
//! use appmult_mult::{zoo, Multiplier};
//! use appmult_retrain::{GradientLut, GradientMode};
//!
//! let lut = zoo::mul7u_rm6().to_lut();
//! let ours = GradientLut::build(&lut, GradientMode::difference_based(4));
//! let ste = GradientLut::build(&lut, GradientMode::Ste);
//!
//! // STE is blind to the staircase; the difference-based gradient peaks
//! // at the jumps (Fig. 3b).
//! assert_eq!(ste.wrt_x(10, 63), 10.0);
//! assert!(ours.wrt_x(10, 63) > ours.wrt_x(10, 50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gradient;
mod hws;
mod layers;
mod quant;
mod resilience;
mod retrainer;
mod smoothing;

pub use gradient::{GradientLut, GradientLutError, GradientMode};
pub use hws::{
    candidates_for_bits, select_hws, HwsError, HwsSelection, HwsTrial, PAPER_HWS_CANDIDATES,
};
pub use layers::{ApproxConv2d, QuantConfig};
pub use quant::{dequantize_dot, dequantize_dot_offset, Observer, QuantParams, QuantScheme};
pub use resilience::ResiliencePolicy;
pub use retrainer::{evaluate, retrain, Batch, EpochStats, RetrainConfig, RetrainHistory};
pub use smoothing::{smooth_row, smooth_row_kernel, weighted_smooth_row, SmoothingKernel};
