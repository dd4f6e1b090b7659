//! Approximate integer multipliers (AppMults) for DNN accelerators.
//!
//! This crate provides the multiplier side of the paper's flow: the
//! [`Multiplier`] trait, behavioural implementations of the approximate
//! design families evaluated in Table I, precomputed product lookup tables
//! ([`MultiplierLut`], the forward-path representation used by the
//! retraining framework), and the standard error metrics
//! ([`ErrorMetrics`]: error rate, NMED, MaxED — Eq. 2 of the paper).
//!
//! Defective hardware is one more table: [`MultiplierLut::from_circuit`]
//! extracts the products of a faulted gate-level circuit (see
//! `MultiplierCircuit::with_faults` in `appmult-circuit`), and
//! [`MultiplierLut::with_flipped_bits`] models defective table memory.
//!
//! Most designs also expose a gate-level structure (via
//! [`Multiplier::circuit`]) so the `appmult-circuit` cost model can report
//! area, delay, and power.
//!
//! # Example
//!
//! ```
//! use appmult_mult::{ErrorMetrics, Multiplier, TruncatedMultiplier};
//!
//! // The Fig. 2 multiplier: 7-bit, 6 rightmost partial-product columns removed.
//! let m = TruncatedMultiplier::new(7, 6);
//! assert!(m.multiply(10, 100) <= 1000);
//!
//! let metrics = ErrorMetrics::exhaustive(&m.to_lut());
//! assert!(metrics.nmed_pct() > 0.1 && metrics.nmed_pct() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod designs;
mod metrics;
mod multiplier;
mod signed;
pub mod zoo;

pub use designs::{
    CompensatedTruncatedMultiplier, ExactMultiplier, LowerOrMultiplier, Recursive2x2Multiplier,
    SegmentedMultiplier, SynthesizedMultiplier, TruncatedMultiplier,
};
pub use metrics::ErrorMetrics;
pub use multiplier::{Multiplier, MultiplierLut};
pub use signed::SignMagnitudeMultiplier;
