//! Static verification layer for the AppMult workspace.
//!
//! Everything downstream of a multiplier design — the cost model, the LUT
//! forward path, the gradient tables, the retraining loop — silently
//! assumes the design is well-formed. This crate makes those assumptions
//! checkable without running a single training step:
//!
//! - **Structural netlist lints** ([`lint_netlist`],
//!   [`lint_multiplier_circuit`]): combinational cycles, dangling and
//!   undriven signals, dead gates, arity/bus-width violations, and
//!   const-foldable logic, each reported as a typed [`Diagnostic`].
//! - **Miter-based equivalence checking** ([`prove_equivalence`],
//!   [`prove_multiplier_equivalence`]): a candidate netlist is XORed
//!   against a reference over shared inputs; up to 16 shared input bits
//!   the miter is proved exhaustively with the 64-way bit-parallel
//!   simulation engine, above that corner patterns plus seeded random
//!   vectors are sampled. Counterexamples report the first failing
//!   operand pair.
//! - **LUT and gradient validators** ([`lint_multiplier_lut`],
//!   [`lint_gradient_lut`]): error-metric sanity, NaN/Inf detection, and
//!   an independent recomputation of the paper's Eq. 5 (smoothed central
//!   difference, interior) and Eq. 6 (average slope, boundary) against
//!   the stored gradient tables.
//! - **The zoo sweep** ([`lint_zoo`]): all of the above over every
//!   Table I design plus deliberately faulty negative controls, emitting
//!   the `results/LINT.json` report consumed by CI via the `appmult-lint`
//!   binary in `appmult-bench`.
//!
//! # Example
//!
//! ```
//! use appmult_mult::TruncatedMultiplier;
//! use appmult_verify::{lint_multiplier, MultiplierEquiv};
//!
//! // The Fig. 2 multiplier is approximate: the report carries a concrete
//! // counterexample against the exact multiplier and no error findings.
//! let report = lint_multiplier("mul7u_rm6", &TruncatedMultiplier::new(7, 6), 4);
//! assert_eq!(report.error_count(), 0);
//! match report.equivalence {
//!     Some(MultiplierEquiv::Counterexample(c)) => assert_eq!((c.w, c.x), (1, 1)),
//!     other => panic!("expected counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod equiv;
mod structural;
mod tables;
mod zoo_lint;

pub use diag::{count_severity, has_errors, Diagnostic, Severity};
pub use equiv::{
    lut_equivalence_vs_exact, miter, prove_equivalence, prove_multiplier_equivalence,
    Counterexample, EquivConfig, Equivalence, MiterError, MultiplierCounterexample,
    MultiplierEquiv,
};
pub use structural::{lint_multiplier_circuit, lint_netlist};
pub use tables::{lint_gradient_lut, lint_multiplier_lut};
pub use zoo_lint::{
    lint_multiplier, lint_zoo, lint_zoo_filtered, DesignKind, DesignReport, ZooLintReport,
};
