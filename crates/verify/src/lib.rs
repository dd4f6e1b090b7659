//! Static verification layer for the AppMult workspace.
//!
//! Everything downstream of a multiplier design — the cost model, the LUT
//! forward path, the gradient tables, the retraining loop — silently
//! assumes the design is well-formed. This crate makes those assumptions
//! checkable without running a single training step:
//!
//! - **Structural netlist lints** ([`lint_netlist`]): dead gates and
//!   const-foldable logic, each reported as a typed [`Diagnostic`]. A
//!   netlist is valid by construction (`appmult-circuit` refuses forward
//!   references, foreign outputs and bad bus widths), so these are the
//!   only findings a built netlist can carry.
//! - **Equivalence against the exact multiplier**
//!   ([`table_equivalence_vs_exact`]): one w-major scan of a design's
//!   exhaustive product table (its LUT, or its circuit's exhaustive
//!   products) against `w·x`. A counterexample reports the first failing
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
//!     MultiplierEquiv::Counterexample(c) => assert_eq!((c.w, c.x), (1, 1)),
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
pub use equiv::{table_equivalence_vs_exact, MultiplierCounterexample, MultiplierEquiv};
pub use structural::lint_netlist;
pub use tables::{lint_gradient_lut, lint_multiplier_lut};
pub use zoo_lint::{
    lint_multiplier, lint_zoo, lint_zoo_filtered, DesignKind, DesignReport, ZooLintReport,
};
