//! Static verification behind the `appmult-lint` binary.
//!
//! Everything downstream of a multiplier design — the cost model, the LUT
//! forward path, the gradient tables, the retraining loop — silently
//! assumes the design is well-formed. These passes make those assumptions
//! checkable without running a single training step:
//!
//! - **Structural netlist lints** ([`lint_netlist`]): dead gates and
//!   const-foldable logic, each reported as a typed [`Diagnostic`]. A
//!   netlist is valid by construction (`appmult-circuit` refuses forward
//!   references, foreign outputs and bad bus widths), so these are the
//!   only findings a built netlist can carry.
//! - **Equivalence against the exact multiplier**: one w-major scan of a
//!   design's exhaustive product table (its LUT, or its circuit's
//!   exhaustive products) against `w·x`. A counterexample reports the
//!   first failing operand pair ([`MultiplierEquiv`]).
//! - **LUT and gradient validators**: error-metric sanity, NaN/Inf
//!   detection, and an independent recomputation of the paper's Eq. 5
//!   (smoothed central difference, interior) and Eq. 6 (average slope,
//!   boundary) against the stored gradient tables.
//! - **The zoo sweep** ([`lint_zoo`]): all of the above over every
//!   Table I design plus deliberately faulty negative controls, emitting
//!   the `results/LINT.json` report that CI reads.

mod diag;
mod equiv;
mod structural;
mod tables;
mod zoo_lint;

pub use diag::{Diagnostic, Severity};
pub use equiv::{MultiplierCounterexample, MultiplierEquiv};
pub use structural::lint_netlist;
pub use zoo_lint::{lint_zoo, lint_zoo_filtered, DesignKind, DesignReport, ZooLintReport};
