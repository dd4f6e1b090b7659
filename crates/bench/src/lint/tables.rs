//! LUT and gradient-table validators.
//!
//! The retraining loop trusts two table families blindly: the product LUT
//! that replaces the multiplier in the forward pass, and the gradient LUTs
//! built from it (Eqs. 4-6). These passes recompute the defining equations
//! independently and flag any entry that disagrees, plus the usual
//! numerical hygiene (NaN/Inf) and error-metric sanity checks.

use appmult_mult::{ErrorMetrics, MultiplierLut};
use appmult_retrain::{smooth_row, GradientLut};

use crate::lint::diag::Diagnostic;

/// At most this many per-entry mismatches are reported per gradient table;
/// the remainder is summarized in one closing diagnostic.
const MAX_REPORTED_MISMATCHES: usize = 4;

/// Sanity checks of a product LUT and its exhaustive error metrics.
///
/// Pass names: `metrics` (error). An exact LUT must measure zero error on
/// every metric; a non-exact LUT must measure a nonzero error rate and
/// MaxED, and the metrics must be mutually consistent (e.g. `MED` can
/// never exceed `MaxED`). Exact multipliers therefore lint clean with
/// zero error — any finding here means the LUT and the metrics pipeline
/// disagree about the same table.
pub fn lint_multiplier_lut(lut: &MultiplierLut) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let name = lut.name().to_string();
    let m = ErrorMetrics::exhaustive(lut);
    let exact = lut.is_exact();
    if exact && (m.error_rate != 0.0 || m.max_ed != 0 || m.nmed != 0.0 || m.med != 0.0) {
        diags.push(Diagnostic::error(
            "metrics",
            name.clone(),
            format!(
                "exact LUT reports nonzero error metrics (ER {:.4}, NMED {:.6}, MaxED {})",
                m.error_rate, m.nmed, m.max_ed
            ),
        ));
    }
    if !exact && (m.error_rate == 0.0 || m.max_ed == 0) {
        diags.push(Diagnostic::error(
            "metrics",
            name.clone(),
            format!(
                "approximate LUT reports zero error (ER {:.4}, MaxED {})",
                m.error_rate, m.max_ed
            ),
        ));
    }
    if !(0.0..=1.0).contains(&m.error_rate) || !(0.0..=1.0).contains(&m.nmed) {
        diags.push(Diagnostic::error(
            "metrics",
            name.clone(),
            format!("ER {:.4} / NMED {:.6} outside [0, 1]", m.error_rate, m.nmed),
        ));
    }
    if m.med > m.max_ed as f64 + 1e-9 {
        diags.push(Diagnostic::error(
            "metrics",
            name,
            format!("MED {:.4} exceeds MaxED {}", m.med, m.max_ed),
        ));
    }
    diags
}

/// Validates difference-based gradient tables against an independent
/// recomputation of Eqs. 4-6.
///
/// Pass names: `finite` (error; NaN/Inf entries, via
/// [`GradientLut::validate`]), `eq5-interior` (error; interior entries
/// must equal the central difference of the Eq. 4 smoothed row), and
/// `eq6-boundary` (error; boundary entries must equal the average slope
/// `(max - min) / 2^B`).
///
/// `grads` must have been built with [`GradientMode::DifferenceBased`]
/// using the same `hws` — tables built under a different mode will
/// (correctly) fail the consistency check.
///
/// [`GradientMode::DifferenceBased`]: appmult_retrain::GradientMode::DifferenceBased
pub fn lint_gradient_lut(lut: &MultiplierLut, grads: &GradientLut, hws: u32) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if grads.bits() != lut.bits() {
        diags.push(Diagnostic::error(
            "finite",
            lut.name().to_string(),
            format!(
                "gradient tables are {}-bit but the LUT is {}-bit",
                grads.bits(),
                lut.bits()
            ),
        ));
        return diags;
    }
    if hws == 0 {
        diags.push(Diagnostic::error(
            "eq5-interior",
            lut.name().to_string(),
            "half window size 0 is outside the Eq. 4 domain",
        ));
        return diags;
    }
    if let Err(e) = grads.validate() {
        diags.push(Diagnostic::error(
            "finite",
            lut.name().to_string(),
            format!("{e}"),
        ));
        return diags;
    }
    // d/dX at fixed W: rows of the LUT.
    check_difference_table(lut, hws, false, |w, x| grads.wrt_x(w, x), &mut diags);
    // d/dW at fixed X: rows of the transposed LUT.
    let t = lut.transposed();
    check_difference_table(&t, hws, true, |x, w| grads.wrt_w(w, x), &mut diags);
    diags
}

/// Recomputes Eq. 5/6 for every row of `table` and compares against
/// `got(row, col)`. `transposed` only affects how locations are printed
/// (the row of a transposed table is an `x` value).
fn check_difference_table<F: Fn(u32, u32) -> f32>(
    table: &MultiplierLut,
    hws: u32,
    transposed: bool,
    got: F,
    diags: &mut Vec<Diagnostic>,
) {
    let bits = table.bits();
    let n = 1usize << bits;
    let h = hws as usize;
    let table_name = if transposed { "wrt_w" } else { "wrt_x" };
    let mut mismatches = 0usize;
    for r in 0..n as u32 {
        let row = table.row(r);
        let smoothed = smooth_row(row, hws);
        let (lo, hi) = row
            .iter()
            .fold((u32::MAX, 0u32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let boundary = ((f64::from(hi) - f64::from(lo)) / n as f64) as f32;
        for c in 0..n as u32 {
            let x = c as usize;
            let interior = x > h && x + h + 1 < n;
            let (pass, expected) = if interior {
                let sp = smoothed[x + 1].expect("x + 1 inside Eq. 4 domain");
                let sm = smoothed[x - 1].expect("x - 1 inside Eq. 4 domain");
                ("eq5-interior", ((sp - sm) / 2.0) as f32)
            } else {
                ("eq6-boundary", boundary)
            };
            let actual = got(r, c);
            let tol = 1e-4 * expected.abs().max(1.0);
            if (actual - expected).abs() > tol {
                mismatches += 1;
                if mismatches <= MAX_REPORTED_MISMATCHES {
                    let (w, x) = if transposed { (c, r) } else { (r, c) };
                    diags.push(Diagnostic::error(
                        pass,
                        format!("{table_name}[w={w}, x={x}]"),
                        format!("table holds {actual} but recomputation gives {expected}"),
                    ));
                }
            }
        }
    }
    if mismatches > MAX_REPORTED_MISMATCHES {
        diags.push(Diagnostic::error(
            "eq5-interior",
            table_name,
            format!(
                "{} further entries disagree with the Eq. 5/6 recomputation",
                mismatches - MAX_REPORTED_MISMATCHES
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::diag::{count_severity, Severity};
    use appmult_mult::{ExactMultiplier, Multiplier, TruncatedMultiplier};
    use appmult_retrain::GradientMode;
    use std::sync::Arc;

    #[test]
    fn exact_luts_lint_clean() {
        for bits in [4, 6, 8] {
            let lut = ExactMultiplier::new(bits).to_lut();
            assert!(lint_multiplier_lut(&lut).is_empty(), "bits={bits}");
        }
    }

    #[test]
    fn approximate_luts_lint_clean_too() {
        let lut = TruncatedMultiplier::new(7, 6).to_lut();
        assert!(lint_multiplier_lut(&lut).is_empty());
    }

    #[test]
    fn difference_tables_pass_their_own_recomputation() {
        for (bits, removed, hws) in [(6u32, 4u32, 2u32), (7, 6, 4), (8, 8, 16)] {
            let lut = TruncatedMultiplier::new(bits, removed).to_lut();
            let g = GradientLut::build(&lut, GradientMode::difference_based(hws));
            let diags = lint_gradient_lut(&lut, &g, hws);
            assert!(diags.is_empty(), "bits={bits} hws={hws}: {diags:?}");
        }
    }

    #[test]
    fn tampered_gradient_entry_is_located() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(2));
        let mut wrt_x = g.wrt_x_table().as_ref().clone();
        wrt_x[(10 << 6) | 20] += 5.0; // interior entry
        let tampered = GradientLut::build(
            &lut,
            GradientMode::Custom {
                wrt_w: g.wrt_w_table().clone(),
                wrt_x: Arc::new(wrt_x),
            },
        );
        let diags = lint_gradient_lut(&lut, &tampered, 2);
        assert!(count_severity(&diags, Severity::Error) > 0);
        assert!(
            diags
                .iter()
                .any(|d| d.pass == "eq5-interior" && d.location.contains("w=10, x=20")),
            "{diags:?}"
        );
    }

    #[test]
    fn non_finite_gradient_is_reported_before_consistency() {
        let lut = ExactMultiplier::new(4).to_lut();
        let mut bad = vec![0.0f32; 256];
        bad[5] = f32::INFINITY;
        let g = GradientLut::build(
            &lut,
            GradientMode::Custom {
                wrt_w: Arc::new(bad),
                wrt_x: Arc::new(vec![0.0; 256]),
            },
        );
        let diags = lint_gradient_lut(&lut, &g, 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, "finite");
    }

    #[test]
    fn wrong_mode_fails_consistency_with_cap() {
        // STE tables are not the difference-based gradient; the mismatch
        // flood must be capped at MAX_REPORTED_MISMATCHES + 1 per table.
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let ste = GradientLut::build(&lut, GradientMode::Ste);
        let diags = lint_gradient_lut(&lut, &ste, 2);
        assert!(count_severity(&diags, Severity::Error) > 0);
        assert!(diags.len() <= 2 * (MAX_REPORTED_MISMATCHES + 1));
    }
}
