//! Full verification sweep over the multiplier zoo.
//!
//! [`lint_zoo`] runs every pass — structural netlist lints, a product-table
//! scan against the exact multiplier, LUT metric sanity, and gradient-table
//! consistency — over all Table I designs plus deliberately faulty variants
//! (a stuck-at netlist fault and corrupted LUT cells). The faulty variants
//! act as negative controls: the sweep *fails* if they pass the
//! equivalence check. The result serializes to the `results/LINT.json`
//! (`appmult-lint/v3`) schema consumed by CI.

use appmult_circuit::{fault_sites, FaultSpec, MultiplierCircuit};
use appmult_mult::{zoo, Multiplier, MultiplierLut};
use appmult_obs::json::{self, JsonWriter, Layout};
use appmult_retrain::{GradientLut, GradientMode};

use crate::lint::diag::{count_severity, Diagnostic, Severity};
use crate::lint::equiv::{table_equivalence_vs_exact, MultiplierEquiv};
use crate::lint::structural::lint_netlist;
use crate::lint::tables::{lint_gradient_lut, lint_multiplier_lut};

/// What a design is expected to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignKind {
    /// Must be proved equivalent to the exact multiplier.
    Exact,
    /// Must differ from the exact multiplier (a counterexample is expected).
    Approximate,
    /// A deliberately defective variant; must also fail equivalence.
    Faulty,
}

impl DesignKind {
    /// Lowercase identifier used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            DesignKind::Exact => "exact",
            DesignKind::Approximate => "approximate",
            DesignKind::Faulty => "faulty",
        }
    }
}

/// Verification outcome of one design.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Design name (zoo name or synthetic variant label).
    pub name: String,
    /// Operand bit width.
    pub bits: u32,
    /// Expected behaviour class.
    pub kind: DesignKind,
    /// All pass findings, including the expectation check.
    pub diagnostics: Vec<Diagnostic>,
    /// Equivalence result against the exact multiplier.
    pub equivalence: MultiplierEquiv,
}

impl DesignReport {
    /// Number of error diagnostics.
    pub fn error_count(&self) -> usize {
        count_severity(&self.diagnostics, Severity::Error)
    }

    /// Number of warning diagnostics.
    pub fn warning_count(&self) -> usize {
        count_severity(&self.diagnostics, Severity::Warning)
    }

    /// The members of one `appmult-lint/v3` design record.
    fn write_lint_json(&self, w: &mut JsonWriter) {
        w.key("name").str(&self.name);
        w.key("bits").raw(self.bits);
        w.key("kind").str(self.kind.as_str());
        w.key("errors").raw(self.error_count());
        w.key("warnings").raw(self.warning_count());
        w.key("equivalence");
        match &self.equivalence {
            MultiplierEquiv::Equivalent { patterns } => w.object(Layout::Pretty, |w| {
                w.key("status").str("equivalent");
                // The scan covers the whole operand space, always.
                w.key("exhaustive").raw(true);
                w.key("patterns").raw(patterns);
            }),
            MultiplierEquiv::Counterexample(c) => w.object(Layout::Pretty, |w| {
                w.key("status").str("counterexample");
                w.key("w").raw(c.w);
                w.key("x").raw(c.x);
                w.key("got").raw(c.got);
                w.key("expected").raw(c.expected);
            }),
        };
        w.key("diagnostics").array(Layout::Pretty, |w| {
            for diag in &self.diagnostics {
                w.object(Layout::Inline, |w| {
                    w.key("pass").str(diag.pass);
                    w.key("severity").str(diag.severity.as_str());
                    w.key("location").str(&diag.location);
                    w.key("message").str(&diag.message);
                });
            }
        });
    }
}

/// Aggregated verification report over the whole zoo.
#[derive(Debug, Clone)]
pub struct ZooLintReport {
    /// Per-design reports, in sweep order.
    pub designs: Vec<DesignReport>,
}

impl ZooLintReport {
    /// Total error diagnostics across all designs.
    pub fn error_count(&self) -> usize {
        self.designs.iter().map(DesignReport::error_count).sum()
    }

    /// Total warning diagnostics across all designs.
    pub fn warning_count(&self) -> usize {
        self.designs.iter().map(DesignReport::warning_count).sum()
    }

    /// Serializes the report to the `appmult-lint/v3` JSON schema.
    ///
    /// v3 drops v2's per-design `"analysis"` summary (static timing,
    /// structural hashing and ternary counts); Table I's `table1` binary
    /// reports each design's hardware cost.
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.key("schema").str("appmult-lint/v3");
            w.key("design_count").raw(self.designs.len());
            w.key("errors").raw(self.error_count());
            w.key("warnings").raw(self.warning_count());
            w.key("designs").array(Layout::Pretty, |w| {
                for d in &self.designs {
                    w.object(Layout::Pretty, |w| d.write_lint_json(w));
                }
            });
        })
    }
}

/// Runs every applicable pass over one multiplier.
///
/// Designs with a gate-level structure get the structural lints and a
/// behaviour cross-check (exhaustive circuit products vs the behavioural
/// LUT), and their equivalence scan reads the circuit's products; LUT-only
/// designs scan the LUT. All designs get the LUT metric sanity pass and
/// the Eq. 5/6 gradient consistency pass at the given half window size. The expected behaviour class (`kind`) is
/// derived from the LUT itself and checked against the equivalence result.
pub fn lint_multiplier<M: Multiplier + ?Sized>(name: &str, m: &M, hws: u32) -> DesignReport {
    let lut = MultiplierLut::from_multiplier(m);
    lint_with_lut(name, m, &lut, hws, None)
}

fn lint_with_lut<M: Multiplier + ?Sized>(
    name: &str,
    m: &M,
    lut: &MultiplierLut,
    hws: u32,
    forced_kind: Option<DesignKind>,
) -> DesignReport {
    let bits = lut.bits();
    let mut diagnostics = lint_multiplier_lut(lut);
    let kind = forced_kind.unwrap_or(if lut.is_exact() {
        DesignKind::Exact
    } else {
        DesignKind::Approximate
    });

    let equivalence = match m.circuit() {
        Some(circuit) => {
            diagnostics.extend(lint_netlist(circuit.netlist()));
            // The gate-level structure must implement the behavioural model.
            let products = circuit.exhaustive_products();
            if let Some(idx) = products
                .iter()
                .zip(lut.entries())
                .position(|(&c, &b)| c != u64::from(b))
            {
                let w = idx >> bits;
                let x = idx & ((1usize << bits) - 1);
                diagnostics.push(Diagnostic::error(
                    "behaviour",
                    format!("{name}[w={w}, x={x}]"),
                    format!(
                        "circuit computes {} but the behavioural model gives {}",
                        products[idx],
                        lut.entries()[idx]
                    ),
                ));
            }
            table_equivalence_vs_exact(bits, products)
        }
        None => table_equivalence_vs_exact(bits, lut.entries().iter().map(|&p| u64::from(p))),
    };
    diagnostics.extend(expectation_diagnostic(name, kind, &equivalence));

    let grads = GradientLut::build(lut, GradientMode::difference_based(hws.max(1)));
    diagnostics.extend(lint_gradient_lut(lut, &grads, hws.max(1)));

    DesignReport {
        name: name.to_string(),
        bits,
        kind,
        diagnostics,
        equivalence,
    }
}

/// The equivalence verdict must agree with the expected behaviour class:
/// an exact design may not differ from `w·x`, and an approximate or faulty
/// one may not match it.
fn expectation_diagnostic(
    name: &str,
    kind: DesignKind,
    equivalence: &MultiplierEquiv,
) -> Option<Diagnostic> {
    let message = match (equivalence, kind) {
        (MultiplierEquiv::Counterexample(c), DesignKind::Exact) => {
            format!("exact design disagrees with the reference: {c}")
        }
        (MultiplierEquiv::Equivalent { .. }, k) if k != DesignKind::Exact => format!(
            "{} design proved equivalent to the exact multiplier",
            k.as_str()
        ),
        _ => return None,
    };
    Some(Diagnostic::error("equivalence", name.to_string(), message))
}

/// Negative control: the 8-bit array multiplier with its first live
/// physical gate stuck at 1, scanned through its exhaustive products.
fn lint_stuck_at_variant() -> DesignReport {
    let base = MultiplierCircuit::array(8);
    let site = fault_sites(base.netlist())[0];
    let circuit = base
        .with_faults(&[FaultSpec::stuck_at_1(site)])
        .expect("fault site belongs to the netlist");
    let name = format!("mul8u_array_sa1@{site}");

    let mut diagnostics = lint_netlist(circuit.netlist());
    let equivalence = table_equivalence_vs_exact(8, circuit.exhaustive_products());
    diagnostics.extend(expectation_diagnostic(
        &name,
        DesignKind::Faulty,
        &equivalence,
    ));
    DesignReport {
        name,
        bits: 8,
        kind: DesignKind::Faulty,
        diagnostics,
        equivalence,
    }
}

/// Negative control: the exact 8-bit LUT with 4 memory cells flipped.
fn lint_corrupted_lut_variant() -> DesignReport {
    let clean = appmult_mult::ExactMultiplier::new(8).to_lut();
    let lut = clean.with_flipped_bits(4, 0xBAD_CE11);
    // LUT corruption has no gate-level structure: the control exercises
    // the LUT scan, not the netlist passes.
    lint_with_lut(lut.name(), &lut, &lut, 4, Some(DesignKind::Faulty))
}

/// Runs the full verification sweep: every Table I zoo entry (including
/// the cached `_syn` synthesis results) at its recommended half window
/// size and the two faulty negative controls.
pub fn lint_zoo() -> ZooLintReport {
    lint_zoo_filtered(true)
}

/// Like [`lint_zoo`], optionally skipping the `_syn` entries whose
/// approximate-logic-synthesis step dominates unoptimized runtimes
/// (debug-mode test suites lint them through `appmult-mult`'s own tests
/// and the release CI sweep instead).
pub fn lint_zoo_filtered(include_syn: bool) -> ZooLintReport {
    // Filter *names* before `zoo::entry` so skipped `_syn` designs never
    // run their (cached but expensive) synthesis step.
    let mut designs: Vec<DesignReport> = zoo::names()
        .iter()
        .filter(|n| include_syn || !n.contains("_syn"))
        .map(|n| {
            let e = zoo::entry(n).expect("zoo::names() entries resolve");
            lint_multiplier(e.name, e.multiplier.as_ref(), e.recommended_hws())
        })
        .collect();
    designs.push(lint_stuck_at_variant());
    designs.push(lint_corrupted_lut_variant());
    ZooLintReport { designs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_mult::{ExactMultiplier, TruncatedMultiplier};

    #[test]
    fn exact_design_report_is_clean_and_proved() {
        let m = ExactMultiplier::new(6);
        let r = lint_multiplier("mul6u_acc", &m, 1);
        assert_eq!(r.kind, DesignKind::Exact);
        assert_eq!(r.error_count(), 0, "{:?}", r.diagnostics);
        assert_eq!(
            r.equivalence,
            MultiplierEquiv::Equivalent { patterns: 1 << 12 }
        );
    }

    #[test]
    fn truncated_design_reports_concrete_counterexample() {
        let m = TruncatedMultiplier::new(7, 6);
        let r = lint_multiplier("mul7u_rm6", &m, 4);
        assert_eq!(r.kind, DesignKind::Approximate);
        assert_eq!(r.error_count(), 0, "{:?}", r.diagnostics);
        match r.equivalence {
            MultiplierEquiv::Counterexample(c) => {
                assert_eq!((c.w, c.x), (1, 1));
                assert_eq!((c.got, c.expected), (0, 1));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn stuck_at_control_fails_equivalence() {
        let r = lint_stuck_at_variant();
        assert_eq!(r.kind, DesignKind::Faulty);
        assert!(matches!(r.equivalence, MultiplierEquiv::Counterexample(_)));
        // The expectation check adds no error: failing is the expectation.
        assert!(
            r.diagnostics.iter().all(|d| d.pass != "equivalence"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn corrupted_lut_control_fails_equivalence() {
        let r = lint_corrupted_lut_variant();
        assert_eq!(r.kind, DesignKind::Faulty);
        assert!(matches!(r.equivalence, MultiplierEquiv::Counterexample(_)));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = ZooLintReport {
            designs: vec![
                lint_multiplier("mul6u_acc", &ExactMultiplier::new(6), 1),
                lint_multiplier("mul6u_rm4", &TruncatedMultiplier::new(6, 4), 2),
            ],
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"appmult-lint/v3\""));
        assert!(json.contains("\"status\": \"equivalent\""));
        assert!(json.contains("\"status\": \"counterexample\""));
        assert_eq!(json.matches("\"name\":").count(), 2);
        // Balanced braces and brackets (no raw quotes inside values).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
