//! Full verification sweep over the multiplier zoo.
//!
//! [`lint_zoo`] runs every pass — structural netlist lints, the static
//! analysis stack (timing, structural hashing, ternary constant
//! propagation), miter equivalence against the exact array multiplier, LUT
//! metric sanity, and gradient-table consistency — over all Table I
//! designs plus deliberately faulty variants (a stuck-at netlist fault and
//! corrupted LUT cells). The faulty variants act as negative controls: the
//! sweep *fails* if they pass the equivalence check, and the stuck-at
//! variant must additionally trip the constant-propagation pass. The
//! result serializes to the `results/LINT.json` (`appmult-lint/v2`) and
//! `results/ANALYZE.json` (`appmult-analyze/v1`) schemas consumed by CI.

use appmult_circuit::{fault_sites, CostModel, HardwareCost, MultiplierCircuit};
use appmult_mult::{zoo, FaultyMultiplier, Multiplier, MultiplierLut};
use appmult_obs::json::{self, JsonWriter, Layout};
use appmult_retrain::{GradientLut, GradientMode};

use crate::analysis::analyze_netlist;
use crate::diag::{count_severity, Diagnostic, Severity};
use crate::equiv::{
    lut_equivalence_vs_exact, prove_multiplier_equivalence, EquivConfig, MultiplierEquiv,
};
use crate::sta::StaGate;
use crate::structural::width_diagnostics;
use crate::tables::{lint_gradient_lut, lint_multiplier_lut};

/// Number of equal-width slack-histogram buckets in `ANALYZE.json`.
const SLACK_BUCKETS: usize = 8;

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

/// Static-analysis summary of one gate-level design, distilled from the
/// full [`crate::NetlistAnalysis`] for the `ANALYZE.json` report.
#[derive(Debug, Clone)]
pub struct DesignAnalysis {
    /// Calibrated area/delay/power from the cost model.
    pub cost: HardwareCost,
    /// Levelized logic depth over the primary outputs.
    pub depth: u32,
    /// Output-reachable physical gates.
    pub live_gates: usize,
    /// Structurally duplicate (mergeable) physical gates.
    pub duplicate_gates: usize,
    /// Physical gates proved constant by ternary propagation.
    pub const_gates: usize,
    /// Primary outputs proved independent of every input.
    pub stuck_outputs: usize,
    /// Whether the STA delay is bit-identical to the cost model's.
    pub sta_matches_cost_model: bool,
    /// Slack histogram over live physical gates ([`SLACK_BUCKETS`]
    /// equal-width bins spanning `[0, delay_ps]`).
    pub slack_histogram: Vec<u32>,
    /// The critical path, input to output.
    pub critical_path: Vec<StaGate>,
}

/// Runs the full static-analysis stack over one circuit: the shared-context
/// netlist lints plus the multiplier bus-width pass, returning both the
/// diagnostics and the distilled [`DesignAnalysis`].
fn lint_circuit_with_analysis(circuit: &MultiplierCircuit) -> (Vec<Diagnostic>, DesignAnalysis) {
    let model = CostModel::asap7();
    let nl = circuit.netlist();
    let full = analyze_netlist(nl, &model);
    let mut diagnostics = full.diagnostics;
    diagnostics.extend(width_diagnostics(circuit));
    let slack_histogram = full.sta.slack_histogram(nl, &nl.live_mask(), SLACK_BUCKETS);
    let analysis = DesignAnalysis {
        depth: full.depth,
        live_gates: full.live_gates,
        duplicate_gates: full.strash.mergeable_gates(),
        const_gates: full.ternary.const_gates.len(),
        stuck_outputs: full.ternary.stuck_outputs.len(),
        sta_matches_cost_model: full.sta.delay_ps.to_bits() == full.cost.delay_ps.to_bits(),
        slack_histogram,
        critical_path: full.sta.critical_path,
        cost: full.cost,
    };
    (diagnostics, analysis)
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
    /// Equivalence result against the exact multiplier, when checked.
    pub equivalence: Option<MultiplierEquiv>,
    /// Static-analysis summary; `None` for LUT-only designs with no
    /// gate-level structure.
    pub analysis: Option<DesignAnalysis>,
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

    /// Serializes the report to the `appmult-lint/v2` JSON schema.
    ///
    /// v2 adds a compact per-design `"analysis"` summary (delay, area,
    /// power, depth, liveness, strash/ternary counts, STA agreement) for
    /// gate-level designs; LUT-only designs carry `"analysis": null`. The
    /// full static-analysis detail (critical path, slack histogram) lives
    /// in the [`ZooLintReport::analysis_json`] report instead.
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.key("schema").str("appmult-lint/v2");
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

    /// Serializes the static-analysis sweep to the `appmult-analyze/v1`
    /// JSON schema: one record per gate-level design with cost, depth,
    /// liveness, strash/ternary counts, the slack histogram, and the full
    /// gate-by-gate critical path. LUT-only designs are omitted (they have
    /// no netlist to analyze); `design_count` still counts every design in
    /// the sweep so the omission is visible.
    pub fn analysis_json(&self) -> String {
        let analyzed: Vec<(&DesignReport, &DesignAnalysis)> = self
            .designs
            .iter()
            .filter_map(|d| Some((d, d.analysis.as_ref()?)))
            .collect();
        json::document(|w| {
            w.key("schema").str("appmult-analyze/v1");
            w.key("design_count").raw(self.designs.len());
            w.key("analyzed_count").raw(analyzed.len());
            w.key("designs").array(Layout::Pretty, |w| {
                for (d, a) in &analyzed {
                    w.object(Layout::Pretty, |w| {
                        d.write_identity(w);
                        a.write_summary(w);
                        w.key("slack_bucket_ps")
                            .f64(a.cost.delay_ps / a.slack_histogram.len().max(1) as f64);
                        w.key("slack_histogram").array(Layout::Inline, |w| {
                            for n in &a.slack_histogram {
                                w.raw(n);
                            }
                        });
                        w.key("critical_path").array(Layout::Pretty, |w| {
                            for g in &a.critical_path {
                                g.write_json(w);
                            }
                        });
                    });
                }
            });
        })
    }
}

impl DesignReport {
    /// The `name`, `bits` and `kind` members both reports open with.
    fn write_identity(&self, w: &mut JsonWriter) {
        w.key("name").str(&self.name);
        w.key("bits").raw(self.bits);
        w.key("kind").str(self.kind.as_str());
    }

    /// The members of one `appmult-lint/v2` design record.
    fn write_lint_json(&self, w: &mut JsonWriter) {
        self.write_identity(w);
        w.key("errors").raw(self.error_count());
        w.key("warnings").raw(self.warning_count());
        w.key("equivalence");
        match &self.equivalence {
            Some(MultiplierEquiv::Equivalent {
                patterns,
                exhaustive,
            }) => w.object(Layout::Pretty, |w| {
                w.key("status").str("equivalent");
                w.key("exhaustive").raw(exhaustive);
                w.key("patterns").raw(patterns);
            }),
            Some(MultiplierEquiv::Counterexample(c)) => w.object(Layout::Pretty, |w| {
                w.key("status").str("counterexample");
                w.key("w").raw(c.w);
                w.key("x").raw(c.x);
                w.key("got").raw(c.got);
                w.key("expected").raw(c.expected);
            }),
            None => w.null(),
        };
        w.key("analysis");
        match &self.analysis {
            Some(a) => w.object(Layout::Pretty, |w| a.write_summary(w)),
            None => w.null(),
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

impl DesignAnalysis {
    /// The cost, structure and STA-agreement members shared by the LINT
    /// `analysis` object and the ANALYZE design records.
    fn write_summary(&self, w: &mut JsonWriter) {
        w.key("delay_ps").f64(self.cost.delay_ps);
        w.key("area_um2").f64(self.cost.area_um2);
        w.key("power_uw").f64(self.cost.power_uw);
        w.key("depth").raw(self.depth);
        w.key("live_gates").raw(self.live_gates);
        w.key("duplicate_gates").raw(self.duplicate_gates);
        w.key("const_gates").raw(self.const_gates);
        w.key("stuck_outputs").raw(self.stuck_outputs);
        w.key("sta_matches_cost_model")
            .raw(self.sta_matches_cost_model);
    }
}

/// Runs every applicable pass over one multiplier.
///
/// Designs with a gate-level structure get the structural lints, a
/// behaviour cross-check (exhaustive circuit products vs the behavioural
/// LUT), and miter-based equivalence against the exact array multiplier;
/// LUT-only designs fall back to an exhaustive table scan. All designs get
/// the LUT metric sanity pass and the Eq. 5/6 gradient consistency pass at
/// the given half window size. The expected behaviour class (`kind`) is
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

    let cfg = EquivConfig::default();
    let mut analysis = None;
    let equivalence = match m.circuit() {
        Some(circuit) => {
            let (circuit_diags, circuit_analysis) = lint_circuit_with_analysis(&circuit);
            diagnostics.extend(circuit_diags);
            analysis = Some(circuit_analysis);
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
            let reference = MultiplierCircuit::array(bits);
            match prove_multiplier_equivalence(&circuit, &reference, &cfg) {
                Ok(r) => Some(r),
                Err(e) => {
                    diagnostics.push(Diagnostic::error(
                        "miter",
                        name.to_string(),
                        format!("miter construction failed: {e}"),
                    ));
                    None
                }
            }
        }
        None => Some(lut_equivalence_vs_exact(lut)),
    };

    // The equivalence verdict must agree with the expected behaviour class.
    match (&equivalence, kind) {
        (Some(MultiplierEquiv::Counterexample(c)), DesignKind::Exact) => {
            diagnostics.push(Diagnostic::error(
                "equivalence",
                name.to_string(),
                format!("exact design disagrees with the reference: {c}"),
            ));
        }
        (Some(MultiplierEquiv::Equivalent { exhaustive, .. }), k)
            if k != DesignKind::Exact && *exhaustive =>
        {
            diagnostics.push(Diagnostic::error(
                "equivalence",
                name.to_string(),
                format!(
                    "{} design proved equivalent to the exact multiplier",
                    k.as_str()
                ),
            ));
        }
        _ => {}
    }

    let grads = GradientLut::build(lut, GradientMode::difference_based(hws.max(1)));
    diagnostics.extend(lint_gradient_lut(lut, &grads, hws.max(1)));

    DesignReport {
        name: name.to_string(),
        bits,
        kind,
        diagnostics,
        equivalence,
        analysis,
    }
}

/// Negative control: the 8-bit array multiplier with its first live
/// physical gate stuck at 1, checked structurally through the miter.
fn lint_stuck_at_variant() -> DesignReport {
    let base = MultiplierCircuit::array(8);
    let site = fault_sites(base.netlist())[0];
    let mut faulted = base.netlist().clone();
    faulted
        .replace_with_const(site, true)
        .expect("fault site belongs to the netlist");
    let circuit = MultiplierCircuit::from_netlist(faulted, 8)
        .expect("fault injection preserves the bus shapes");
    let name = format!("mul8u_array_sa1@{site}");

    let (mut diagnostics, analysis) = lint_circuit_with_analysis(&circuit);
    // The fault ties logic to a constant, so the ternary pass must find a
    // constant cone or a stuck output; its silence would be a lint bug.
    if analysis.const_gates == 0 && analysis.stuck_outputs == 0 {
        diagnostics.push(Diagnostic::error(
            "ternary",
            name.clone(),
            "stuck-at-1 fault was not detected by constant propagation",
        ));
    }
    let equivalence = match prove_multiplier_equivalence(&circuit, &base, &EquivConfig::default()) {
        Ok(r) => Some(r),
        Err(e) => {
            diagnostics.push(Diagnostic::error(
                "miter",
                name.clone(),
                format!("miter construction failed: {e}"),
            ));
            None
        }
    };
    if let Some(MultiplierEquiv::Equivalent { .. }) = equivalence {
        diagnostics.push(Diagnostic::error(
            "equivalence",
            name.clone(),
            "stuck-at-1 fault was not detected by the miter",
        ));
    }
    DesignReport {
        name,
        bits: 8,
        kind: DesignKind::Faulty,
        diagnostics,
        equivalence,
        analysis: Some(analysis),
    }
}

/// Negative control: the exact 8-bit LUT with 4 memory cells flipped.
fn lint_corrupted_lut_variant() -> DesignReport {
    let clean = appmult_mult::ExactMultiplier::new(8).to_lut();
    let faulty = FaultyMultiplier::corrupt_lut(&clean, 4, 0xBAD_CE11);
    let lut = faulty.clone().into_lut();
    let name = lut.name().to_string();
    // LUT corruption has no gate-level structure, so `analysis` stays
    // `None`: the control exercises the table scan, not the netlist passes.
    let mut report = lint_with_lut(&name, &faulty, &lut, 4, Some(DesignKind::Faulty));
    if let Some(MultiplierEquiv::Equivalent { .. }) = report.equivalence {
        report.diagnostics.push(Diagnostic::error(
            "equivalence",
            name,
            "corrupted LUT cells were not detected by the table scan",
        ));
    }
    report
}

/// Above-limit control: 10-bit array vs Wallace (20 shared input bits),
/// exercising the corner + seeded random sampling path of the checker.
fn lint_sampled_equivalence() -> DesignReport {
    let array = MultiplierCircuit::array(10);
    let wallace = MultiplierCircuit::wallace(10);
    let name = "mul10u_wallace_vs_array".to_string();
    let (mut diagnostics, analysis) = lint_circuit_with_analysis(&wallace);
    let equivalence = match prove_multiplier_equivalence(&wallace, &array, &EquivConfig::default())
    {
        Ok(r) => Some(r),
        Err(e) => {
            diagnostics.push(Diagnostic::error(
                "miter",
                name.clone(),
                format!("miter construction failed: {e}"),
            ));
            None
        }
    };
    if let Some(MultiplierEquiv::Counterexample(c)) = &equivalence {
        diagnostics.push(Diagnostic::error(
            "equivalence",
            name.clone(),
            format!("Wallace and array reductions disagree: {c}"),
        ));
    }
    DesignReport {
        name,
        bits: 10,
        kind: DesignKind::Exact,
        diagnostics,
        equivalence,
        analysis: Some(analysis),
    }
}

/// Runs the full verification sweep: every Table I zoo entry (including
/// the cached `_syn` synthesis results) at its recommended half window
/// size, the two faulty negative controls, and the above-limit sampled
/// equivalence check.
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
    designs.push(lint_sampled_equivalence());
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
            Some(MultiplierEquiv::Equivalent {
                patterns: 1 << 12,
                exhaustive: true
            })
        );
    }

    #[test]
    fn truncated_design_reports_concrete_counterexample() {
        let m = TruncatedMultiplier::new(7, 6);
        let r = lint_multiplier("mul7u_rm6", &m, 4);
        assert_eq!(r.kind, DesignKind::Approximate);
        assert_eq!(r.error_count(), 0, "{:?}", r.diagnostics);
        match r.equivalence {
            Some(MultiplierEquiv::Counterexample(c)) => {
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
        assert!(matches!(
            r.equivalence,
            Some(MultiplierEquiv::Counterexample(_))
        ));
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
        assert!(matches!(
            r.equivalence,
            Some(MultiplierEquiv::Counterexample(_))
        ));
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
        assert!(json.contains("\"schema\": \"appmult-lint/v2\""));
        assert!(json.contains("\"status\": \"equivalent\""));
        assert!(json.contains("\"status\": \"counterexample\""));
        assert!(json.contains("\"sta_matches_cost_model\": true"));
        assert_eq!(json.matches("\"name\":").count(), 2);
        // Balanced braces and brackets (no raw quotes inside values).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn circuit_designs_carry_an_analysis_summary() {
        let r = lint_multiplier("mul5u_acc", &ExactMultiplier::new(5), 1);
        let a = r.analysis.expect("gate-level design is analyzed");
        assert!(a.sta_matches_cost_model);
        assert_eq!(a.duplicate_gates, 0);
        assert_eq!(a.const_gates, 0);
        assert_eq!(a.stuck_outputs, 0);
        assert!(a.depth > 0);
        assert!(!a.critical_path.is_empty());
        assert_eq!(a.slack_histogram.iter().sum::<u32>() as usize, a.live_gates);

        // Truncated designs tie low product columns to const0: declared
        // stuck outputs, still no collapsed logic.
        let r = lint_multiplier("mul5u_rm4", &TruncatedMultiplier::new(5, 4), 2);
        let a = r.analysis.as_ref().expect("gate-level design is analyzed");
        assert_eq!(a.stuck_outputs, 4);
        assert_eq!(r.error_count(), 0, "{:?}", r.diagnostics);
    }

    #[test]
    fn stuck_at_control_trips_constant_propagation() {
        let r = lint_stuck_at_variant();
        let a = r.analysis.as_ref().expect("netlist variant is analyzed");
        assert!(
            a.const_gates + a.stuck_outputs > 0,
            "the injected constant must be visible to the ternary pass"
        );
        assert!(
            r.diagnostics.iter().all(|d| d.pass != "ternary"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn analysis_json_is_well_formed() {
        let report = ZooLintReport {
            designs: vec![
                lint_multiplier("mul5u_acc", &ExactMultiplier::new(5), 1),
                lint_corrupted_lut_variant(),
            ],
        };
        let json = report.analysis_json();
        assert!(json.contains("\"schema\": \"appmult-analyze/v1\""));
        assert!(json.contains("\"design_count\": 2"));
        // The LUT-only control is omitted from the analyzed designs.
        assert!(json.contains("\"analyzed_count\": 1"));
        assert!(json.contains("\"critical_path\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
