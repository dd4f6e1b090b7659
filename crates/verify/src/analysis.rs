//! Shared, cached analysis context over a netlist.
//!
//! Every analysis pass in this crate — static timing ([`crate::sta`]),
//! ternary constant propagation ([`crate::ternary_analysis`]), structural
//! hashing ([`crate::strash`]), and the observability lints — needs some
//! combination of levelization, fanout adjacency, output reachability, and
//! signal probabilities. Before this module each pass recomputed its own
//! traversals; the [`AnalysisContext`] computes each derived view **once**,
//! on first use, and lends it to every pass, so two passes can never
//! disagree about which gates are live or how deep the logic is.
//!
//! [`analyze_netlist`] runs the full pass stack over one netlist and
//! returns a [`NetlistAnalysis`] with the timing report, duplicate-logic
//! classes, constant cones, and lint diagnostics in a single call; the
//! zoo sweep builds `results/ANALYZE.json` from it.

use std::cell::OnceCell;

use appmult_circuit::{signal_probabilities, CostModel, HardwareCost, Netlist, Signal};

use crate::diag::Diagnostic;
use crate::sta::{sta, StaReport};
use crate::strash::{strash, StrashReport};
use crate::structural::lint_netlist_with;
use crate::ternary::{ternary_analysis, TernaryReport};

/// Cached derived views of one [`Netlist`], computed lazily and at most
/// once.
///
/// The context borrows the netlist, so it is guaranteed to describe a
/// frozen snapshot: any mutation requires dropping the context first,
/// which is exactly the invalidation rule a cache needs.
///
/// # Example
///
/// ```
/// use appmult_circuit::Netlist;
/// use appmult_verify::AnalysisContext;
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let y = nl.and(a, b);
/// let dead = nl.xor(a, b);
/// nl.set_outputs(vec![y]);
/// let ctx = AnalysisContext::new(&nl);
/// assert!(ctx.live()[y.index()]);
/// assert!(!ctx.live()[dead.index()]);
/// assert_eq!(ctx.levels()[y.index()], 1);
/// ```
pub struct AnalysisContext<'n> {
    netlist: &'n Netlist,
    levels: OnceCell<Vec<u32>>,
    fanouts: OnceCell<Vec<Vec<Signal>>>,
    fanout_counts: OnceCell<Vec<u32>>,
    live: OnceCell<Vec<bool>>,
    probabilities: OnceCell<Vec<f64>>,
}

impl<'n> AnalysisContext<'n> {
    /// Wraps a netlist; nothing is computed until a view is requested.
    pub fn new(netlist: &'n Netlist) -> Self {
        Self {
            netlist,
            levels: OnceCell::new(),
            fanouts: OnceCell::new(),
            fanout_counts: OnceCell::new(),
            live: OnceCell::new(),
            probabilities: OnceCell::new(),
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Logic level per node (see [`Netlist::levels`]).
    pub fn levels(&self) -> &[u32] {
        self.levels.get_or_init(|| self.netlist.levels())
    }

    /// Fanout adjacency per signal (see [`Netlist::fanout_lists`]).
    pub fn fanout_lists(&self) -> &[Vec<Signal>] {
        self.fanouts.get_or_init(|| self.netlist.fanout_lists())
    }

    /// Fanin-slot fanout count per signal (see [`Netlist::fanout_counts`]).
    pub fn fanout_counts(&self) -> &[u32] {
        self.fanout_counts
            .get_or_init(|| self.netlist.fanout_counts())
    }

    /// Output-reachability mask: the single source of truth for liveness.
    ///
    /// Delegates to [`Netlist::live_mask`] — the same implementation the
    /// cost model uses — so the cost model, the dead-gate lints, and the
    /// observability pass can never disagree about which logic is dead.
    pub fn live(&self) -> &[bool] {
        self.live.get_or_init(|| self.netlist.live_mask())
    }

    /// Exact signal one-probabilities under uniform inputs (see
    /// [`signal_probabilities`]).
    ///
    /// # Panics
    ///
    /// Panics (on first use) if the netlist has more than 24 primary
    /// inputs; the other views have no such limit.
    pub fn probabilities(&self) -> &[f64] {
        self.probabilities
            .get_or_init(|| signal_probabilities(self.netlist))
    }

    /// Maximum logic level over the primary outputs (the levelized depth).
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.netlist
            .outputs()
            .iter()
            .map(|s| levels[s.index()])
            .max()
            .unwrap_or(0)
    }
}

/// Everything the analysis framework can say about one netlist: `cost`
/// and `sta` score it, `diagnostics` carry every lint finding, and the
/// strash/ternary reports quantify its redundant logic.
#[derive(Debug, Clone)]
pub struct NetlistAnalysis {
    /// Calibrated area/delay/power from the cost model.
    pub cost: HardwareCost,
    /// Static timing report (arrival/required/slack, critical path).
    pub sta: StaReport,
    /// Structural-hashing report (duplicate logic classes).
    pub strash: StrashReport,
    /// Ternary constant-propagation report (constant cones, stuck outputs).
    pub ternary: TernaryReport,
    /// Levelized logic depth over the primary outputs.
    pub depth: u32,
    /// Number of output-reachable physical gates.
    pub live_gates: usize,
    /// Full lint findings (structural lints plus every analysis pass).
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs the full analysis stack — structural lints, static timing,
/// structural hashing, and ternary constant propagation — over one netlist
/// through a single shared [`AnalysisContext`].
pub fn analyze_netlist(netlist: &Netlist, model: &CostModel) -> NetlistAnalysis {
    let ctx = AnalysisContext::new(netlist);
    // `lint_netlist_with` already folds in the strash and ternary passes.
    let mut diagnostics = lint_netlist_with(&ctx);
    let sta = sta(&ctx, model);
    diagnostics.extend(sta.consistency_diagnostics(model, netlist));
    // The cost model (and the liveness traversal it needs) panics on
    // out-of-range references and on more than 24 inputs; such netlists
    // already carry structural errors, so score them as zero-cost invalid.
    let n = netlist.num_nodes();
    let in_range = netlist
        .iter()
        .all(|(_, g)| (0..g.kind.arity()).all(|k| g.fanins[k].index() < n))
        && netlist.outputs().iter().all(|s| s.index() < n);
    if netlist.num_inputs() > 24 {
        // The exhaustive simulator (and therefore NMED scoring) cannot
        // evaluate such a netlist; make the capacity breach an error so
        // it is reported instead of silently zero-costed.
        diagnostics.push(Diagnostic::error(
            "capacity",
            "netlist",
            format!(
                "netlist has {} primary inputs; exhaustive analysis supports at most 24",
                netlist.num_inputs()
            ),
        ));
    }
    let cost = if in_range && netlist.num_inputs() <= 24 {
        model.estimate_netlist(netlist)
    } else {
        HardwareCost {
            area_um2: 0.0,
            delay_ps: 0.0,
            power_uw: 0.0,
        }
    };
    NetlistAnalysis {
        cost,
        sta,
        strash: strash(&ctx),
        ternary: ternary_analysis(&ctx),
        depth: ctx.depth(),
        live_gates: if in_range {
            netlist.live_gate_count()
        } else {
            0
        },
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;

    #[test]
    fn context_views_are_computed_once_and_agree() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let (s, c) = nl.full_adder(a, b, a);
        nl.set_outputs(vec![s, c]);
        let ctx = AnalysisContext::new(&nl);
        // Same slice on repeated access (cached, not recomputed).
        assert!(std::ptr::eq(ctx.levels(), ctx.levels()));
        assert!(std::ptr::eq(ctx.live(), ctx.live()));
        assert!(std::ptr::eq(ctx.fanout_lists(), ctx.fanout_lists()));
        // And the cached views agree with the netlist's own helpers.
        assert_eq!(ctx.levels(), &nl.levels()[..]);
        assert_eq!(ctx.live(), &nl.live_mask()[..]);
        assert_eq!(ctx.fanout_counts(), &nl.fanout_counts()[..]);
        // sum is two levels deep, the or-of-ands carry chain is three.
        assert_eq!(ctx.depth(), 3);
        let p = ctx.probabilities();
        assert!((p[a.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analyze_netlist_scores_and_validates() {
        let circuit = appmult_circuit::MultiplierCircuit::array(4);
        let model = CostModel::asap7();
        let analysis = analyze_netlist(circuit.netlist(), &model);
        assert!(
            !has_errors(&analysis.diagnostics),
            "{:?}",
            analysis.diagnostics
        );
        assert_eq!(
            analysis.sta.delay_ps.to_bits(),
            model.estimate(&circuit).delay_ps.to_bits(),
            "STA must be bit-identical to the cost model"
        );
        assert!(analysis.cost.area_um2 > 0.0);
        assert!(!analysis.sta.critical_path.is_empty());
    }

    #[test]
    fn analyze_netlist_rejects_over_capacity_input_counts() {
        let mut nl = Netlist::new();
        let inputs: Vec<_> = (0..25).map(|_| nl.input()).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = nl.and(acc, i);
        }
        nl.set_outputs(vec![acc]);
        let analysis = analyze_netlist(&nl, &CostModel::asap7());
        assert!(has_errors(&analysis.diagnostics));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.pass == "capacity" && d.severity == crate::Severity::Error));
        // A 24-input netlist is still within capacity.
        let mut ok = Netlist::new();
        let inputs: Vec<_> = (0..24).map(|_| ok.input()).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = ok.and(acc, i);
        }
        ok.set_outputs(vec![acc]);
        assert!(!has_errors(
            &analyze_netlist(&ok, &CostModel::asap7()).diagnostics
        ));
    }

    #[test]
    fn analyze_netlist_flags_invalid_candidates() {
        // A cyclic netlist must be rejected by the validity oracle: g's
        // first fanin is rewired to h, which reads g.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and(a, b);
        let h = nl.or(g, a);
        let mut gates: Vec<_> = nl.iter().map(|(_, gate)| gate).collect();
        gates[g.index()].fanins[0] = h;
        let nl = Netlist::from_raw_parts(gates, vec![a, b], vec![h]);
        let analysis = analyze_netlist(&nl, &CostModel::asap7());
        assert!(has_errors(&analysis.diagnostics));
    }
}
