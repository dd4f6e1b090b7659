//! Structural netlist lints.
//!
//! A [`Netlist`] is valid by construction: the builder refuses a fanin
//! that does not precede its gate, [`Netlist::set_outputs`] refuses a
//! foreign signal, the in-place rewrites of ALS and fault injection refuse
//! a replacement that would form a cycle, and the `MultiplierCircuit`
//! constructors check the `2B`-input / `2B`-output bus convention. What a
//! valid netlist can still carry is logic that a synthesis tool would
//! remove, and these passes report it.

use appmult_circuit::{GateKind, Netlist};

use crate::lint::diag::Diagnostic;

/// Runs every structural pass over `netlist` and collects the findings.
///
/// Pass names in the produced diagnostics:
///
/// - `dead-gate` — the observability pass: a physical gate that is
///   fanout-free or unreachable from every primary output (warning).
/// - `const-fold` — a gate that a constant-propagation pass would remove
///   for purely local reasons: constant fanins or twin fanins (info).
pub fn lint_netlist(netlist: &Netlist) -> Vec<Diagnostic> {
    let mut diags = check_observability(netlist);
    diags.extend(check_const_foldable(netlist));
    diags
}

/// The observability pass: physical gates that drive nothing
/// (fanout-free), or whose value never reaches any primary output
/// (dead cone). Liveness comes from [`Netlist::live_mask`], the same
/// traversal the cost model's area/power accounting is built on, so
/// "dead" here and "free" there can never disagree.
fn check_observability(netlist: &Netlist) -> Vec<Diagnostic> {
    let fanout = netlist.fanout_counts();
    let live = netlist.live_mask();
    let mut is_output = vec![false; netlist.num_nodes()];
    for &o in netlist.outputs() {
        is_output[o.index()] = true;
    }
    let mut diags = Vec::new();
    for (sig, gate) in netlist.iter() {
        let i = sig.index();
        if !gate.kind.is_physical() || is_output[i] {
            continue;
        }
        if fanout[i] == 0 {
            diags.push(Diagnostic::warning(
                "dead-gate",
                format!("{sig}"),
                format!(
                    "{} gate {sig} is fanout-free and not a primary output",
                    gate.kind
                ),
            ));
        } else if !live[i] {
            diags.push(Diagnostic::warning(
                "dead-gate",
                format!("{sig}"),
                format!(
                    "{} gate {sig} feeds only dead logic (unreachable from every output)",
                    gate.kind
                ),
            ));
        }
    }
    diags
}

/// Gates a constant-propagation pass would remove: constant fanins or a
/// two-input gate fed twice by the same signal.
fn check_const_foldable(netlist: &Netlist) -> Vec<Diagnostic> {
    let kinds: Vec<GateKind> = netlist.iter().map(|(_, g)| g.kind).collect();
    let mut diags = Vec::new();
    for (sig, gate) in netlist.iter() {
        let arity = gate.kind.arity();
        if arity == 0 {
            continue;
        }
        for slot in 0..arity {
            let fk = kinds[gate.fanins[slot].index()];
            if matches!(fk, GateKind::Const0 | GateKind::Const1) {
                diags.push(Diagnostic::info(
                    "const-fold",
                    format!("{sig}"),
                    format!(
                        "{} gate {sig} has constant fanin {} ({fk}); foldable",
                        gate.kind, gate.fanins[slot]
                    ),
                ));
                break;
            }
        }
        if arity == 2 && gate.fanins[0] == gate.fanins[1] {
            diags.push(Diagnostic::info(
                "const-fold",
                format!("{sig}"),
                format!(
                    "both fanins of {} gate {sig} are {}; reducible to a simpler node",
                    gate.kind, gate.fanins[0]
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::diag::Severity;
    use appmult_circuit::MultiplierCircuit;

    fn by_pass<'d>(diags: &'d [Diagnostic], pass: &str) -> Vec<&'d Diagnostic> {
        diags.iter().filter(|d| d.pass == pass).collect()
    }

    #[test]
    fn builder_netlists_lint_clean() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let (s, c) = nl.full_adder(a, b, a);
        nl.set_outputs(vec![s, c]);
        assert!(lint_netlist(&nl).is_empty());
    }

    #[test]
    fn dead_gates_are_reported() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let used = nl.and(a, b);
        let _dead = nl.xor(a, b);
        nl.set_outputs(vec![used]);
        let diags = lint_netlist(&nl);
        let dead = by_pass(&diags, "dead-gate");
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Warning);
    }

    #[test]
    fn dead_cone_is_distinguished_from_fanout_free() {
        // feeder -> sink, sink fanout-free: feeder has fanout but is dead.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let out = nl.or(a, b);
        let feeder = nl.and(a, b);
        let _sink = nl.xor(feeder, a);
        nl.set_outputs(vec![out]);
        let diags = lint_netlist(&nl);
        let dead = by_pass(&diags, "dead-gate");
        assert_eq!(dead.len(), 2);
        assert!(dead.iter().any(|d| d.message.contains("fanout-free")));
        assert!(dead.iter().any(|d| d.message.contains("dead logic")));
    }

    #[test]
    fn const_fanins_and_twin_fanins_are_info() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let one = nl.const1();
        let folded = nl.and(a, one);
        let twin = nl.xor(a, a);
        let out = nl.or(folded, twin);
        nl.set_outputs(vec![out]);
        let diags = lint_netlist(&nl);
        let folds = by_pass(&diags, "const-fold");
        assert_eq!(folds.len(), 2);
        assert!(folds.iter().all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn generated_multipliers_lint_clean() {
        for circuit in [MultiplierCircuit::array(4), MultiplierCircuit::wallace(5)] {
            let diags = lint_netlist(circuit.netlist());
            assert!(
                diags.iter().all(|d| d.severity < Severity::Warning),
                "{diags:?}"
            );
        }
    }
}
