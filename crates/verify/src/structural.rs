//! Structural netlist lints.
//!
//! These passes check the invariants the rest of the workspace silently
//! relies on: the simulator evaluates nodes in one forward pass (so fanins
//! must precede their gates and cycles are fatal), the cost model only
//! counts reachable logic, and the multiplier wrappers assume the
//! `w`/`x`/product bus convention. Netlists produced by the checked builder
//! always lint clean; the passes exist for netlists assembled through
//! [`Netlist::from_raw_parts`] or mutated by synthesis passes.

use appmult_circuit::{Gate, GateKind, MultiplierCircuit, Netlist};

use crate::diag::Diagnostic;

/// Runs every structural pass over `netlist` and collects the findings.
///
/// Pass names in the produced diagnostics:
///
/// - `dangling` — a fanin or output references a signal outside the node
///   table (error).
/// - `io` — the primary input list disagrees with the `Input` nodes, or no
///   outputs are registered (error).
/// - `topology` — a fanin does not precede its gate, so single-pass
///   simulation would read a stale value (error).
/// - `cycle` — a combinational cycle (error; every cycle also implies at
///   least one `topology` finding).
/// - `arity` — a single-fanin gate whose two fanin slots disagree with the
///   builder convention (warning).
/// - `dead-gate` — the observability pass: a physical gate that is
///   fanout-free or unreachable from every primary output (warning).
/// - `const-fold` — a gate that a constant-propagation pass would remove
///   for purely local reasons: constant fanins or twin fanins (info).
///
/// Deep traversals (cycles, liveness, const-folding) are skipped when
/// `dangling` errors are present, since out-of-range indices make them
/// meaningless.
pub fn lint_netlist(netlist: &Netlist) -> Vec<Diagnostic> {
    let (mut diags, traversable) = check_structure(netlist);
    if traversable {
        diags.extend(check_cycles(netlist));
        diags.extend(check_observability(netlist));
        diags.extend(check_const_foldable(netlist));
    }
    diags
}

/// Lints a multiplier circuit: the generic netlist passes plus the
/// `width` pass checking the `2B`-input / `2B`-output bus convention.
pub fn lint_multiplier_circuit(circuit: &MultiplierCircuit) -> Vec<Diagnostic> {
    let mut diags = lint_netlist(circuit.netlist());
    diags.extend(width_diagnostics(circuit));
    diags
}

/// The `width` pass alone: bus-convention checks for a multiplier circuit.
fn width_diagnostics(circuit: &MultiplierCircuit) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let expect = 2 * circuit.bits() as usize;
    let inputs = circuit.netlist().num_inputs();
    let outputs = circuit.netlist().outputs().len();
    if inputs != expect {
        diags.push(Diagnostic::error(
            "width",
            "inputs",
            format!(
                "{}-bit multiplier has {inputs} primary inputs, expected {expect}",
                circuit.bits()
            ),
        ));
    }
    if outputs != expect {
        diags.push(Diagnostic::error(
            "width",
            "outputs",
            format!(
                "{}-bit multiplier has {outputs} primary outputs, expected {expect}",
                circuit.bits()
            ),
        ));
    }
    diags
}

/// Range, input-list, output-list, topological-order, and arity checks.
/// Returns the diagnostics and whether index-based traversals are safe.
fn check_structure(netlist: &Netlist) -> (Vec<Diagnostic>, bool) {
    let mut diags = Vec::new();
    let n = netlist.num_nodes();
    let mut in_range = true;

    for (sig, gate) in netlist.iter() {
        for slot in 0..gate.kind.arity() {
            let fanin = gate.fanins[slot];
            if fanin.index() >= n {
                in_range = false;
                diags.push(Diagnostic::error(
                    "dangling",
                    format!("{sig}"),
                    format!(
                        "fanin slot {slot} of {} gate {sig} references undefined signal {fanin}",
                        gate.kind
                    ),
                ));
            } else if fanin.index() >= sig.index() {
                diags.push(Diagnostic::error(
                    "topology",
                    format!("{sig}"),
                    format!("fanin {fanin} does not precede {} gate {sig}; single-pass simulation reads a stale value", gate.kind),
                ));
            }
        }
        if gate.kind.arity() == 1 && gate.fanins[1] != gate.fanins[0] {
            diags.push(Diagnostic::warning(
                "arity",
                format!("{sig}"),
                format!(
                    "single-fanin {} gate has misaligned fanin slots ({} vs {})",
                    gate.kind, gate.fanins[0], gate.fanins[1]
                ),
            ));
        }
    }

    // The simulator feeds `input_words[i]` to the i-th Input node in
    // topological order; the registered input list must match exactly.
    let mut list_ok = true;
    for (i, &input) in netlist.inputs().iter().enumerate() {
        match netlist.try_gate(input) {
            Ok(g) if g.kind == GateKind::Input => {}
            Ok(g) => {
                list_ok = false;
                diags.push(Diagnostic::error(
                    "io",
                    format!("{input}"),
                    format!("inputs[{i}] is a {} gate, not a primary input", g.kind),
                ));
            }
            Err(_) => {
                list_ok = false;
                diags.push(Diagnostic::error(
                    "io",
                    format!("{input}"),
                    format!("inputs[{i}] references undefined signal {input}"),
                ));
            }
        }
    }
    if list_ok {
        let actual: Vec<_> = netlist
            .iter()
            .filter(|(_, g)| g.kind == GateKind::Input)
            .map(|(s, _)| s)
            .collect();
        if actual != netlist.inputs() {
            diags.push(Diagnostic::error(
                "io",
                "inputs",
                format!(
                    "input list ({} entries) disagrees with the {} Input nodes in netlist order",
                    netlist.num_inputs(),
                    actual.len()
                ),
            ));
        }
    }

    if netlist.outputs().is_empty() {
        diags.push(Diagnostic::error(
            "io",
            "outputs",
            "no primary outputs registered; every gate is dead",
        ));
    }
    for (i, &output) in netlist.outputs().iter().enumerate() {
        if output.index() >= n {
            in_range = false;
            diags.push(Diagnostic::error(
                "dangling",
                format!("{output}"),
                format!("outputs[{i}] references undefined signal {output}"),
            ));
        }
    }

    (diags, in_range)
}

/// Depth-first search for combinational cycles (gray-node back edges).
fn check_cycles(netlist: &Netlist) -> Vec<Diagnostic> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let gates: Vec<Gate> = netlist.iter().map(|(_, g)| g).collect();
    let n = gates.len();
    let mut color = vec![WHITE; n];
    let mut diags = Vec::new();
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        color[root] = GRAY;
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(top) = stack.last_mut() {
            let (node, slot) = *top;
            if slot < gates[node].kind.arity() {
                top.1 += 1;
                let fanin = gates[node].fanins[slot].index();
                match color[fanin] {
                    WHITE => {
                        color[fanin] = GRAY;
                        stack.push((fanin, 0));
                    }
                    GRAY => {
                        diags.push(Diagnostic::error(
                            "cycle",
                            format!("n{node}"),
                            format!(
                                "combinational cycle: fanin n{fanin} of n{node} is on the current evaluation path"
                            ),
                        ));
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
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
    use crate::diag::Severity;
    use appmult_circuit::Signal;

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
    fn cyclic_netlist_is_reported() {
        // Build a valid netlist, then rewire g's fanin to its own fanout.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and(a, b);
        let h = nl.or(g, a);
        let mut gates: Vec<Gate> = nl.iter().map(|(_, gate)| gate).collect();
        gates[g.index()].fanins[0] = h;
        let nl = Netlist::from_raw_parts(gates, vec![a, b], vec![h]);
        let diags = lint_netlist(&nl);
        assert_eq!(by_pass(&diags, "cycle").len(), 1, "{diags:?}");
        assert_eq!(by_pass(&diags, "topology").len(), 1);
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn undriven_signal_is_reported() {
        // A raw netlist whose AND gate reads a signal that does not exist.
        let gates = vec![
            Gate {
                kind: GateKind::Input,
                fanins: [Signal::from_index(0); 2],
            },
            Gate {
                kind: GateKind::And,
                fanins: [Signal::from_index(0), Signal::from_index(9)],
            },
        ];
        let nl = Netlist::from_raw_parts(
            gates,
            vec![Signal::from_index(0)],
            vec![Signal::from_index(1)],
        );
        let diags = lint_netlist(&nl);
        let dangling = by_pass(&diags, "dangling");
        assert_eq!(dangling.len(), 1);
        assert!(dangling[0].message.contains("n9"));
        // Deep traversals are skipped, so no spurious cycle/dead findings.
        assert!(by_pass(&diags, "cycle").is_empty());
    }

    #[test]
    fn missing_outputs_and_dead_gates_are_reported() {
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

        let mut no_outputs = Netlist::new();
        let a = no_outputs.input();
        let b = no_outputs.input();
        no_outputs.and(a, b);
        let diags = lint_netlist(&no_outputs);
        assert_eq!(by_pass(&diags, "io").len(), 1);
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
    fn input_list_mismatch_is_reported() {
        // inputs list names an AND gate instead of the Input node.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and(a, b);
        nl.set_outputs(vec![g]);
        let raw = Netlist::from_raw_parts(nl.iter().map(|(_, g)| g).collect(), vec![a, g], vec![g]);
        let diags = lint_netlist(&raw);
        assert!(!by_pass(&diags, "io").is_empty());
    }

    #[test]
    fn generated_multipliers_lint_clean() {
        for circuit in [MultiplierCircuit::array(4), MultiplierCircuit::wallace(5)] {
            let diags = lint_multiplier_circuit(&circuit);
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{errors:?}");
        }
    }

    #[test]
    fn width_violation_is_reported() {
        // An adder-shaped netlist is not a multiplier: 2B inputs but B+1
        // outputs.
        let mut adder = Netlist::new();
        let ins: Vec<Signal> = (0..8).map(|_| adder.input()).collect();
        let outs: Vec<Signal> = (0..5).map(|i| adder.xor(ins[i], ins[i + 3])).collect();
        adder.set_outputs(outs);
        let circuit = MultiplierCircuit::from_netlist(adder, 4);
        assert!(circuit.is_err(), "from_netlist itself rejects bad shapes");
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and(a, b);
        nl.set_outputs(vec![g, g]);
        let circuit = MultiplierCircuit::from_netlist(nl, 1).unwrap();
        assert!(lint_multiplier_circuit(&circuit)
            .iter()
            .all(|d| d.pass != "width"));
    }
}
