//! Netlist export to structural Verilog and BLIF.
//!
//! The generated and ALS-rewritten multipliers can be handed to real EDA
//! flows (Yosys, ABC, Design Compiler) for independent synthesis and
//! verification. Both writers emit the live cone only, with stable port
//! names: inputs `i0, i1, ...` in [`Netlist::inputs`] order and outputs
//! `o0, o1, ...` in [`Netlist::outputs`] order.

use std::fmt::Write as _;

use crate::netlist::{GateKind, Netlist, Signal};

/// Emits a structural Verilog module for the netlist.
///
/// Gates are written as continuous `assign` statements over `wire`s, which
/// every synthesis tool accepts. Dead logic is skipped.
///
/// # Example
///
/// ```
/// use appmult_circuit::{to_verilog, Netlist};
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let s = nl.xor(a, b);
/// nl.set_outputs(vec![s]);
/// let v = to_verilog(&nl, "half_xor");
/// assert!(v.contains("module half_xor"));
/// assert!(v.contains("^"));
/// ```
pub fn to_verilog(netlist: &Netlist, module_name: &str) -> String {
    let live = netlist.live_mask();
    let mut s = String::new();
    let n_in = netlist.num_inputs();
    let n_out = netlist.outputs().len();
    let ports: Vec<String> = (0..n_in)
        .map(|i| format!("i{i}"))
        .chain((0..n_out).map(|o| format!("o{o}")))
        .collect();
    let _ = writeln!(s, "module {module_name}({});", ports.join(", "));
    for i in 0..n_in {
        let _ = writeln!(s, "  input i{i};");
    }
    for o in 0..n_out {
        let _ = writeln!(s, "  output o{o};");
    }

    // Name map: inputs get port names, everything else wires.
    let mut input_index = vec![usize::MAX; netlist.num_nodes()];
    let mut next_input = 0usize;
    for (sig, gate) in netlist.iter() {
        if gate.kind == GateKind::Input {
            input_index[sig.index()] = next_input;
            next_input += 1;
        }
    }
    let name = |sig: Signal| -> String {
        if input_index[sig.index()] != usize::MAX {
            format!("i{}", input_index[sig.index()])
        } else {
            format!("n{}", sig.index())
        }
    };

    for (sig, gate) in netlist.iter() {
        if !live[sig.index()] || gate.kind == GateKind::Input {
            continue;
        }
        let lhs = name(sig);
        let a = name(gate.fanins[0]);
        let b = name(gate.fanins[1]);
        let expr = match gate.kind {
            GateKind::Const0 => "1'b0".to_string(),
            GateKind::Const1 => "1'b1".to_string(),
            GateKind::Buf => a,
            GateKind::Not => format!("~{a}"),
            GateKind::And => format!("{a} & {b}"),
            GateKind::Or => format!("{a} | {b}"),
            GateKind::Xor => format!("{a} ^ {b}"),
            GateKind::Nand => format!("~({a} & {b})"),
            GateKind::Nor => format!("~({a} | {b})"),
            GateKind::Xnor => format!("~({a} ^ {b})"),
            GateKind::Input => unreachable!("inputs skipped"),
        };
        let _ = writeln!(s, "  wire {lhs};");
        let _ = writeln!(s, "  assign {lhs} = {expr};");
    }
    for (o, sig) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(s, "  assign o{o} = {};", name(*sig));
    }
    let _ = writeln!(s, "endmodule");
    s
}

/// Emits the netlist in Berkeley BLIF (`.names` cover notation), the
/// lingua franca of academic logic-synthesis tools (ABC, ALSRAC, ...).
///
/// # Example
///
/// ```
/// use appmult_circuit::{to_blif, Netlist};
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let y = nl.and(a, b);
/// nl.set_outputs(vec![y]);
/// let blif = to_blif(&nl, "and2");
/// assert!(blif.contains(".model and2"));
/// assert!(blif.contains("11 1"));
/// ```
pub fn to_blif(netlist: &Netlist, model_name: &str) -> String {
    let live = netlist.live_mask();
    let mut s = String::new();
    let n_in = netlist.num_inputs();
    let n_out = netlist.outputs().len();
    let _ = writeln!(s, ".model {model_name}");
    let _ = writeln!(
        s,
        ".inputs {}",
        (0..n_in)
            .map(|i| format!("i{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        s,
        ".outputs {}",
        (0..n_out)
            .map(|o| format!("o{o}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut input_index = vec![usize::MAX; netlist.num_nodes()];
    let mut next_input = 0usize;
    for (sig, gate) in netlist.iter() {
        if gate.kind == GateKind::Input {
            input_index[sig.index()] = next_input;
            next_input += 1;
        }
    }
    let name = |sig: Signal| -> String {
        if input_index[sig.index()] != usize::MAX {
            format!("i{}", input_index[sig.index()])
        } else {
            format!("n{}", sig.index())
        }
    };

    for (sig, gate) in netlist.iter() {
        if !live[sig.index()] || gate.kind == GateKind::Input {
            continue;
        }
        let lhs = name(sig);
        let a = name(gate.fanins[0]);
        let b = name(gate.fanins[1]);
        match gate.kind {
            GateKind::Const0 => {
                let _ = writeln!(s, ".names {lhs}");
            }
            GateKind::Const1 => {
                let _ = writeln!(s, ".names {lhs}\n1");
            }
            GateKind::Buf => {
                let _ = writeln!(s, ".names {a} {lhs}\n1 1");
            }
            GateKind::Not => {
                let _ = writeln!(s, ".names {a} {lhs}\n0 1");
            }
            GateKind::And => {
                let _ = writeln!(s, ".names {a} {b} {lhs}\n11 1");
            }
            GateKind::Or => {
                let _ = writeln!(s, ".names {a} {b} {lhs}\n1- 1\n-1 1");
            }
            GateKind::Xor => {
                let _ = writeln!(s, ".names {a} {b} {lhs}\n10 1\n01 1");
            }
            GateKind::Nand => {
                let _ = writeln!(s, ".names {a} {b} {lhs}\n0- 1\n-0 1");
            }
            GateKind::Nor => {
                let _ = writeln!(s, ".names {a} {b} {lhs}\n00 1");
            }
            GateKind::Xnor => {
                let _ = writeln!(s, ".names {a} {b} {lhs}\n00 1\n11 1");
            }
            GateKind::Input => unreachable!("inputs skipped"),
        }
    }
    // Output aliases.
    for (o, sig) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(s, ".names {} o{o}\n1 1", name(*sig));
    }
    let _ = writeln!(s, ".end");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::MultiplierCircuit;

    /// A tiny structural-Verilog interpreter for round-trip validation.
    /// Supports exactly the subset `to_verilog` emits.
    fn eval_verilog(src: &str, inputs: &[bool]) -> Vec<bool> {
        use std::collections::HashMap;
        let mut values: HashMap<String, bool> = HashMap::new();
        for (i, &v) in inputs.iter().enumerate() {
            values.insert(format!("i{i}"), v);
        }
        let mut outputs: Vec<(usize, String)> = vec![];
        for line in src.lines() {
            let line = line.trim().trim_end_matches(';');
            let Some(rest) = line.strip_prefix("assign ") else {
                continue;
            };
            let (lhs, rhs) = rest.split_once(" = ").expect("assign form");
            let val = eval_expr(rhs, &values);
            values.insert(lhs.to_string(), val);
            if let Some(o) = lhs.strip_prefix('o') {
                if let Ok(idx) = o.parse::<usize>() {
                    outputs.push((idx, lhs.to_string()));
                }
            }
        }
        outputs.sort();
        outputs.into_iter().map(|(_, name)| values[&name]).collect()
    }

    fn eval_expr(e: &str, v: &std::collections::HashMap<String, bool>) -> bool {
        let e = e.trim();
        if e == "1'b0" {
            return false;
        }
        if e == "1'b1" {
            return true;
        }
        if let Some(inner) = e.strip_prefix("~(").and_then(|x| x.strip_suffix(')')) {
            return !eval_expr(inner, v);
        }
        if let Some(x) = e.strip_prefix('~') {
            return !v[x.trim()];
        }
        for (op, f) in [
            (" & ", (|a, b| a && b) as fn(bool, bool) -> bool),
            (" | ", |a, b| a || b),
            (" ^ ", |a, b| a != b),
        ] {
            if let Some((l, r)) = e.split_once(op) {
                return f(v[l.trim()], v[r.trim()]);
            }
        }
        v[e]
    }

    #[test]
    fn verilog_round_trips_a_multiplier() {
        let m = MultiplierCircuit::array(4);
        let src = to_verilog(m.netlist(), "mul4");
        for (w, x) in [(0u64, 0u64), (15, 15), (7, 9), (3, 12)] {
            let mut ins = vec![];
            for i in 0..4 {
                ins.push((w >> i) & 1 == 1);
            }
            for j in 0..4 {
                ins.push((x >> j) & 1 == 1);
            }
            let outs = eval_verilog(&src, &ins);
            let got = outs
                .iter()
                .enumerate()
                .fold(0u64, |acc, (k, &b)| acc | (u64::from(b) << k));
            assert_eq!(got, w * x, "{w} * {x}");
        }
    }

    #[test]
    fn verilog_contains_module_structure() {
        let m = MultiplierCircuit::array(3);
        let src = to_verilog(m.netlist(), "mul3u");
        assert!(src.starts_with("module mul3u("));
        assert!(src.trim_end().ends_with("endmodule"));
        assert_eq!(src.matches("input ").count(), 6);
        assert_eq!(src.matches("output ").count(), 6);
    }

    #[test]
    fn blif_covers_all_gate_types() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = [
            nl.and(a, b),
            nl.or(a, b),
            nl.xor(a, b),
            nl.nand(a, b),
            nl.nor(a, b),
            nl.xnor(a, b),
        ];
        let h = nl.not(g[0]);
        let i = nl.buf(g[1]);
        let z0 = nl.const0();
        let z1 = nl.const1();
        let mut outs = g.to_vec();
        outs.extend_from_slice(&[h, i, z0, z1]);
        nl.set_outputs(outs);
        let blif = to_blif(&nl, "allgates");
        assert!(blif.contains(".model allgates"));
        assert!(blif.contains(".inputs i0 i1"));
        assert!(blif.contains(".end"));
        // One .names block per live node plus per-output alias.
        assert!(blif.matches(".names").count() >= 10);
    }

    #[test]
    fn exports_skip_dead_logic() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let used = nl.and(a, b);
        let dead = nl.xor(a, b);
        nl.set_outputs(vec![used]);
        let v = to_verilog(&nl, "m");
        let blif = to_blif(&nl, "m");
        let dead_name = format!("n{}", dead.index());
        assert!(!v.contains(&dead_name));
        assert!(!blif.contains(&dead_name));
    }
}
