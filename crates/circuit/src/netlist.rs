//! Combinational gate netlist representation.
//!
//! A [`Netlist`] is an append-only DAG of gates. Signals are created in
//! topological order (a gate may only reference signals that already exist,
//! and the builder refuses any other), which makes simulation and
//! levelization single forward passes.

use std::fmt;

/// Index of a signal (primary input or gate output) inside a [`Netlist`].
///
/// Signals are handed out by the netlist builder methods and are only
/// meaningful for the netlist that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signal(pub(crate) u32);

impl Signal {
    /// Raw index of this signal in the netlist's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a signal from a raw node index (e.g. a fault site read
    /// from a sweep configuration). The index is checked only when the
    /// signal is used against a concrete netlist: the builder methods and
    /// [`Netlist::set_outputs`] panic on it, the rewrite methods return
    /// [`NetlistError::UnknownSignal`].
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function implemented by a netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input; has no fanins.
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Identity of a single fanin.
    Buf,
    /// Negation of a single fanin.
    Not,
    /// Two-input AND.
    And,
    /// Two-input OR.
    Or,
    /// Two-input XOR.
    Xor,
    /// Two-input NAND.
    Nand,
    /// Two-input NOR.
    Nor,
    /// Two-input XNOR.
    Xnor,
}

impl GateKind {
    /// Number of fanins this gate kind requires.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            _ => 2,
        }
    }

    /// Whether the node contributes silicon (inputs and constants are free).
    pub fn is_physical(self) -> bool {
        !matches!(
            self,
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Buf
        )
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "input",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Xor => "xor",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xnor => "xnor",
        };
        f.write_str(s)
    }
}

/// A single node of the netlist: its function and (up to two) fanins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Logic function of the node.
    pub kind: GateKind,
    /// Fanin signals; entries beyond [`GateKind::arity`] are unused.
    pub fanins: [Signal; 2],
}

/// Error raised when rewriting a netlist in place, or wrapping one as a
/// multiplier, with a signal or shape that does not fit it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal index is out of range for this netlist.
    UnknownSignal(Signal),
    /// A rewrite would create a combinational cycle.
    WouldCycle {
        /// The gate that was being rewritten.
        gate: Signal,
        /// The replacement signal in its transitive fanout.
        replacement: Signal,
    },
    /// A netlist wrapped as a `bits`-bit multiplier does not have the
    /// `2 * bits` inputs and `2 * bits` outputs of its buses.
    BusShape {
        /// Primary inputs of the netlist.
        inputs: usize,
        /// Primary outputs of the netlist.
        outputs: usize,
        /// The operand width it was wrapped at.
        bits: u32,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownSignal(s) => write!(f, "unknown signal {s}"),
            NetlistError::WouldCycle { gate, replacement } => {
                write!(
                    f,
                    "replacing {gate} with {replacement} would create a cycle"
                )
            }
            NetlistError::BusShape {
                inputs,
                outputs,
                bits,
            } => write!(
                f,
                "a {bits}-bit multiplier needs 2·{bits} inputs and outputs, not {inputs} inputs and {outputs} outputs"
            ),
        }
    }
}

impl std::error::Error for NetlistError {}

/// An append-only combinational gate network.
///
/// Nodes are stored in topological order. Primary inputs are created with
/// [`Netlist::input`], logic with the gate builder methods, and outputs are
/// registered with [`Netlist::set_outputs`]. Every builder method panics on
/// a fanin that does not already exist, and the in-place rewrites refuse a
/// replacement that would not precede its gate, so no netlist can hold a
/// forward reference, a dangling fanin or a combinational cycle.
///
/// # Example
///
/// ```
/// use appmult_circuit::Netlist;
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let sum = nl.xor(a, b);
/// let carry = nl.and(a, b);
/// nl.set_outputs(vec![sum, carry]);
/// assert_eq!(nl.num_inputs(), 2);
/// assert_eq!(nl.outputs().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    gates: Vec<Gate>,
    inputs: Vec<Signal>,
    outputs: Vec<Signal>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Total number of nodes (inputs, constants, and gates).
    pub fn num_nodes(&self) -> usize {
        self.gates.len()
    }

    /// Primary input signals in creation order.
    pub fn inputs(&self) -> &[Signal] {
        &self.inputs
    }

    /// Primary output signals in registration order.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// The node behind `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not belong to this netlist.
    pub fn gate(&self, signal: Signal) -> Gate {
        self.gates[signal.index()]
    }

    /// Iterates over all nodes in topological order together with their signals.
    pub fn iter(&self) -> impl Iterator<Item = (Signal, Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (Signal(i as u32), *g))
    }

    /// Appends a node. Checked in every build profile: a fanin that does
    /// not precede the new node would break single-pass simulation.
    fn push(&mut self, kind: GateKind, fanins: [Signal; 2]) -> Signal {
        for fanin in fanins.iter().take(kind.arity()) {
            assert!(
                fanin.index() < self.gates.len(),
                "fanin {fanin} not yet defined"
            );
        }
        let s = Signal(self.gates.len() as u32);
        self.gates.push(Gate { kind, fanins });
        s
    }

    /// Creates a new primary input and returns its signal.
    pub fn input(&mut self) -> Signal {
        let s = self.push(GateKind::Input, [Signal(0); 2]);
        self.inputs.push(s);
        s
    }

    /// Creates a constant-0 node.
    pub fn const0(&mut self) -> Signal {
        self.push(GateKind::Const0, [Signal(0); 2])
    }

    /// Creates a constant-1 node.
    pub fn const1(&mut self) -> Signal {
        self.push(GateKind::Const1, [Signal(0); 2])
    }

    /// Creates a buffer (identity) of `a`.
    pub fn buf(&mut self, a: Signal) -> Signal {
        self.push(GateKind::Buf, [a, a])
    }

    /// Creates the negation of `a`.
    pub fn not(&mut self, a: Signal) -> Signal {
        self.push(GateKind::Not, [a, a])
    }

    /// Creates `a AND b`.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.push(GateKind::And, [a, b])
    }

    /// Creates `a OR b`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.push(GateKind::Or, [a, b])
    }

    /// Creates `a XOR b`.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        self.push(GateKind::Xor, [a, b])
    }

    /// Creates `NOT (a AND b)`.
    pub fn nand(&mut self, a: Signal, b: Signal) -> Signal {
        self.push(GateKind::Nand, [a, b])
    }

    /// Creates `NOT (a OR b)`.
    pub fn nor(&mut self, a: Signal, b: Signal) -> Signal {
        self.push(GateKind::Nor, [a, b])
    }

    /// Creates `NOT (a XOR b)`.
    pub fn xnor(&mut self, a: Signal, b: Signal) -> Signal {
        self.push(GateKind::Xnor, [a, b])
    }

    /// Registers the primary outputs (replacing any previous registration).
    ///
    /// # Panics
    ///
    /// Panics if any signal does not belong to this netlist.
    pub fn set_outputs(&mut self, outputs: Vec<Signal>) {
        for &o in &outputs {
            assert!(o.index() < self.gates.len(), "unknown output signal {o}");
        }
        self.outputs = outputs;
    }

    /// Builds a half adder over `(a, b)`, returning `(sum, carry)`.
    pub fn half_adder(&mut self, a: Signal, b: Signal) -> (Signal, Signal) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Builds a full adder over `(a, b, cin)`, returning `(sum, carry)`.
    pub fn full_adder(&mut self, a: Signal, b: Signal, cin: Signal) -> (Signal, Signal) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let t1 = self.and(axb, cin);
        let t2 = self.and(a, b);
        let carry = self.or(t1, t2);
        (sum, carry)
    }

    /// Replaces the node behind `gate` with a constant.
    ///
    /// Used by the approximate-logic-synthesis pass. Primary inputs cannot be
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownSignal`] if `gate` is out of range or a
    /// primary input.
    pub fn replace_with_const(&mut self, gate: Signal, value: bool) -> Result<(), NetlistError> {
        let idx = gate.index();
        if idx >= self.gates.len() || self.gates[idx].kind == GateKind::Input {
            return Err(NetlistError::UnknownSignal(gate));
        }
        self.gates[idx] = Gate {
            kind: if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            fanins: [Signal(0); 2],
        };
        Ok(())
    }

    /// Replaces the node behind `gate` with its complement on the same
    /// fanins: And↔Nand, Or↔Nor, Xor↔Xnor, Buf↔Not, Const0↔Const1.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownSignal`] if `gate` is out of range or a
    /// primary input.
    pub(crate) fn replace_with_complement(&mut self, gate: Signal) -> Result<(), NetlistError> {
        let node = self
            .gates
            .get_mut(gate.index())
            .ok_or(NetlistError::UnknownSignal(gate))?;
        node.kind = match node.kind {
            GateKind::Input => return Err(NetlistError::UnknownSignal(gate)),
            GateKind::Const0 => GateKind::Const1,
            GateKind::Const1 => GateKind::Const0,
            GateKind::Buf => GateKind::Not,
            GateKind::Not => GateKind::Buf,
            GateKind::And => GateKind::Nand,
            GateKind::Nand => GateKind::And,
            GateKind::Or => GateKind::Nor,
            GateKind::Nor => GateKind::Or,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
        };
        Ok(())
    }

    /// Replaces the node behind `gate` with a buffer of `replacement`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownSignal`] for invalid signals, and
    /// [`NetlistError::WouldCycle`] if `replacement` does not precede `gate`
    /// in topological order (which would create a combinational cycle).
    pub fn replace_with_signal(
        &mut self,
        gate: Signal,
        replacement: Signal,
    ) -> Result<(), NetlistError> {
        let idx = gate.index();
        if idx >= self.gates.len() || self.gates[idx].kind == GateKind::Input {
            return Err(NetlistError::UnknownSignal(gate));
        }
        if replacement.index() >= self.gates.len() {
            return Err(NetlistError::UnknownSignal(replacement));
        }
        if replacement.index() >= idx {
            return Err(NetlistError::WouldCycle { gate, replacement });
        }
        self.gates[idx] = Gate {
            kind: GateKind::Buf,
            fanins: [replacement, replacement],
        };
        Ok(())
    }

    /// Number of gate fanin slots each signal drives.
    ///
    /// Primary outputs are not counted — a fanout-free signal that is
    /// registered as an output is still observable.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.gates.len()];
        for g in &self.gates {
            for k in 0..g.kind.arity() {
                counts[g.fanins[k].index()] += 1;
            }
        }
        counts
    }

    /// Marks the cone of logic reachable from the outputs.
    ///
    /// Returns one flag per node; unmarked nodes are dead and do not
    /// contribute to area, power, or delay.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|s| s.index()).collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            let g = self.gates[i];
            for k in 0..g.kind.arity() {
                stack.push(g.fanins[k].index());
            }
        }
        live
    }

    /// Number of live physical gates (reachable from outputs).
    pub fn live_gate_count(&self) -> usize {
        let live = self.live_mask();
        self.gates
            .iter()
            .zip(&live)
            .filter(|(g, &l)| l && g.kind.is_physical())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physical_gates(nl: &Netlist) -> usize {
        nl.iter().filter(|(_, g)| g.kind.is_physical()).count()
    }

    #[test]
    fn builder_assigns_sequential_signals() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.and(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "fanin n3 not yet defined")]
    fn builder_rejects_a_fanin_that_does_not_precede_the_gate() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.xor(a, b);
        // n3 would be the gate itself: a forward reference in every profile.
        nl.and(x, Signal::from_index(3));
    }

    #[test]
    #[should_panic(expected = "unknown output signal n7")]
    fn set_outputs_rejects_foreign_signals() {
        let mut nl = Netlist::new();
        let a = nl.input();
        nl.set_outputs(vec![a, Signal::from_index(7)]);
    }

    #[test]
    fn physical_gate_count_excludes_inputs_constants_buffers() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let z = nl.const0();
        let b = nl.buf(a);
        let c = nl.and(b, z);
        nl.set_outputs(vec![c]);
        assert_eq!(physical_gates(&nl), 1);
    }

    #[test]
    fn replace_with_signal_rejects_forward_reference() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g1 = nl.and(a, b);
        let g2 = nl.or(g1, a);
        nl.set_outputs(vec![g2]);
        let err = nl.replace_with_signal(g1, g2).unwrap_err();
        assert!(matches!(err, NetlistError::WouldCycle { .. }));
    }

    #[test]
    fn replace_with_const_rejects_inputs() {
        let mut nl = Netlist::new();
        let a = nl.input();
        assert!(nl.replace_with_const(a, false).is_err());
    }

    #[test]
    fn live_mask_drops_dead_logic() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let used = nl.and(a, b);
        let _dead = nl.xor(a, b);
        nl.set_outputs(vec![used]);
        assert_eq!(nl.live_gate_count(), 1);
    }

    #[test]
    fn full_adder_structure() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let (s, co) = nl.full_adder(a, b, c);
        nl.set_outputs(vec![s, co]);
        // 2 XOR + 2 AND + 1 OR
        assert_eq!(physical_gates(&nl), 5);
        // a and b feed the first XOR and the second AND; c and a^b feed
        // the second XOR and the first AND; outputs are not counted.
        let counts = nl.fanout_counts();
        assert_eq!(&counts[..3], &[2, 2, 2]);
        let axb = nl.iter().find(|(_, g)| g.kind == GateKind::Xor).unwrap().0;
        assert_eq!(counts[axb.index()], 2);
        assert_eq!((counts[s.index()], counts[co.index()]), (0, 0));
        // A gate fed twice by one signal counts both fanin slots.
        let twin = nl.xor(a, a);
        assert_eq!(nl.fanout_counts()[a.index()], counts[a.index()] + 2);
        assert_eq!(nl.fanout_counts()[twin.index()], 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", GateKind::Xor).is_empty());
        assert!(!format!("{}", Signal(3)).is_empty());
    }
}
