//! Gate-level fault injection.
//!
//! Models permanent hardware defects in a fabricated multiplier: a gate
//! output stuck at logic 0 or 1 (the classic stuck-at model used by
//! manufacturing test), or inverted (a simple bridging/transistor defect
//! proxy). Faults are described by [`FaultSpec`] values and applied by
//! [`MultiplierCircuit::with_faults`], which rewrites the faulted nodes of a
//! cloned netlist. A defective multiplier is therefore an ordinary
//! [`MultiplierCircuit`]: its product table, cost, and lint come from the
//! same code paths as any other design.
//!
//! # Example
//!
//! ```
//! use appmult_circuit::{fault_sites, FaultSpec, MultiplierCircuit};
//!
//! let mult = MultiplierCircuit::array(4);
//! let sites = fault_sites(mult.netlist());
//! assert!(!sites.is_empty());
//!
//! // Break one gate and extract the defective product table.
//! let faulty = mult.with_faults(&[FaultSpec::stuck_at_1(sites[0])]).unwrap();
//! assert_eq!(faulty.exhaustive_products().len(), 256);
//! ```

use std::collections::HashSet;

use crate::arith::MultiplierCircuit;
use crate::netlist::{Netlist, NetlistError, Signal};

/// The defect model applied to a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Output permanently reads logic 0.
    StuckAt0,
    /// Output permanently reads logic 1.
    StuckAt1,
    /// Output reads the complement of the fault-free value.
    OutputInvert,
}

impl FaultKind {
    /// All defect models, in a fixed order (useful for sweeps).
    pub const ALL: [FaultKind; 3] = [
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::OutputInvert,
    ];
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::StuckAt0 => "sa0",
            FaultKind::StuckAt1 => "sa1",
            FaultKind::OutputInvert => "inv",
        };
        f.write_str(s)
    }
}

/// One injected fault: a defect model at a specific netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// The node whose output is defective.
    pub site: Signal,
    /// The defect model.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A stuck-at-0 fault at `site`.
    pub fn stuck_at_0(site: Signal) -> Self {
        Self {
            site,
            kind: FaultKind::StuckAt0,
        }
    }

    /// A stuck-at-1 fault at `site`.
    pub fn stuck_at_1(site: Signal) -> Self {
        Self {
            site,
            kind: FaultKind::StuckAt1,
        }
    }

    /// An output-inversion fault at `site`.
    pub fn output_invert(site: Signal) -> Self {
        Self {
            site,
            kind: FaultKind::OutputInvert,
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kind, self.site)
    }
}

/// Enumerates the injectable fault sites of a netlist: every silicon-bearing
/// gate that is live (reachable from the primary outputs). Dead gates and
/// free nodes (inputs, constants, buffers) are excluded — a defect there
/// either cannot exist or cannot be observed.
pub fn fault_sites(netlist: &Netlist) -> Vec<Signal> {
    let live = netlist.live_mask();
    netlist
        .iter()
        .filter(|(s, g)| live[s.index()] && g.kind.is_physical())
        .map(|(s, _)| s)
        .collect()
}

impl MultiplierCircuit {
    /// Returns a copy of this circuit with `faults` injected: each faulted
    /// node of a cloned netlist is rewritten, a stuck-at fault into a
    /// constant and an output inversion into the complementary gate. The
    /// circuit itself is not changed, and an empty fault list reproduces it
    /// exactly.
    ///
    /// When several faults target the same site, the last one wins
    /// (mirroring a physical defect: a node has one actual behaviour).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownSignal`] if a fault site does not
    /// belong to this circuit's netlist or is a primary input (a defect
    /// there is outside the multiplier; [`fault_sites`] never returns one).
    pub fn with_faults(&self, faults: &[FaultSpec]) -> Result<Self, NetlistError> {
        Ok(Self::from_parts(
            faulted_netlist(self.netlist(), faults)?,
            self.bits(),
            self.structure(),
            self.removed_columns(),
        ))
    }
}

/// Clones `netlist` and rewrites the node behind every fault site. Faults
/// are walked last to first so that only the last fault on a site applies:
/// rewriting in order would let two inversions cancel, or an inversion flip
/// an earlier stuck-at constant.
fn faulted_netlist(netlist: &Netlist, faults: &[FaultSpec]) -> Result<Netlist, NetlistError> {
    let mut faulted = netlist.clone();
    let mut done = HashSet::new();
    for f in faults.iter().rev() {
        if !done.insert(f.site) {
            continue;
        }
        match f.kind {
            FaultKind::StuckAt0 => faulted.replace_with_const(f.site, false)?,
            FaultKind::StuckAt1 => faulted.replace_with_const(f.site, true)?,
            FaultKind::OutputInvert => faulted.replace_with_complement(f.site)?,
        }
    }
    Ok(faulted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ExhaustiveTable;

    fn adder_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let (s, co) = nl.full_adder(a, b, c);
        nl.set_outputs(vec![s, co]);
        nl
    }

    fn table(nl: &Netlist, faults: &[FaultSpec]) -> ExhaustiveTable {
        ExhaustiveTable::build(&faulted_netlist(nl, faults).unwrap())
    }

    #[test]
    fn empty_fault_list_is_identity() {
        let nl = adder_netlist();
        assert_eq!(faulted_netlist(&nl, &[]).unwrap(), nl);
        let mult = MultiplierCircuit::array(4);
        assert_eq!(
            mult.with_faults(&[]).unwrap().exhaustive_products(),
            mult.exhaustive_products()
        );
    }

    #[test]
    fn stuck_at_forces_output() {
        let nl = adder_netlist();
        let sum = nl.outputs()[0];
        for v in table(&nl, &[FaultSpec::stuck_at_1(sum)]).values() {
            assert_eq!(v & 1, 1, "sum bit must be stuck at 1");
        }
        for v in table(&nl, &[FaultSpec::stuck_at_0(sum)]).values() {
            assert_eq!(v & 1, 0, "sum bit must be stuck at 0");
        }
    }

    #[test]
    fn output_invert_complements_one_bit() {
        let nl = adder_netlist();
        let carry = nl.outputs()[1];
        let clean = ExhaustiveTable::build(&nl);
        let inv = table(&nl, &[FaultSpec::output_invert(carry)]);
        for (c, f) in clean.values().iter().zip(inv.values()) {
            assert_eq!(c ^ 0b10, *f);
        }
    }

    #[test]
    fn output_invert_complements_every_gate_kind() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let gates = [
            nl.const0(),
            nl.const1(),
            nl.buf(a),
            nl.not(a),
            nl.and(a, b),
            nl.or(a, b),
            nl.xor(a, b),
            nl.nand(a, b),
            nl.nor(a, b),
            nl.xnor(a, b),
        ];
        nl.set_outputs(gates.to_vec());
        let clean = ExhaustiveTable::build(&nl);
        for (bit, &g) in gates.iter().enumerate() {
            let inv = table(&nl, &[FaultSpec::output_invert(g)]);
            for (c, f) in clean.values().iter().zip(inv.values()) {
                assert_eq!(c ^ (1 << bit), *f, "inverting {}", nl.gate(g).kind);
            }
        }
    }

    #[test]
    fn unknown_site_is_rejected() {
        let nl = adder_netlist();
        let bogus = Signal(nl.num_nodes() as u32 + 7);
        for fault in [
            FaultSpec::stuck_at_0(bogus),
            FaultSpec::output_invert(bogus),
        ] {
            let err = faulted_netlist(&nl, &[fault]);
            assert_eq!(err, Err(NetlistError::UnknownSignal(bogus)));
        }
    }

    #[test]
    fn input_site_is_rejected() {
        let mult = MultiplierCircuit::array(4);
        let input = mult.netlist().inputs()[0];
        for kind in FaultKind::ALL {
            let err = mult.with_faults(&[FaultSpec { site: input, kind }]);
            assert!(matches!(err, Err(NetlistError::UnknownSignal(s)) if s == input));
        }
    }

    #[test]
    fn last_fault_wins_on_shared_site() {
        let nl = adder_netlist();
        let sum = nl.outputs()[0];
        let (sa0, sa1, inv) = (
            FaultSpec::stuck_at_0(sum),
            FaultSpec::stuck_at_1(sum),
            FaultSpec::output_invert(sum),
        );
        // Two inversions on one node invert it once; they do not cancel.
        assert_eq!(table(&nl, &[inv, inv]), table(&nl, &[inv]));
        assert_ne!(table(&nl, &[inv]), ExhaustiveTable::build(&nl));
        // A later inversion replaces a stuck-at; it does not flip its constant.
        assert_eq!(table(&nl, &[sa1, inv]), table(&nl, &[inv]));
        assert_eq!(table(&nl, &[sa1, sa0]), table(&nl, &[sa0]));
    }

    #[test]
    fn fault_sites_are_live_physical_gates() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let used = nl.and(a, b);
        let _dead = nl.xor(a, b);
        let buffed = nl.buf(used);
        nl.set_outputs(vec![buffed]);
        let sites = fault_sites(&nl);
        // Only the AND gate: inputs/buffers are free, the XOR is dead.
        assert_eq!(sites, vec![used]);
    }

    #[test]
    fn faulted_multiplier_stays_in_output_bus() {
        let mult = MultiplierCircuit::array(4);
        let sites = fault_sites(mult.netlist());
        for (i, &site) in sites.iter().enumerate().step_by(7) {
            let kind = FaultKind::ALL[i % 3];
            let faulty = mult.with_faults(&[FaultSpec { site, kind }]).unwrap();
            assert_eq!(faulty.bits(), 4);
            let lut = faulty.exhaustive_products();
            assert_eq!(lut.len(), 256);
            for &p in &lut {
                assert!(p < 256, "product must fit the 8-bit output bus");
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", FaultKind::StuckAt0), "sa0");
        assert_eq!(format!("{}", FaultSpec::output_invert(Signal(3))), "inv@n3");
    }
}
