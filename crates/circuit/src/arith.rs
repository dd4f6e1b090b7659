//! Generators for the arithmetic circuits used in the paper.
//!
//! The central structure is [`MultiplierCircuit`]: a gate-level unsigned
//! `B x B` multiplier with named operand and product buses. Two partial
//! product reduction styles are provided (carry-ripple array and Wallace
//! tree), and any number of least-significant partial-product columns can be
//! removed — reproducing the `_rmK` truncated multipliers of Fig. 2.

use crate::dots::{reduce_ripple_impl, reduce_wallace_impl};
use crate::netlist::{Netlist, NetlistError, Signal};
use crate::sim::ExhaustiveTable;

/// Reduction style of a generated multiplier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MultiplierStructure {
    /// Row-by-row carry-propagate array (long critical path, compact).
    #[default]
    Array,
    /// Wallace-style column compression with a final ripple adder.
    Wallace,
}

/// A gate-level unsigned multiplier with identified operand/product buses.
///
/// Primary inputs are the `w` bus (LSB first) followed by the `x` bus;
/// primary outputs are the product bits, LSB first.
/// [`MultiplierCircuit::exhaustive_products`] re-orders the raw simulation
/// table into the LUT convention `(w << bits) | x` used by the retraining
/// crates.
#[derive(Debug, Clone)]
pub struct MultiplierCircuit {
    netlist: Netlist,
    bits: u32,
    structure: MultiplierStructure,
    removed_columns: u32,
}

impl MultiplierCircuit {
    /// Builds an exact `bits x bits` unsigned array multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 10 (exhaustive analyses cap the
    /// input space at 2^20).
    pub fn array(bits: u32) -> Self {
        Self::with_removed_columns(bits, 0, MultiplierStructure::Array)
    }

    /// Builds an exact `bits x bits` unsigned Wallace-tree multiplier.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MultiplierCircuit::array`].
    pub fn wallace(bits: u32) -> Self {
        Self::with_removed_columns(bits, 0, MultiplierStructure::Wallace)
    }

    /// Builds a multiplier with the `removed_columns` least-significant
    /// partial-product columns deleted (treated as 0), as in the paper's
    /// Fig. 2 (`_rmK` designs).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `bits > 10`, or
    /// `removed_columns >= 2 * bits` (no product bits would remain driven).
    pub fn with_removed_columns(
        bits: u32,
        removed_columns: u32,
        structure: MultiplierStructure,
    ) -> Self {
        assert!(bits > 0 && bits <= 10, "bits must be in 1..=10, got {bits}");
        assert!(
            removed_columns < 2 * bits,
            "cannot remove all {} partial-product columns",
            2 * bits
        );
        let mut nl = Netlist::new();
        let w: Vec<Signal> = (0..bits).map(|_| nl.input()).collect();
        let x: Vec<Signal> = (0..bits).map(|_| nl.input()).collect();

        // Partial products per column c = i + j, keeping only c >= removed.
        let out_bits = 2 * bits;
        let mut columns: Vec<Vec<Signal>> = vec![Vec::new(); out_bits as usize];
        for i in 0..bits {
            for j in 0..bits {
                let c = i + j;
                if c >= removed_columns {
                    let pp = nl.and(w[i as usize], x[j as usize]);
                    columns[c as usize].push(pp);
                }
            }
        }

        let outputs = match structure {
            MultiplierStructure::Array => reduce_ripple_impl(&mut nl, columns),
            MultiplierStructure::Wallace => reduce_wallace_impl(&mut nl, columns),
        };
        nl.set_outputs(outputs);
        Self {
            netlist: nl,
            bits,
            structure,
            removed_columns,
        }
    }

    /// Wraps a hand-built netlist as a multiplier circuit.
    ///
    /// The netlist must follow the multiplier bus convention: `2 * bits`
    /// primary inputs (`w` bus LSB-first, then `x` bus LSB-first) and
    /// `2 * bits` primary outputs (product LSB-first), with `bits >= 1`.
    /// This is how the design families in `appmult-mult` provide gate-level
    /// structures for the hardware cost model. The netlist itself is valid
    /// by construction (see [`Netlist`]), so the bus shape is all there is
    /// to check.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BusShape`], naming the netlist's input and
    /// output counts, if `bits` is 0 or the bus shapes do not match.
    pub fn from_netlist(netlist: Netlist, bits: u32) -> Result<Self, NetlistError> {
        let bus = 2 * bits as usize;
        let (inputs, outputs) = (netlist.num_inputs(), netlist.outputs().len());
        if bits == 0 || inputs != bus || outputs != bus {
            return Err(NetlistError::BusShape {
                inputs,
                outputs,
                bits,
            });
        }
        Ok(Self {
            netlist,
            bits,
            structure: MultiplierStructure::Array,
            removed_columns: 0,
        })
    }

    /// Wraps a netlist rewritten in place (by ALS or fault injection) that
    /// keeps the original bus layout.
    pub(crate) fn from_parts(
        netlist: Netlist,
        bits: u32,
        structure: MultiplierStructure,
        removed_columns: u32,
    ) -> Self {
        Self {
            netlist,
            bits,
            structure,
            removed_columns,
        }
    }

    /// Operand bit width `B`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Reduction style used when the circuit was generated.
    pub fn structure(&self) -> MultiplierStructure {
        self.structure
    }

    /// Number of removed least-significant partial-product columns.
    pub fn removed_columns(&self) -> u32 {
        self.removed_columns
    }

    /// The underlying gate netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Computes the product for one operand pair via gate-level simulation.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in [`MultiplierCircuit::bits`] bits.
    pub fn multiply(&self, w: u64, x: u64) -> u64 {
        let b = self.bits;
        assert!(
            w < (1 << b) && x < (1 << b),
            "operands must fit in {b} bits"
        );
        let mut bools = Vec::with_capacity(2 * b as usize);
        for i in 0..b {
            bools.push((w >> i) & 1 == 1);
        }
        for j in 0..b {
            bools.push((x >> j) & 1 == 1);
        }
        let outs = crate::sim::simulate_bools(&self.netlist, &bools);
        outs.iter()
            .enumerate()
            .fold(0u64, |acc, (k, &bit)| acc | (u64::from(bit) << k))
    }

    /// Exhaustively extracts the product table in the workspace LUT
    /// convention: entry `(w << bits) | x` holds the product of `w` and `x`.
    pub fn exhaustive_products(&self) -> Vec<u64> {
        self.reorder_to_lut(&ExhaustiveTable::build(&self.netlist))
    }

    /// Re-orders a raw simulation table (w in low bits, x in high bits) into
    /// the LUT convention `(w << bits) | x`.
    fn reorder_to_lut(&self, table: &ExhaustiveTable) -> Vec<u64> {
        let b = self.bits;
        let n = 1usize << b;
        let mut lut = vec![0u64; n * n];
        for x in 0..n {
            for w in 0..n {
                lut[(w << b) | x] = table.values()[(x << b) | w];
            }
        }
        lut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_multiplier_is_exact_4bit() {
        let m = MultiplierCircuit::array(4);
        let lut = m.exhaustive_products();
        for w in 0..16u64 {
            for x in 0..16u64 {
                assert_eq!(lut[((w << 4) | x) as usize], w * x, "{w}*{x}");
            }
        }
    }

    #[test]
    fn wallace_multiplier_is_exact_5bit() {
        let m = MultiplierCircuit::wallace(5);
        let lut = m.exhaustive_products();
        for w in 0..32u64 {
            for x in 0..32u64 {
                assert_eq!(lut[((w << 5) | x) as usize], w * x, "{w}*{x}");
            }
        }
    }

    #[test]
    fn removed_columns_match_closed_form() {
        // Removing k columns zeroes every partial product with i + j < k.
        let bits = 5;
        let k = 4;
        let m = MultiplierCircuit::with_removed_columns(bits, k, MultiplierStructure::Array);
        let lut = m.exhaustive_products();
        for w in 0..(1u64 << bits) {
            for x in 0..(1u64 << bits) {
                let mut expect = 0u64;
                for i in 0..bits {
                    for j in 0..bits {
                        if i + j >= k && (w >> i) & 1 == 1 && (x >> j) & 1 == 1 {
                            expect += 1 << (i + j);
                        }
                    }
                }
                assert_eq!(lut[((w << bits) | x) as usize], expect, "{w}*{x}");
            }
        }
    }

    #[test]
    fn multiply_agrees_with_exhaustive() {
        let m = MultiplierCircuit::array(6);
        let lut = m.exhaustive_products();
        for &(w, x) in &[(0, 0), (63, 63), (10, 31), (17, 42)] {
            assert_eq!(m.multiply(w, x), lut[((w << 6) | x) as usize]);
        }
    }

    #[test]
    fn wallace_uses_fewer_levels_than_array() {
        use crate::cost::CostModel;
        let array = MultiplierCircuit::array(8);
        let wallace = MultiplierCircuit::wallace(8);
        let model = CostModel::asap7();
        let d_array = model.estimate(&array).delay_ps;
        let d_wallace = model.estimate(&wallace).delay_ps;
        assert!(
            d_wallace < d_array,
            "wallace {d_wallace} should beat array {d_array}"
        );
    }

    #[test]
    fn from_netlist_checks_the_bus_shape() {
        // An adder-shaped netlist is not a multiplier: 2B inputs but B + 1
        // outputs.
        let mut adder = Netlist::new();
        let ins: Vec<Signal> = (0..8).map(|_| adder.input()).collect();
        let outs: Vec<Signal> = (0..5).map(|i| adder.xor(ins[i], ins[i + 3])).collect();
        adder.set_outputs(outs);
        let err = MultiplierCircuit::from_netlist(adder, 4).expect_err("adder");
        let shape = NetlistError::BusShape {
            inputs: 8,
            outputs: 5,
            bits: 4,
        };
        assert_eq!(err, shape);
        assert_eq!(
            err.to_string(),
            "a 4-bit multiplier needs 2·4 inputs and outputs, not 8 inputs and 5 outputs"
        );
        // Zero-width: the empty bus matches, but there is no multiplier.
        assert!(matches!(
            MultiplierCircuit::from_netlist(Netlist::new(), 0),
            Err(NetlistError::BusShape { bits: 0, .. })
        ));
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and(a, b);
        let z = nl.const0();
        nl.set_outputs(vec![g, z]);
        let one_bit = MultiplierCircuit::from_netlist(nl, 1).expect("1-bit bus");
        assert_eq!(one_bit.exhaustive_products(), vec![0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=10")]
    fn rejects_zero_width() {
        let _ = MultiplierCircuit::array(0);
    }

    #[test]
    #[should_panic(expected = "cannot remove all")]
    fn rejects_removing_everything() {
        let _ = MultiplierCircuit::with_removed_columns(4, 8, MultiplierStructure::Array);
    }
}
