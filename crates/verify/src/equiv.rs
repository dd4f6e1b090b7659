//! Equivalence against the exact multiplier as a product-table scan.
//!
//! Every design in the workspace is at most 10×10 bits, so its whole
//! function is one exhaustive product table: a LUT for behavioural
//! designs, [`MultiplierCircuit::exhaustive_products`] for gate-level
//! ones. Equivalence is a w-major scan of that table against `w·x`.
//!
//! [`MultiplierCircuit::exhaustive_products`]: appmult_circuit::MultiplierCircuit::exhaustive_products

use std::fmt;

/// Outcome of a multiplier equivalence check, with the counterexample
/// decoded into operand values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiplierEquiv {
    /// Every operand pair agrees with the exact product.
    Equivalent {
        /// Number of operand pairs checked (the whole operand space).
        patterns: u64,
    },
    /// A differing operand pair was found.
    Counterexample(MultiplierCounterexample),
}

/// A concrete operand pair on which a candidate multiplier differs from
/// the exact product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplierCounterexample {
    /// Weight operand.
    pub w: u64,
    /// Activation operand.
    pub x: u64,
    /// Product computed by the candidate.
    pub got: u64,
    /// The exact product `w·x`.
    pub expected: u64,
}

impl fmt::Display for MultiplierCounterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AM({}, {}) = {} but reference gives {}",
            self.w, self.x, self.got, self.expected
        )
    }
}

/// Scans a `bits`-bit product table in the workspace LUT convention
/// (entry `(w << bits) | x` holds the product of `w` and `x`) against the
/// exact multiplier. Returns the lowest differing `(w, x)` pair in w-major
/// order.
pub fn table_equivalence_vs_exact(
    bits: u32,
    products: impl IntoIterator<Item = u64>,
) -> MultiplierEquiv {
    let mask = (1u64 << bits) - 1;
    let mut patterns = 0u64;
    for (idx, got) in (0u64..).zip(products) {
        let (w, x) = (idx >> bits, idx & mask);
        if got != w * x {
            return MultiplierEquiv::Counterexample(MultiplierCounterexample {
                w,
                x,
                got,
                expected: w * x,
            });
        }
        patterns += 1;
    }
    MultiplierEquiv::Equivalent { patterns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_circuit::{MultiplierCircuit, MultiplierStructure};
    use appmult_mult::{ExactMultiplier, Multiplier, TruncatedMultiplier};

    fn lut_scan(m: impl Multiplier) -> MultiplierEquiv {
        let lut = m.to_lut();
        table_equivalence_vs_exact(lut.bits(), lut.entries().iter().map(|&p| u64::from(p)))
    }

    #[test]
    fn exact_tables_are_equivalent_over_the_whole_operand_space() {
        assert_eq!(
            lut_scan(ExactMultiplier::new(6)),
            MultiplierEquiv::Equivalent { patterns: 1 << 12 }
        );
        let wallace = MultiplierCircuit::wallace(5);
        assert_eq!(
            table_equivalence_vs_exact(5, wallace.exhaustive_products()),
            MultiplierEquiv::Equivalent { patterns: 1 << 10 }
        );
    }

    #[test]
    fn truncated_tables_yield_the_first_counterexample() {
        // mul7u_rm6 removes the 6 rightmost columns: AM(1, 1) = 0, not 1.
        let truncated = MultiplierCircuit::with_removed_columns(7, 6, MultiplierStructure::Array);
        assert_eq!(
            table_equivalence_vs_exact(7, truncated.exhaustive_products()),
            MultiplierEquiv::Counterexample(MultiplierCounterexample {
                w: 1,
                x: 1,
                got: 0,
                expected: 1,
            })
        );
        match lut_scan(TruncatedMultiplier::new(6, 4)) {
            MultiplierEquiv::Counterexample(c) => assert_eq!((c.w, c.x), (1, 1)),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn the_scan_is_w_major() {
        // Of two wrong cells, (w, x) = (2, 1) comes before (1, 3) in raw
        // simulation order (w in the low input bits), but not in w-major
        // order.
        let mut table: Vec<u64> = (0..16u64).map(|i| (i >> 2) * (i & 3)).collect();
        table[(2 << 2) | 1] += 1;
        table[(1 << 2) | 3] += 1;
        match table_equivalence_vs_exact(2, table) {
            MultiplierEquiv::Counterexample(c) => {
                assert_eq!((c.w, c.x, c.got, c.expected), (1, 3, 4, 3));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }
}
