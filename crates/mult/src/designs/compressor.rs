//! Multiplier built with approximate 4:2 compressors in the low columns.

use std::sync::OnceLock;

use appmult_circuit::{MultiplierCircuit, Netlist, Signal};

use super::{assert_bits, assert_operands};
use crate::multiplier::{Multiplier, MultiplierLut};

/// A multiplier whose partial-product columns below a significance
/// threshold are compressed with *approximate OR-based 4:2 compressors*
/// instead of exact counters.
///
/// The approximate compressor maps four dots `(x1, x2, x3, x4)` to
/// `(sum, carry)` via `a = x1 | x2`, `b = x3 | x4`, `sum = a ^ b`,
/// `carry = a & b` — i.e. each OR saturates a pair, undercounting when both
/// members are 1. This is the classic low-power compressor approximation
/// from the approximate-arithmetic literature; columns at or above
/// `approx_columns` are reduced exactly.
///
/// Unlike the closed-form families, this design is defined *structurally*:
/// its behaviour is extracted from the gate-level netlist (cached), so the
/// LUT is exactly what the hardware computes.
///
/// # Example
///
/// ```
/// use appmult_mult::{CompressorMultiplier, Multiplier};
///
/// let m = CompressorMultiplier::new(8, 8);
/// // Sparse columns are exact...
/// assert_eq!(m.multiply(2, 3), 6);
/// // ...dense low columns undercount.
/// assert!(m.multiply(255, 255) <= 255 * 255);
/// ```
#[derive(Debug)]
pub struct CompressorMultiplier {
    bits: u32,
    approx_columns: u32,
    lut: OnceLock<MultiplierLut>,
}

impl CompressorMultiplier {
    /// Creates the design; columns `c < approx_columns` use approximate
    /// compression.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8` (structural LUT extraction) and
    /// `approx_columns <= 2 * bits - 1`.
    pub fn new(bits: u32, approx_columns: u32) -> Self {
        assert_bits(bits);
        assert!(bits <= 8, "structural designs capped at 8 bits");
        assert!(approx_columns < 2 * bits, "column threshold out of range");
        Self {
            bits,
            approx_columns,
            lut: OnceLock::new(),
        }
    }

    /// Number of approximately compressed columns.
    pub fn approx_columns(&self) -> u32 {
        self.approx_columns
    }

    fn build_circuit(&self) -> MultiplierCircuit {
        let bits = self.bits;
        let mut nl = Netlist::new();
        let w: Vec<Signal> = (0..bits).map(|_| nl.input()).collect();
        let x: Vec<Signal> = (0..bits).map(|_| nl.input()).collect();
        let out_bits = (2 * bits) as usize;
        let mut columns: Vec<Vec<Signal>> = vec![Vec::new(); out_bits];
        for i in 0..bits {
            for j in 0..bits {
                let pp = nl.and(w[i as usize], x[j as usize]);
                columns[(i + j) as usize].push(pp);
            }
        }
        // Approximate 4:2 compression in the low columns (repeat until the
        // column height drops below 4).
        for c in 0..(self.approx_columns as usize).min(out_bits) {
            while columns[c].len() >= 4 {
                let x4 = columns[c].pop().expect("len >= 4");
                let x3 = columns[c].pop().expect("len >= 4");
                let x2 = columns[c].pop().expect("len >= 4");
                let x1 = columns[c].pop().expect("len >= 4");
                let a = nl.or(x1, x2);
                let b = nl.or(x3, x4);
                let sum = nl.xor(a, b);
                let carry = nl.and(a, b);
                columns[c].push(sum);
                if c + 1 < out_bits {
                    columns[c + 1].push(carry);
                }
            }
        }
        // Exact reduction of whatever remains.
        let mut dots = appmult_circuit::DotColumns::new(out_bits);
        for (c, col) in columns.iter().enumerate() {
            for &s in col {
                dots.push(c, s);
            }
        }
        let outs = dots.reduce_ripple(&mut nl);
        nl.set_outputs(outs);
        MultiplierCircuit::from_netlist(nl, bits).expect("bus shapes are correct")
    }

    fn lut(&self) -> &MultiplierLut {
        self.lut
            .get_or_init(|| MultiplierLut::from_circuit(self.name(), &self.build_circuit()))
    }
}

impl Multiplier for CompressorMultiplier {
    fn bits(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> String {
        format!("mul{}u_c42x{}", self.bits, self.approx_columns)
    }

    fn multiply(&self, w: u32, x: u32) -> u32 {
        assert_operands(self.bits, w, x);
        self.lut().product(w, x)
    }

    fn circuit(&self) -> Option<MultiplierCircuit> {
        Some(self.build_circuit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ErrorMetrics;

    #[test]
    fn zero_threshold_is_exact() {
        let m = CompressorMultiplier::new(6, 0);
        let metrics = ErrorMetrics::exhaustive(&m.to_lut());
        assert_eq!(metrics.max_ed, 0);
    }

    #[test]
    fn sparse_products_stay_exact() {
        // Columns never reach height 4 when one operand has a single bit.
        let m = CompressorMultiplier::new(8, 8);
        for x in 0..256u32 {
            assert_eq!(m.multiply(1, x), x);
            assert_eq!(m.multiply(16, x), 16 * x);
        }
    }

    #[test]
    fn compression_undercounts_dense_columns() {
        let m = CompressorMultiplier::new(8, 10);
        assert!(m.multiply(255, 255) < 255 * 255);
        for &(w, x) in &[(255u32, 255u32), (127, 254), (85, 171)] {
            assert!(m.multiply(w, x) <= w * x, "{w}*{x}");
        }
    }

    #[test]
    fn more_approx_columns_more_error() {
        let small = ErrorMetrics::exhaustive(&CompressorMultiplier::new(7, 4).to_lut());
        let large = ErrorMetrics::exhaustive(&CompressorMultiplier::new(7, 9).to_lut());
        assert!(large.nmed >= small.nmed);
    }

    #[test]
    fn cheaper_than_exact() {
        use appmult_circuit::{CostModel, MultiplierCircuit};
        let model = CostModel::asap7();
        let approx = CompressorMultiplier::new(8, 9);
        let cost = model.estimate(&approx.circuit().expect("structural"));
        let exact = model.estimate(&MultiplierCircuit::array(8));
        assert!(cost.area_um2 < exact.area_um2);
    }
}
