//! Truncation-based designs: plain and compensated.

use appmult_circuit::{DotColumns, MultiplierCircuit, Netlist, Signal};

use super::{assert_bits, assert_operands};
use crate::multiplier::Multiplier;

/// Sum of partial products `w_i * x_j * 2^(i+j)` over kept `(i, j)` pairs.
fn pp_sum(bits: u32, w: u32, x: u32, keep: impl Fn(u32, u32) -> bool) -> u32 {
    let mut acc = 0u32;
    for i in 0..bits {
        if (w >> i) & 1 == 0 {
            continue;
        }
        for j in 0..bits {
            if (x >> j) & 1 == 1 && keep(i, j) {
                acc += 1 << (i + j);
            }
        }
    }
    acc
}

/// Builds a netlist with kept partial products reduced by a ripple array.
/// Returns the netlist, the operand buses, and the dot columns (so callers
/// can add extra dots before reduction).
fn pp_netlist(
    bits: u32,
    keep: impl Fn(u32, u32) -> bool,
) -> (Netlist, Vec<Signal>, Vec<Signal>, DotColumns) {
    let mut nl = Netlist::new();
    let w: Vec<Signal> = (0..bits).map(|_| nl.input()).collect();
    let x: Vec<Signal> = (0..bits).map(|_| nl.input()).collect();
    let mut dots = DotColumns::new(2 * bits as usize);
    for i in 0..bits {
        for j in 0..bits {
            if keep(i, j) {
                let pp = nl.and(w[i as usize], x[j as usize]);
                dots.push((i + j) as usize, pp);
            }
        }
    }
    (nl, w, x, dots)
}

/// The truncated multiplier of the paper's Fig. 2: the `removed` rightmost
/// partial-product columns are deleted and treated as 0 (`_rmK` designs).
///
/// # Example
///
/// ```
/// use appmult_mult::{Multiplier, TruncatedMultiplier};
///
/// // mul7u_rm6: all partial products with i + j < 6 removed.
/// let m = TruncatedMultiplier::new(7, 6);
/// assert_eq!(m.name(), "mul7u_rm6");
/// // 1 * 1 only produces pp_00 (weight 0), which is removed.
/// assert_eq!(m.multiply(1, 1), 0);
/// // High partial products survive.
/// assert_eq!(m.multiply(64, 64), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruncatedMultiplier {
    bits: u32,
    removed: u32,
}

impl TruncatedMultiplier {
    /// Creates a `bits`-wide multiplier with the `removed` rightmost
    /// partial-product columns deleted.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 10` and `removed < 2 * bits - 1`.
    pub fn new(bits: u32, removed: u32) -> Self {
        assert_bits(bits);
        assert!(
            removed < 2 * bits - 1,
            "removing {removed} of {} columns leaves nothing",
            2 * bits - 1
        );
        Self { bits, removed }
    }
}

impl Multiplier for TruncatedMultiplier {
    fn bits(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> String {
        format!("mul{}u_rm{}", self.bits, self.removed)
    }

    fn multiply(&self, w: u32, x: u32) -> u32 {
        assert_operands(self.bits, w, x);
        pp_sum(self.bits, w, x, |i, j| i + j >= self.removed)
    }

    fn circuit(&self) -> Option<MultiplierCircuit> {
        Some(MultiplierCircuit::with_removed_columns(
            self.bits,
            self.removed,
            appmult_circuit::MultiplierStructure::Array,
        ))
    }
}

/// Truncation with a constant error-compensation term, gated so that
/// zero-operand products stay exactly zero.
///
/// The zoo's surrogates pick the constant per design; the expected value of
/// the removed partial products under uniform inputs (each partial product
/// is 1 with probability 1/4) roughly centres the error distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompensatedTruncatedMultiplier {
    bits: u32,
    removed: u32,
    compensation: u32,
}

impl CompensatedTruncatedMultiplier {
    /// Creates the design with an explicit compensation constant.
    ///
    /// # Panics
    ///
    /// Panics unless the truncation parameters are valid (see
    /// [`TruncatedMultiplier::new`]) and the compensated worst-case product
    /// still fits in `2 * bits` bits.
    pub fn new(bits: u32, removed: u32, compensation: u32) -> Self {
        assert_bits(bits);
        assert!(removed < 2 * bits - 1, "invalid truncation");
        let max_operand = (1u32 << bits) - 1;
        let worst = pp_sum(bits, max_operand, max_operand, |i, j| i + j >= removed) as u64
            + compensation as u64;
        assert!(
            worst < 1u64 << (2 * bits),
            "compensation {compensation} overflows the output bus"
        );
        Self {
            bits,
            removed,
            compensation,
        }
    }
}

impl Multiplier for CompensatedTruncatedMultiplier {
    fn bits(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> String {
        format!("mul{}u_rm{}c{}", self.bits, self.removed, self.compensation)
    }

    fn multiply(&self, w: u32, x: u32) -> u32 {
        assert_operands(self.bits, w, x);
        if w == 0 || x == 0 {
            return 0;
        }
        pp_sum(self.bits, w, x, |i, j| i + j >= self.removed) + self.compensation
    }

    fn circuit(&self) -> Option<MultiplierCircuit> {
        let (mut nl, w, x, mut dots) = pp_netlist(self.bits, |i, j| i + j >= self.removed);
        // Nonzero detectors gate the compensation constant.
        let nz_w = or_tree(&mut nl, &w);
        let nz_x = or_tree(&mut nl, &x);
        let gate = nl.and(nz_w, nz_x);
        dots.push_conditional_constant(self.compensation as u64, gate);
        let outs = dots.reduce_ripple(&mut nl);
        nl.set_outputs(outs);
        MultiplierCircuit::from_netlist(nl, self.bits).ok()
    }
}

fn or_tree(nl: &mut Netlist, signals: &[Signal]) -> Signal {
    let mut acc = signals[0];
    for &s in &signals[1..] {
        acc = nl.or(acc, s);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ErrorMetrics;

    fn assert_circuit_matches<M: Multiplier>(m: &M) {
        let lut = m.to_lut();
        let c = m.circuit().expect("design provides a circuit");
        let cl = c.exhaustive_products();
        let b = m.bits();
        for w in 0..(1u32 << b) {
            for x in 0..(1u32 << b) {
                assert_eq!(
                    cl[((w << b) | x) as usize] as u32,
                    lut.product(w, x),
                    "{} at {w}*{x}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn truncated_circuit_matches_behaviour() {
        assert_circuit_matches(&TruncatedMultiplier::new(6, 4));
    }

    #[test]
    fn compensated_circuit_matches_behaviour() {
        // 32 is the mean removed mass of rm5 at 6 bits.
        assert_circuit_matches(&CompensatedTruncatedMultiplier::new(6, 5, 32));
    }

    #[test]
    fn compensation_reduces_nmed() {
        let plain = ErrorMetrics::exhaustive(&TruncatedMultiplier::new(7, 6).to_lut());
        let comp =
            ErrorMetrics::exhaustive(&CompensatedTruncatedMultiplier::new(7, 6, 80).to_lut());
        assert!(comp.nmed < plain.nmed, "{} !< {}", comp.nmed, plain.nmed);
    }

    #[test]
    fn compensated_keeps_zero_products_exact() {
        let m = CompensatedTruncatedMultiplier::new(8, 8, 448);
        for v in 0..256 {
            assert_eq!(m.multiply(0, v), 0);
            assert_eq!(m.multiply(v, 0), 0);
        }
    }

    #[test]
    fn truncated_error_is_bounded_by_removed_mass() {
        let m = TruncatedMultiplier::new(8, 8);
        let bound: u32 = (0..8).map(|c| (c + 1) << c).sum();
        for &(w, x) in &[(255u32, 255u32), (170, 85), (33, 77)] {
            let err = w * x - m.multiply(w, x);
            assert!(err <= bound);
        }
    }

    #[test]
    #[should_panic(expected = "leaves nothing")]
    fn rejects_full_truncation() {
        TruncatedMultiplier::new(4, 7);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn rejects_overflowing_compensation() {
        CompensatedTruncatedMultiplier::new(4, 2, 250);
    }
}
