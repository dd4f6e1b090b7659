//! Dot-notation partial-product columns and reduction.
//!
//! Approximate multiplier papers describe designs as *dot diagrams*: stacks
//! of one-bit terms per binary weight (Fig. 2 of the paper). [`DotColumns`]
//! is that representation over netlist signals; reduction compresses every
//! column down to a single output bit with half/full adders.
//!
//! This is the shared machinery behind the built-in array/Wallace
//! generators and the design families in the `appmult-mult` crate.

use crate::netlist::{Netlist, Signal};

/// Column stacks of one-bit terms, indexed by binary weight.
///
/// # Example
///
/// ```
/// use appmult_circuit::{DotColumns, Netlist};
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let mut dots = DotColumns::new(3);
/// dots.push(0, a);
/// dots.push(0, b); // weight-0 column holds two dots -> half adder
/// let sum = dots.reduce_ripple(&mut nl);
/// nl.set_outputs(sum);
/// assert_eq!(nl.outputs().len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DotColumns {
    columns: Vec<Vec<Signal>>,
}

impl DotColumns {
    /// Creates `width` empty columns (the output bus width).
    pub fn new(width: usize) -> Self {
        Self {
            columns: vec![Vec::new(); width],
        }
    }

    /// Output bus width.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of dots currently in column `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is out of range.
    pub fn height(&self, weight: usize) -> usize {
        self.columns[weight].len()
    }

    /// Adds a dot (a one-bit term) at the given binary weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight >= width`.
    pub fn push(&mut self, weight: usize, signal: Signal) {
        self.columns[weight].push(signal);
    }

    /// Adds `signal` at every set bit of `constant` — the standard trick for
    /// adding a *conditional constant* (e.g. an error-compensation term
    /// gated by a nonzero detector).
    ///
    /// # Panics
    ///
    /// Panics if `constant` has set bits at or above `width`.
    pub fn push_conditional_constant(&mut self, constant: u64, signal: Signal) {
        assert!(
            constant < (1u64 << self.columns.len()),
            "constant {constant} exceeds the {}-bit output bus",
            self.columns.len()
        );
        for c in 0..self.columns.len() {
            if (constant >> c) & 1 == 1 {
                self.columns[c].push(signal);
            }
        }
    }

    /// Reduces with a carry-ripple array (compact, long critical path),
    /// returning one output signal per column.
    pub fn reduce_ripple(self, nl: &mut Netlist) -> Vec<Signal> {
        reduce_ripple_impl(nl, self.columns)
    }
}

pub(crate) fn reduce_ripple_impl(nl: &mut Netlist, mut columns: Vec<Vec<Signal>>) -> Vec<Signal> {
    let out_bits = columns.len();
    let mut outputs = Vec::with_capacity(out_bits);
    let mut zero = None;
    for c in 0..out_bits {
        loop {
            let n = columns[c].len();
            if n <= 1 {
                break;
            }
            if n == 2 {
                let a = columns[c][0];
                let b = columns[c][1];
                columns[c].clear();
                if c + 1 < out_bits {
                    let (s, carry) = nl.half_adder(a, b);
                    columns[c].push(s);
                    columns[c + 1].push(carry);
                } else {
                    // The top column's carry has no column to land in:
                    // build the sum alone, not a half adder with a dead AND.
                    columns[c].push(nl.xor(a, b));
                }
            } else {
                let a = columns[c].pop().expect("n >= 3");
                let b = columns[c].pop().expect("n >= 3");
                let cin = columns[c].pop().expect("n >= 3");
                let (s, carry) = nl.full_adder(a, b, cin);
                columns[c].push(s);
                if c + 1 < out_bits {
                    columns[c + 1].push(carry);
                }
            }
        }
        let sig = match columns[c].first() {
            Some(&s) => s,
            None => *zero.get_or_insert_with(|| nl.const0()),
        };
        outputs.push(sig);
    }
    outputs
}

pub(crate) fn reduce_wallace_impl(nl: &mut Netlist, mut columns: Vec<Vec<Signal>>) -> Vec<Signal> {
    let out_bits = columns.len();
    loop {
        let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
        if max_height <= 2 {
            break;
        }
        let mut next: Vec<Vec<Signal>> = vec![Vec::new(); out_bits];
        for c in 0..out_bits {
            let col = std::mem::take(&mut columns[c]);
            let mut i = 0;
            while col.len() - i >= 3 {
                let (s, carry) = nl.full_adder(col[i], col[i + 1], col[i + 2]);
                next[c].push(s);
                if c + 1 < out_bits {
                    next[c + 1].push(carry);
                }
                i += 3;
            }
            if col.len() - i == 2 && col.len() > 2 {
                let (s, carry) = nl.half_adder(col[i], col[i + 1]);
                next[c].push(s);
                if c + 1 < out_bits {
                    next[c + 1].push(carry);
                }
                i += 2;
            }
            next[c].extend_from_slice(&col[i..]);
        }
        columns = next;
    }
    reduce_ripple_impl(nl, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ExhaustiveTable;

    #[test]
    fn conditional_constant_adds_when_gate_is_high() {
        let mut nl = Netlist::new();
        let g = nl.input();
        let mut dots = DotColumns::new(4);
        dots.push_conditional_constant(0b0101, g);
        let outs = dots.reduce_ripple(&mut nl);
        nl.set_outputs(outs);
        let t = ExhaustiveTable::build(&nl);
        assert_eq!(t.values()[0], 0);
        assert_eq!(t.values()[1], 0b0101);
    }

    #[test]
    fn reduction_sums_column_heights() {
        // Three dots of weight 0 and one of weight 1: value = popcount-ish.
        let mut nl = Netlist::new();
        let inputs: Vec<_> = (0..4).map(|_| nl.input()).collect();
        let mut dots = DotColumns::new(4);
        for &i in &inputs[..3] {
            dots.push(0, i);
        }
        dots.push(1, inputs[3]);
        let outs = reduce_wallace_impl(&mut nl, dots.columns);
        nl.set_outputs(outs);
        let t = ExhaustiveTable::build(&nl);
        for v in 0..16u64 {
            let expect = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1) + 2 * ((v >> 3) & 1);
            assert_eq!(t.values()[v as usize], expect, "v={v:04b}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_constant_panics() {
        let mut nl = Netlist::new();
        let g = nl.input();
        let mut dots = DotColumns::new(2);
        dots.push_conditional_constant(0b100, g);
    }
}
