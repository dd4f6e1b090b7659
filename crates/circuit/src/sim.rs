//! Bit-parallel logic simulation.
//!
//! Each signal carries a 64-bit word; bit `k` of every word belongs to the
//! `k`-th simulation pattern, so one pass over the netlist evaluates 64 input
//! vectors at once. This is the standard EDA trick that makes exhaustive
//! evaluation of 16-bit input spaces (8-bit × 8-bit multipliers) cheap.

use appmult_pool::Pool;

use crate::netlist::{GateKind, Netlist};

/// Simulates 64 patterns at once.
///
/// `input_words[i]` holds the 64 values of the `i`-th primary input (in
/// [`Netlist::inputs`] order). Returns one word per primary output.
///
/// # Panics
///
/// Panics if `input_words.len()` differs from the number of primary inputs.
pub fn simulate_words(netlist: &Netlist, input_words: &[u64]) -> Vec<u64> {
    let mut values = vec![0u64; netlist.num_nodes()];
    simulate_words_into(netlist, input_words, &mut values);
    netlist
        .outputs()
        .iter()
        .map(|s| values[s.index()])
        .collect()
}

/// Like [`simulate_words`] but writes every node value into `scratch`,
/// avoiding per-call allocation. `scratch` is resized as needed.
pub fn simulate_words_into(netlist: &Netlist, input_words: &[u64], scratch: &mut Vec<u64>) {
    assert_eq!(
        input_words.len(),
        netlist.num_inputs(),
        "expected one word per primary input"
    );
    scratch.clear();
    scratch.resize(netlist.num_nodes(), 0);
    let mut next_input = 0;
    for (sig, gate) in netlist.iter() {
        scratch[sig.index()] = match gate.kind {
            GateKind::Input => {
                let w = input_words[next_input];
                next_input += 1;
                w
            }
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Buf => scratch[gate.fanins[0].index()],
            GateKind::Not => !scratch[gate.fanins[0].index()],
            GateKind::And => scratch[gate.fanins[0].index()] & scratch[gate.fanins[1].index()],
            GateKind::Or => scratch[gate.fanins[0].index()] | scratch[gate.fanins[1].index()],
            GateKind::Xor => scratch[gate.fanins[0].index()] ^ scratch[gate.fanins[1].index()],
            GateKind::Nand => !(scratch[gate.fanins[0].index()] & scratch[gate.fanins[1].index()]),
            GateKind::Nor => !(scratch[gate.fanins[0].index()] | scratch[gate.fanins[1].index()]),
            GateKind::Xnor => !(scratch[gate.fanins[0].index()] ^ scratch[gate.fanins[1].index()]),
        };
    }
}

/// Evaluates a single boolean input vector.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
pub fn simulate_bools(netlist: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
    simulate_words(netlist, &words)
        .into_iter()
        .map(|w| w & 1 == 1)
        .collect()
}

/// Exhaustive evaluation of a netlist over all input combinations.
///
/// The primary inputs are interpreted as one unsigned bus in
/// [`Netlist::inputs`] order (input 0 = LSB); the outputs likewise. Entry `v`
/// of [`ExhaustiveTable::values`] is the output bus value under input value
/// `v`.
///
/// # Example
///
/// ```
/// use appmult_circuit::{Netlist, ExhaustiveTable};
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let (s, c) = nl.half_adder(a, b);
/// nl.set_outputs(vec![s, c]);
/// let table = ExhaustiveTable::build(&nl);
/// // 1 + 1 = 2
/// assert_eq!(table.values()[0b11], 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveTable {
    input_bits: u32,
    values: Vec<u64>,
}

impl ExhaustiveTable {
    /// Builds the table by bit-parallel simulation over all `2^n` patterns,
    /// using the global thread pool (`APPMULT_THREADS`).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 24 primary inputs (the table would
    /// exceed 16M entries) or more than 64 outputs.
    pub fn build(netlist: &Netlist) -> Self {
        Self::build_in(netlist, Pool::global())
    }

    /// Like [`ExhaustiveTable::build`] with an explicit worker pool.
    ///
    /// The `2^n` input patterns are partitioned into 64-lane simulation
    /// words and the word blocks are distributed across the workers; every
    /// table entry is written by exactly one worker, so the result is
    /// bit-identical for any thread count.
    pub fn build_in(netlist: &Netlist, pool: Pool) -> Self {
        let n = netlist.num_inputs() as u32;
        assert!(
            n <= 24,
            "exhaustive table limited to 24 input bits, got {n}"
        );
        assert!(netlist.outputs().len() <= 64, "at most 64 output bits");
        let total: usize = 1usize << n;
        let mut values = vec![0u64; total];
        // Fills the 64-lane words starting at word index `first_word`. Each
        // worker owns its scratch buffers, so workers share nothing mutable.
        let fill_words = |first_word: usize, out: &mut [u64]| {
            let mut scratch = Vec::new();
            let mut input_words = vec![0u64; netlist.num_inputs()];
            for (wl, lane_chunk) in out.chunks_mut(64).enumerate() {
                let base = ((first_word + wl) * 64) as u64;
                for (i, word) in input_words.iter_mut().enumerate() {
                    if i < 6 {
                        // Patterns within one word enumerate the low 6 input bits.
                        *word = PERIODIC[i];
                    } else {
                        // Higher bits are constant within the word.
                        *word = if (base >> i) & 1 == 1 { u64::MAX } else { 0 };
                    }
                }
                simulate_words_into(netlist, &input_words, &mut scratch);
                for (lane, v) in lane_chunk.iter_mut().enumerate() {
                    let mut out_bits = 0u64;
                    for (o, sig) in netlist.outputs().iter().enumerate() {
                        out_bits |= ((scratch[sig.index()] >> lane) & 1) << o;
                    }
                    *v = out_bits;
                }
            }
        };
        if total.is_multiple_of(64) {
            pool.run_rows(&mut values, 64, fill_words);
        } else {
            // Fewer than 6 inputs: a single partial word, run serially.
            fill_words(0, &mut values);
        }
        Self {
            input_bits: n,
            values,
        }
    }

    /// Number of primary input bits.
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Output value per input combination (index = input bus value).
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Periodic patterns for the 6 lowest input bits within a 64-lane word:
/// bit `i` of lane `k` equals bit `i` of `k`.
const PERIODIC: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Signal one-probabilities over the exhaustive input space.
///
/// Returns, for every node, the fraction of input combinations under which
/// the node evaluates to 1. Used by the power model (uniform inputs, as in
/// the paper's measurement setup).
///
/// # Panics
///
/// Panics if the netlist has more than 24 primary inputs.
pub(crate) fn signal_probabilities(netlist: &Netlist) -> Vec<f64> {
    let n = netlist.num_inputs() as u32;
    assert!(n <= 24, "probability extraction limited to 24 input bits");
    let total = 1usize << n;
    let words = total.div_ceil(64);
    let mut ones = vec![0u64; netlist.num_nodes()];
    let mut scratch = Vec::new();
    let mut input_words = vec![0u64; netlist.num_inputs()];
    for w in 0..words {
        let base = (w * 64) as u64;
        for (i, word) in input_words.iter_mut().enumerate() {
            if i < 6 {
                *word = PERIODIC[i];
            } else {
                *word = if (base >> i) & 1 == 1 { u64::MAX } else { 0 };
            }
        }
        simulate_words_into(netlist, &input_words, &mut scratch);
        let lanes = (total - w * 64).min(64);
        let mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        for (c, v) in ones.iter_mut().zip(&scratch) {
            *c += (v & mask).count_ones() as u64;
        }
    }
    ones.into_iter().map(|c| c as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let y = nl.xor(a, b);
        nl.set_outputs(vec![y]);
        nl
    }

    #[test]
    fn simulate_bools_matches_truth_table() {
        let nl = xor_netlist();
        assert_eq!(simulate_bools(&nl, &[false, false]), vec![false]);
        assert_eq!(simulate_bools(&nl, &[true, false]), vec![true]);
        assert_eq!(simulate_bools(&nl, &[false, true]), vec![true]);
        assert_eq!(simulate_bools(&nl, &[true, true]), vec![false]);
    }

    #[test]
    fn simulate_words_is_lanewise() {
        let nl = xor_netlist();
        // lane0: 0^0, lane1: 1^0, lane2: 0^1, lane3: 1^1
        let out = simulate_words(&nl, &[0b0010, 0b0100]);
        assert_eq!(out[0] & 0xF, 0b0110);
    }

    #[test]
    fn exhaustive_full_adder() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let (s, co) = nl.full_adder(a, b, c);
        nl.set_outputs(vec![s, co]);
        let t = ExhaustiveTable::build(&nl);
        for v in 0..8u64 {
            let expect = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
            assert_eq!(t.values()[v as usize], expect, "input {v:03b}");
        }
    }

    #[test]
    fn exhaustive_handles_more_than_six_inputs() {
        // 8-input parity: exercises the constant-per-word high input bits.
        let mut nl = Netlist::new();
        let inputs: Vec<_> = (0..8).map(|_| nl.input()).collect();
        let mut p = inputs[0];
        for &i in &inputs[1..] {
            p = nl.xor(p, i);
        }
        nl.set_outputs(vec![p]);
        let t = ExhaustiveTable::build(&nl);
        for v in 0..256u64 {
            assert_eq!(t.values()[v as usize], u64::from(v.count_ones() % 2));
        }
    }

    #[test]
    fn parallel_exhaustive_table_matches_serial() {
        // A 10-input multiplier netlist: 1024 patterns = 16 words, spread
        // over worker counts that do not divide 16.
        let nl = crate::MultiplierCircuit::array(5).netlist().clone();
        let serial = ExhaustiveTable::build_in(&nl, Pool::serial());
        for threads in [2usize, 3, 5, 16, 64] {
            let par = ExhaustiveTable::build_in(&nl, Pool::new(threads));
            assert_eq!(serial, par, "threads={threads}");
        }
        // Sub-word netlist (3 inputs < 64 lanes) stays on the serial path.
        let mut small = Netlist::new();
        let a = small.input();
        let b = small.input();
        let c = small.input();
        let (s, co) = small.full_adder(a, b, c);
        small.set_outputs(vec![s, co]);
        assert_eq!(
            ExhaustiveTable::build_in(&small, Pool::serial()),
            ExhaustiveTable::build_in(&small, Pool::new(8)),
        );
    }

    #[test]
    fn probabilities_of_and_gate() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let y = nl.and(a, b);
        nl.set_outputs(vec![y]);
        let p = signal_probabilities(&nl);
        assert!((p[a.index()] - 0.5).abs() < 1e-12);
        assert!((p[y.index()] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn constants_simulate_correctly() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let one = nl.const1();
        let zero = nl.const0();
        let x = nl.and(a, one);
        let y = nl.or(a, zero);
        let n1 = nl.nand(a, one);
        let n2 = nl.nor(a, zero);
        let n3 = nl.xnor(a, one);
        nl.set_outputs(vec![x, y, n1, n2, n3]);
        let t = ExhaustiveTable::build(&nl);
        // a=0 -> x=0,y=0,n1=1,n2=1,n3=0 (bit k = output k) => 0b01100
        assert_eq!(t.values()[0], 0b01100);
        // a=1 -> x=1,y=1,n1=0,n2=0,n3=1  => 0b10011
        assert_eq!(t.values()[1], 0b10011);
    }
}
