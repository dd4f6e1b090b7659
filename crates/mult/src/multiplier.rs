//! The [`Multiplier`] trait and precomputed product LUTs.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use appmult_circuit::MultiplierCircuit;
use appmult_rng::Rng64;

/// An unsigned `B x B -> 2B`-bit integer multiplier, exact or approximate.
///
/// Implementations define the behavioural function `AM(W, X)` of Eq. 1.
/// The retraining framework never calls [`Multiplier::multiply`] in its hot
/// path; it precomputes the full product table once with
/// [`Multiplier::to_lut`] (the paper's LUT-based forward simulation).
pub trait Multiplier: fmt::Debug + Send + Sync {
    /// Operand bit width `B` (1..=10 in this workspace).
    fn bits(&self) -> u32;

    /// Human-readable design name (e.g. `"mul7u_rm6"`).
    fn name(&self) -> String;

    /// Computes the (approximate) product of two `B`-bit operands.
    ///
    /// # Panics
    ///
    /// Implementations may panic if an operand does not fit in `B` bits.
    fn multiply(&self, w: u32, x: u32) -> u32;

    /// Gate-level structure of the design, if one is available.
    ///
    /// Used by the hardware cost model. Behavioural-only surrogates return
    /// `None`; their hardware cost must come from elsewhere (e.g. the
    /// paper's published numbers).
    fn circuit(&self) -> Option<MultiplierCircuit> {
        None
    }

    /// Precomputes the full `2^(2B)`-entry product table.
    ///
    /// Entry `(w << B) | x` holds `AM(w, x)`.
    fn to_lut(&self) -> MultiplierLut
    where
        Self: Sized,
    {
        MultiplierLut::from_multiplier(self)
    }
}

impl<M: Multiplier + ?Sized> Multiplier for &M {
    fn bits(&self) -> u32 {
        (**self).bits()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn multiply(&self, w: u32, x: u32) -> u32 {
        (**self).multiply(w, x)
    }
    fn circuit(&self) -> Option<MultiplierCircuit> {
        (**self).circuit()
    }
}

impl<M: Multiplier + ?Sized> Multiplier for Arc<M> {
    fn bits(&self) -> u32 {
        (**self).bits()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn multiply(&self, w: u32, x: u32) -> u32 {
        (**self).multiply(w, x)
    }
    fn circuit(&self) -> Option<MultiplierCircuit> {
        (**self).circuit()
    }
}

/// A fully enumerated product table of a [`Multiplier`].
///
/// This is the representation the retraining framework uses during forward
/// propagation (the paper stores the same tables in GPU memory and indexes
/// them from CUDA kernels). Entry `(w << B) | x` is `AM(w, x)`.
///
/// # Example
///
/// ```
/// use appmult_mult::{ExactMultiplier, Multiplier};
///
/// let lut = ExactMultiplier::new(8).to_lut();
/// assert_eq!(lut.product(12, 11), 132);
/// assert_eq!(lut.entries().len(), 1 << 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplierLut {
    name: String,
    bits: u32,
    products: Vec<u32>,
}

impl MultiplierLut {
    /// Enumerates all `2^(2B)` operand pairs of `multiplier`.
    pub fn from_multiplier<M: Multiplier + ?Sized>(multiplier: &M) -> Self {
        let bits = multiplier.bits();
        let n = 1u32 << bits;
        let mut products = Vec::with_capacity((n as usize) * (n as usize));
        for w in 0..n {
            for x in 0..n {
                products.push(multiplier.multiply(w, x));
            }
        }
        Self {
            name: multiplier.name(),
            bits,
            products,
        }
    }

    /// Builds a LUT directly from raw entries in `(w << B) | x` order.
    ///
    /// # Panics
    ///
    /// Panics if `products.len() != 2^(2B)` or any product needs more than
    /// `2B` bits.
    pub fn from_entries(name: impl Into<String>, bits: u32, products: Vec<u32>) -> Self {
        assert_eq!(
            products.len(),
            1usize << (2 * bits),
            "expected 2^(2B) entries"
        );
        let limit = 1u64 << (2 * bits);
        assert!(
            products.iter().all(|&p| (p as u64) < limit),
            "a product exceeds {} bits",
            2 * bits
        );
        Self {
            name: name.into(),
            bits,
            products,
        }
    }

    /// Extracts the product table of a gate-level `circuit` by exhaustive
    /// simulation. A defective multiplier is the table of a faulted circuit
    /// (see [`MultiplierCircuit::with_faults`]).
    ///
    /// # Example
    ///
    /// ```
    /// use appmult_circuit::{fault_sites, FaultSpec, MultiplierCircuit};
    /// use appmult_mult::MultiplierLut;
    ///
    /// let circuit = MultiplierCircuit::array(4);
    /// let site = fault_sites(circuit.netlist())[10];
    /// let faulty = circuit.with_faults(&[FaultSpec::stuck_at_1(site)]).unwrap();
    /// let lut = MultiplierLut::from_circuit("mul4u_array_fault1", &faulty);
    /// assert_eq!(lut.bits(), 4);
    /// assert!(!lut.is_exact());
    /// ```
    pub fn from_circuit(name: impl Into<String>, circuit: &MultiplierCircuit) -> Self {
        let products = circuit
            .exhaustive_products()
            .into_iter()
            .map(|p| p as u32)
            .collect();
        Self::from_entries(name, circuit.bits(), products)
    }

    /// A copy of this table with `bit_flips` distinct (entry, bit) positions
    /// of its products flipped, chosen by `seed`, and named
    /// `{name}_flip{bit_flips}_s{seed}`. This models defective memory cells
    /// in a LUT-based accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `bit_flips` exceeds the total number of stored bits
    /// (`2^(2B) * 2B`).
    pub fn with_flipped_bits(&self, bit_flips: usize, seed: u64) -> Self {
        let out_bits = 2 * self.bits as usize;
        let mut products = self.products.clone();
        let total_bits = products.len() * out_bits;
        assert!(
            bit_flips <= total_bits,
            "cannot flip {bit_flips} of {total_bits} stored bits"
        );
        let mut rng = Rng64::seed_from_u64(seed);
        let mut flipped = HashSet::new();
        while flipped.len() < bit_flips {
            let pos = rng.index(total_bits);
            if flipped.insert(pos) {
                products[pos / out_bits] ^= 1 << (pos % out_bits);
            }
        }
        Self {
            name: format!("{}_flip{bit_flips}_s{seed}", self.name),
            bits: self.bits,
            products,
        }
    }

    /// Operand bit width `B`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Design name recorded at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw table in `(w << B) | x` order.
    pub fn entries(&self) -> &[u32] {
        &self.products
    }

    /// Looks up `AM(w, x)`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `B` bits.
    #[inline]
    pub fn product(&self, w: u32, x: u32) -> u32 {
        let b = self.bits;
        assert!(
            w < (1 << b) && x < (1 << b),
            "operands must fit in {b} bits"
        );
        self.products[((w as usize) << b) | x as usize]
    }

    /// The row `AM(w, ·)` as a slice indexed by `x` — the fixed-`W_f` slice
    /// analyzed in Sec. III of the paper.
    #[inline]
    pub fn row(&self, w: u32) -> &[u32] {
        let b = self.bits;
        assert!(w < (1 << b), "operand must fit in {b} bits");
        let n = 1usize << b;
        &self.products[(w as usize) * n..(w as usize + 1) * n]
    }

    /// The column `AM(·, x)` collected into a vector indexed by `w`.
    pub fn column(&self, x: u32) -> Vec<u32> {
        let b = self.bits;
        assert!(x < (1 << b), "operand must fit in {b} bits");
        let n = 1usize << b;
        (0..n).map(|w| self.products[w * n + x as usize]).collect()
    }

    /// A LUT transposed so that entry `(x << B) | w` is `AM(w, x)`.
    ///
    /// The gradient with respect to `W` is computed on rows of the
    /// transposed table.
    pub fn transposed(&self) -> MultiplierLut {
        let b = self.bits;
        let n = 1usize << b;
        let mut products = vec![0u32; n * n];
        for w in 0..n {
            for x in 0..n {
                products[x * n + w] = self.products[w * n + x];
            }
        }
        Self {
            name: format!("{}_t", self.name),
            bits: b,
            products,
        }
    }

    /// Whether every entry equals the exact product.
    pub fn is_exact(&self) -> bool {
        let n = 1u32 << self.bits;
        (0..n).all(|w| (0..n).all(|x| self.product(w, x) == w * x))
    }
}

impl Multiplier for MultiplierLut {
    fn bits(&self) -> u32 {
        self.bits
    }
    fn name(&self) -> String {
        self.name.clone()
    }
    fn multiply(&self, w: u32, x: u32) -> u32 {
        self.product(w, x)
    }
}

impl fmt::Display for MultiplierLut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}-bit LUT, {} entries)",
            self.name,
            self.bits,
            self.products.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::ExactMultiplier;

    #[test]
    fn lut_round_trips_multiplier() {
        let m = ExactMultiplier::new(5);
        let lut = m.to_lut();
        for w in 0..32 {
            for x in 0..32 {
                assert_eq!(lut.product(w, x), w * x);
            }
        }
        assert!(lut.is_exact());
    }

    #[test]
    fn row_and_column_agree_with_product() {
        let lut = ExactMultiplier::new(4).to_lut();
        let row = lut.row(7);
        for x in 0..16u32 {
            assert_eq!(row[x as usize], 7 * x);
        }
        let col = lut.column(3);
        for w in 0..16u32 {
            assert_eq!(col[w as usize], 3 * w);
        }
    }

    #[test]
    fn transpose_swaps_operands() {
        let lut = ExactMultiplier::new(3).to_lut();
        let t = lut.transposed();
        for w in 0..8 {
            for x in 0..8 {
                assert_eq!(lut.product(w, x), t.product(x, w));
            }
        }
    }

    #[test]
    fn from_entries_validates_length() {
        let r = std::panic::catch_unwind(|| MultiplierLut::from_entries("bad", 4, vec![0u32; 100]));
        assert!(r.is_err());
    }

    #[test]
    fn from_entries_validates_range() {
        let mut v = vec![0u32; 16];
        v[3] = 16; // needs 5 bits, only 2B = 4 available
        let r = std::panic::catch_unwind(|| MultiplierLut::from_entries("bad", 2, v));
        assert!(r.is_err());
    }

    #[test]
    fn from_circuit_matches_the_gate_level_design() {
        let circuit = MultiplierCircuit::wallace(4);
        let lut = MultiplierLut::from_circuit("mul4u_wallace", &circuit);
        assert_eq!(lut.name(), "mul4u_wallace");
        assert_eq!(lut.entries(), ExactMultiplier::new(4).to_lut().entries());
    }

    #[test]
    fn bit_flips_flip_exactly_n_bits() {
        let lut = ExactMultiplier::new(5).to_lut();
        for flips in [0usize, 1, 7, 32] {
            let changed_bits: u32 = lut
                .with_flipped_bits(flips, 0x5EED)
                .entries()
                .iter()
                .zip(lut.entries())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(changed_bits as usize, flips);
        }
    }

    #[test]
    fn bit_flips_are_deterministic_per_seed() {
        let lut = ExactMultiplier::new(4).to_lut();
        let a = lut.with_flipped_bits(5, 7);
        let b = lut.with_flipped_bits(5, 7);
        let c = lut.with_flipped_bits(5, 8);
        assert_eq!(a, b);
        assert_ne!(a.entries(), c.entries());
        assert_eq!(a.name(), format!("{}_flip5_s7", lut.name()));
    }

    #[test]
    fn flipped_products_still_fit_output_bus() {
        let lut = ExactMultiplier::new(4).to_lut();
        for &p in lut.with_flipped_bits(40, 99).entries() {
            assert!(p < 256);
        }
    }

    #[test]
    fn trait_objects_delegate() {
        let m: std::sync::Arc<dyn Multiplier> = std::sync::Arc::new(ExactMultiplier::new(4));
        assert_eq!(m.bits(), 4);
        assert_eq!(m.multiply(3, 5), 15);
        let lut = MultiplierLut::from_multiplier(m.as_ref());
        assert!(lut.is_exact());
    }
}
