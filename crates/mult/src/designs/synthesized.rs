//! ALS-synthesized approximate multipliers (`_syn` designs).

use appmult_circuit::{synthesize, AlsConfig, MultiplierCircuit};

use super::assert_bits;
use crate::multiplier::{Multiplier, MultiplierLut};

/// An approximate multiplier produced by the greedy approximate logic
/// synthesis pass in `appmult-circuit`, standing in for the ALSRAC-generated
/// `_syn` designs of Table I.
///
/// The synthesized netlist is retained so the hardware cost model can
/// report its (reduced) area, delay, and power; the behavioural function is
/// served from the extracted LUT.
///
/// # Example
///
/// ```
/// use appmult_mult::{ErrorMetrics, Multiplier, SynthesizedMultiplier};
///
/// // Generating runs ALS over the exact array multiplier; keep it small here.
/// let m = SynthesizedMultiplier::generate(6, 0.004, 1);
/// let metrics = ErrorMetrics::exhaustive(&m.to_lut());
/// assert!(metrics.nmed_pct() <= 0.4);
/// assert!(metrics.nmed > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SynthesizedMultiplier {
    name: String,
    lut: MultiplierLut,
    circuit: MultiplierCircuit,
    nmed: f64,
}

impl SynthesizedMultiplier {
    /// Runs ALS on the exact `bits`-wide array multiplier under an NMED
    /// budget (fraction of `2^(2B) - 1`) with a deterministic seed.
    ///
    /// This is compute-heavy for 8-bit operands (a few seconds on one core);
    /// results for a given `(bits, budget, seed)` are fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 10`.
    pub fn generate(bits: u32, nmed_budget: f64, seed: u64) -> Self {
        assert_bits(bits);
        let exact = MultiplierCircuit::array(bits);
        let cfg = AlsConfig {
            nmed_budget,
            seed,
            ..AlsConfig::default()
        };
        let outcome = synthesize(&exact, &cfg);
        let name = format!("mul{bits}u_syn{seed}");
        let lut = MultiplierLut::from_circuit(name.clone(), &outcome.circuit);
        Self {
            name,
            lut,
            circuit: outcome.circuit,
            nmed: outcome.nmed,
        }
    }

    /// The NMED measured during synthesis.
    pub fn nmed(&self) -> f64 {
        self.nmed
    }
}

impl Multiplier for SynthesizedMultiplier {
    fn bits(&self) -> u32 {
        self.lut.bits()
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn multiply(&self, w: u32, x: u32) -> u32 {
        self.lut.product(w, x)
    }

    fn circuit(&self) -> Option<MultiplierCircuit> {
        Some(self.circuit.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ErrorMetrics;
    use appmult_circuit::CostModel;

    #[test]
    fn synthesis_reduces_hardware_cost() {
        let m = SynthesizedMultiplier::generate(5, 0.005, 3);
        let model = CostModel::asap7();
        let syn_cost = model.estimate(&m.circuit().expect("kept netlist"));
        let exact_cost = model.estimate(&MultiplierCircuit::array(5));
        assert!(syn_cost.area_um2 < exact_cost.area_um2);
        assert!(syn_cost.power_uw < exact_cost.power_uw);
    }

    #[test]
    fn lut_matches_reported_nmed() {
        let m = SynthesizedMultiplier::generate(5, 0.005, 3);
        let metrics = ErrorMetrics::exhaustive(&m.to_lut());
        assert!((metrics.nmed - m.nmed()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SynthesizedMultiplier::generate(4, 0.006, 9);
        let b = SynthesizedMultiplier::generate(4, 0.006, 9);
        assert_eq!(a.to_lut().entries(), b.to_lut().entries());
    }
}
