//! Error metrics of approximate multipliers (Eq. 2 of the paper).

use crate::multiplier::MultiplierLut;

/// Standard approximate-arithmetic error metrics of a multiplier.
///
/// `ER`, `NMED`, and `MaxED` follow Eq. 2 of the paper; `MED` is the
/// unnormalized NMED.
///
/// # Example
///
/// ```
/// use appmult_mult::{ErrorMetrics, Multiplier, ExactMultiplier, TruncatedMultiplier};
///
/// let exact = ErrorMetrics::exhaustive(&ExactMultiplier::new(6).to_lut());
/// assert_eq!(exact.max_ed, 0);
/// assert_eq!(exact.error_rate, 0.0);
///
/// // mul6u_rm4 of Table I: ER 81.3%, NMED 0.3%, MaxED 49.
/// let rm4 = ErrorMetrics::exhaustive(&TruncatedMultiplier::new(6, 4).to_lut());
/// assert_eq!(rm4.max_ed, 49);
/// assert!((rm4.er_pct() - 81.3).abs() < 0.5);
/// assert!((rm4.nmed_pct() - 0.3).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorMetrics {
    /// Probability that the approximate product differs from the exact one.
    pub error_rate: f64,
    /// Mean error distance normalized by `2^(2B) - 1`.
    pub nmed: f64,
    /// Maximum absolute error distance over the input support.
    pub max_ed: u64,
    /// Mean absolute error distance (unnormalized).
    pub med: f64,
}

impl ErrorMetrics {
    /// Exhaustive metrics under a uniform input distribution (the paper's
    /// measurement setup).
    pub fn exhaustive(lut: &MultiplierLut) -> Self {
        let n = 1usize << lut.bits();
        let p = 1.0 / (n * n) as f64;
        Self::accumulate(lut, |_w, _x| p)
    }

    /// Metrics under independent per-operand marginals — e.g. operand
    /// histograms profiled from a running DNN (weights are far from
    /// uniform in practice, which shifts the effective NMED). Operand pairs
    /// with zero probability are excluded from `MaxED`.
    ///
    /// # Panics
    ///
    /// Panics unless both marginals have `2^B` entries.
    pub fn with_marginals(lut: &MultiplierLut, w_probs: &[f64], x_probs: &[f64]) -> Self {
        let n = 1usize << lut.bits();
        assert_eq!(w_probs.len(), n, "w marginal must have 2^B entries");
        assert_eq!(x_probs.len(), n, "x marginal must have 2^B entries");
        Self::accumulate(lut, |w, x| w_probs[w as usize] * x_probs[x as usize])
    }

    fn accumulate<F: FnMut(u32, u32) -> f64>(lut: &MultiplierLut, mut prob: F) -> Self {
        let bits = lut.bits();
        let n = 1u32 << bits;
        let norm = ((1u64 << (2 * bits)) - 1) as f64;
        let mut er = 0.0;
        let mut med = 0.0;
        let mut max_ed = 0u64;
        for w in 0..n {
            let row = lut.row(w);
            for x in 0..n {
                let p = prob(w, x);
                let acc = (w as u64) * (x as u64);
                let y = row[x as usize] as u64;
                let ed = y.abs_diff(acc);
                if p > 0.0 {
                    if ed != 0 {
                        er += p;
                        max_ed = max_ed.max(ed);
                    }
                    med += p * ed as f64;
                }
            }
        }
        Self {
            error_rate: er,
            nmed: med / norm,
            max_ed,
            med,
        }
    }

    /// Error rate in percent.
    pub fn er_pct(&self) -> f64 {
        self.error_rate * 100.0
    }

    /// NMED in percent.
    pub fn nmed_pct(&self) -> f64 {
        self.nmed * 100.0
    }
}

impl std::fmt::Display for ErrorMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ER {:.1}%, NMED {:.2}%, MaxED {}",
            self.er_pct(),
            self.nmed_pct(),
            self.max_ed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{ExactMultiplier, TruncatedMultiplier};
    use crate::multiplier::Multiplier;

    #[test]
    fn exact_multiplier_has_zero_error() {
        let m = ErrorMetrics::exhaustive(&ExactMultiplier::new(7).to_lut());
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.nmed, 0.0);
        assert_eq!(m.max_ed, 0);
        assert_eq!(m.med, 0.0);
    }

    #[test]
    fn rm8_matches_paper_table1() {
        // mul8u_rm8: ER 98.0%, NMED 0.68%, MaxED 1793.
        let m = ErrorMetrics::exhaustive(&TruncatedMultiplier::new(8, 8).to_lut());
        assert_eq!(m.max_ed, 1793);
        assert!((m.er_pct() - 98.0).abs() < 0.5, "er = {}", m.er_pct());
        assert!(
            (m.nmed_pct() - 0.68).abs() < 0.03,
            "nmed = {}",
            m.nmed_pct()
        );
    }

    #[test]
    fn truncation_maxed_closed_form() {
        // MaxED of rm-k is sum over removed columns of (height * weight).
        for (bits, k) in [(6u32, 4u32), (7, 6), (8, 8)] {
            let m = ErrorMetrics::exhaustive(&TruncatedMultiplier::new(bits, k).to_lut());
            let expect: u64 = (0..k).map(|c| ((c + 1) as u64) << c).sum();
            assert_eq!(m.max_ed, expect, "bits={bits} k={k}");
        }
    }

    #[test]
    fn zero_probability_pairs_are_excluded() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        // All mass on one error-free pair (w = 32, x = 32: pp columns >= 10).
        let mut one_hot = vec![0.0f64; 64];
        one_hot[32] = 1.0;
        let metrics = ErrorMetrics::with_marginals(&lut, &one_hot, &one_hot);
        assert_eq!(metrics.error_rate, 0.0);
        assert_eq!(metrics.max_ed, 0);
    }

    #[test]
    fn marginals_match_pairwise_distribution() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        // A skewed marginal concentrated on small codes.
        let mut probs = vec![0.0f64; 64];
        for (i, p) in probs.iter_mut().enumerate() {
            *p = 1.0 / (i as f64 + 1.0);
        }
        let z: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= z;
        }
        let a = ErrorMetrics::with_marginals(&lut, &probs, &probs);
        // The same expectation summed pair by pair.
        let mut med = 0.0;
        for w in 0..64u32 {
            for x in 0..64u32 {
                let ed = u64::from(lut.product(w, x)).abs_diff(u64::from(w * x));
                med += probs[w as usize] * probs[x as usize] * ed as f64;
            }
        }
        assert!((a.med - med).abs() < 1e-12 * med);
        assert_eq!(a.max_ed, ErrorMetrics::exhaustive(&lut).max_ed);
    }

    #[test]
    fn skewed_marginals_shift_nmed_vs_uniform() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let uniform = ErrorMetrics::exhaustive(&lut);
        // Mass on small operands only: truncation errors are relatively
        // larger there... in absolute ED terms they are *smaller*.
        let mut probs = vec![0.0f64; 64];
        for p in probs.iter_mut().take(8) {
            *p = 1.0 / 8.0;
        }
        let small = ErrorMetrics::with_marginals(&lut, &probs, &probs);
        assert!(small.med < uniform.med);
    }

    #[test]
    fn display_mentions_all_headline_metrics() {
        let m = ErrorMetrics::exhaustive(&TruncatedMultiplier::new(6, 4).to_lut());
        let s = format!("{m}");
        assert!(s.contains("ER") && s.contains("NMED") && s.contains("MaxED"));
    }
}
