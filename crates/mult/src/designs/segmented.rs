//! Segmented (DRUM-style) dynamic-range multiplier.

use super::{assert_bits, assert_operands};
use crate::multiplier::Multiplier;

/// A DRUM-style multiplier: each operand is reduced to its `segment`-bit
/// window starting at the leading one (with the dropped LSB forced to 1 for
/// unbiasing), the windows are multiplied exactly, and the result is shifted
/// back.
///
/// Operands that already fit in the segment are multiplied exactly, so the
/// error rate is far below the truncation designs while the maximum error
/// distance is large — the profile of the paper's `mul8u_1DMU` entry.
///
/// # Example
///
/// ```
/// use appmult_mult::{Multiplier, SegmentedMultiplier};
///
/// let m = SegmentedMultiplier::new(8, 4);
/// // Small operands are exact.
/// assert_eq!(m.multiply(7, 13), 91);
/// // Large operands are approximated but in the right ballpark.
/// let approx = m.multiply(200, 200) as f64;
/// assert!((approx - 40000.0).abs() / 40000.0 < 0.15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentedMultiplier {
    bits: u32,
    segment: u32,
}

impl SegmentedMultiplier {
    /// Creates the design with `segment`-bit windows.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 10` and `2 <= segment <= bits`.
    pub fn new(bits: u32, segment: u32) -> Self {
        assert_bits(bits);
        assert!(
            segment >= 2 && segment <= bits,
            "segment must be in 2..={bits}"
        );
        Self { bits, segment }
    }

    /// Reduces an operand to `(window_value, shift)`.
    fn reduce(&self, v: u32) -> (u32, u32) {
        let m = self.segment;
        if v < (1 << m) {
            (v, 0)
        } else {
            let p = 31 - v.leading_zeros();
            let shift = p - m + 1;
            // Truncate to the leading m bits and force the LSB to 1 so the
            // truncation error is unbiased.
            (((v >> shift) | 1), shift)
        }
    }
}

impl Multiplier for SegmentedMultiplier {
    fn bits(&self) -> u32 {
        self.bits
    }

    fn name(&self) -> String {
        format!("mul{}u_seg{}", self.bits, self.segment)
    }

    fn multiply(&self, w: u32, x: u32) -> u32 {
        assert_operands(self.bits, w, x);
        let (sw, shw) = self.reduce(w);
        let (sx, shx) = self.reduce(x);
        (sw * sx) << (shw + shx)
    }

    // `Multiplier::circuit` deliberately stays `None`: the 2-input-gate
    // cost model heavily overestimates the mux-rich DRUM structure (real
    // implementations use transmission-gate muxes), so Table I keeps the
    // paper's published hardware numbers for this entry.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ErrorMetrics;

    #[test]
    fn small_operands_are_exact() {
        let m = SegmentedMultiplier::new(8, 4);
        for w in 0..16 {
            for x in 0..16 {
                assert_eq!(m.multiply(w, x), w * x);
            }
        }
    }

    #[test]
    fn products_fit_output_bus() {
        let m = SegmentedMultiplier::new(8, 4);
        for w in 0..256 {
            for x in 0..256 {
                assert!(m.multiply(w, x) < 1 << 16, "{w}*{x}");
            }
        }
    }

    #[test]
    fn relative_error_bounded_by_window() {
        // DRUM-m has |relative error| < 2^(1-m) for nonzero operands.
        let m = SegmentedMultiplier::new(8, 4);
        let bound = 2.0f64.powi(1 - 4) * 2.0; // both operands approximated
        for &(w, x) in &[(255u32, 255u32), (129, 200), (100, 50), (17, 240)] {
            let exact = (w * x) as f64;
            let err = (m.multiply(w, x) as f64 - exact).abs() / exact;
            assert!(err <= bound, "{w}*{x}: rel err {err}");
        }
    }

    #[test]
    fn error_profile_is_low_er_high_maxed() {
        // Wider windows push the error rate down while MaxED stays large —
        // the characteristic DRUM profile (cf. mul8u_1DMU in Table I).
        let seg4 = ErrorMetrics::exhaustive(&SegmentedMultiplier::new(8, 4).to_lut());
        let seg5 = ErrorMetrics::exhaustive(&SegmentedMultiplier::new(8, 5).to_lut());
        assert!(seg5.error_rate < seg4.error_rate);
        assert!(seg5.er_pct() < 96.0, "er = {}", seg5.er_pct());
        assert!(seg5.max_ed > 1000, "DRUM MaxED is large: {}", seg5.max_ed);
    }

    #[test]
    fn full_width_segment_is_exact() {
        let m = SegmentedMultiplier::new(6, 6);
        let metrics = ErrorMetrics::exhaustive(&m.to_lut());
        assert_eq!(metrics.max_ed, 0);
    }
}
