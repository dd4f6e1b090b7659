//! Uniform asymmetric quantization (Eqs. 7-8 of the paper).
//!
//! The framework simulates integer arithmetic with *fake quantization*:
//! floating-point weights `w` and activations `x` are mapped to unsigned
//! `B`-bit integers
//!
//! ```text
//! W = Q(w) = round(w / s_w + Z_w),    X = Q(x) = round(x / s_x + Z_x)
//! ```
//!
//! the (approximate) integer product `Y = AM(W, X)` is computed, and the
//! dequantization
//!
//! ```text
//! y = DQ(Y) = s_w s_x (Y - Z_x W - Z_w X + Z_w Z_x)
//! ```
//!
//! recovers a floating-point value. `Q'` uses the clipped straight-through
//! estimator: the gradient passes iff the pre-round value lies inside the
//! quantizer range.

use appmult_nn::Tensor;

/// How float values map onto the unsigned `B`-bit codes the multiplier
/// LUTs consume.
///
/// The paper's path is [`QuantScheme::Unsigned`]: asymmetric affine codes
/// whose value is `s (Q - Z)`. The signed int8 path of ApproxTrain-style
/// retraining is [`QuantScheme::SignedOffset`]: symmetric codes with the
/// fixed zero point `2^(B-1)` (offset binary, i.e. two's complement with
/// the sign bit flipped), consumed by `SignMagnitudeMultiplier`'s offset
/// LUT whose entries store `product + 2^(2B-1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantScheme {
    /// Uniform asymmetric unsigned quantization (Eqs. 7-8).
    #[default]
    Unsigned,
    /// Symmetric signed quantization in offset-binary codes, paired with
    /// offset-product LUTs (`SignMagnitudeMultiplier::to_offset_lut`).
    SignedOffset,
}

impl QuantScheme {
    /// Stable identifier used in reports (`"unsigned"` / `"signed"`).
    pub fn key(self) -> &'static str {
        match self {
            QuantScheme::Unsigned => "unsigned",
            QuantScheme::SignedOffset => "signed",
        }
    }
}

/// Scale and zero point of one uniform asymmetric quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Floating-point scale `s` (> 0).
    pub scale: f32,
    /// Integer zero point `Z` in `[0, 2^B - 1]`.
    pub zero_point: i32,
    /// Operand bit width `B`.
    pub bits: u32,
}

impl QuantParams {
    /// Derives parameters covering `[lo, hi]` with `bits`-bit unsigned
    /// codes (Eq. 7). The range is widened to include 0 so that zero
    /// padding quantizes exactly to the zero point.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, either bound is non-finite, or `bits` is not in
    /// `2..=10`.
    pub fn from_range(lo: f32, hi: f32, bits: u32) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "range must be finite");
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        assert!((2..=10).contains(&bits), "bits must be in 2..=10");
        let lo = lo.min(0.0);
        let hi = hi.max(0.0);
        let qmax = ((1u32 << bits) - 1) as f32;
        let scale = ((hi - lo) / qmax).max(1e-10);
        let zero_point = (-lo / scale).round().clamp(0.0, qmax) as i32;
        Self {
            scale,
            zero_point,
            bits,
        }
    }

    /// Derives symmetric signed parameters covering `[-max_abs, max_abs]`
    /// in offset-binary codes: the zero point is pinned to `2^(B-1)` and
    /// the scale spans the magnitude range, so code `Q` represents
    /// `s (Q - 2^(B-1))` with the full negative reach of two's complement
    /// left unused (codes are symmetric in `+/-(2^(B-1) - 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is non-finite or negative, or `bits` is not in
    /// `2..=10`.
    pub fn signed_symmetric(max_abs: f32, bits: u32) -> Self {
        assert!(
            max_abs.is_finite() && max_abs >= 0.0,
            "max_abs must be finite and non-negative"
        );
        assert!((2..=10).contains(&bits), "bits must be in 2..=10");
        let half = 1i32 << (bits - 1);
        let scale = (max_abs / (half - 1) as f32).max(1e-10);
        Self {
            scale,
            zero_point: half,
            bits,
        }
    }

    /// Largest representable code, `2^B - 1`.
    pub fn qmax(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantizes one value (Eq. 7) and reports whether it fell inside the
    /// code range: `(quantize(v), in_range(v))` for `x = v / s + Z`, rounded
    /// half away from zero. NaN maps to code 0 and, like `+/-Inf`, counts
    /// as out of range.
    ///
    /// The rounding is done on the clamped value without `f32::round`
    /// (a libm call on baseline x86-64): `c - trunc(c)` is exact for
    /// `c` in `[0, qmax]`, so adding `[frac >= 0.5]` to the truncation is
    /// the rounded code, and `x` rounds into range exactly when it lies in
    /// `(-0.5, qmax + 0.5)`.
    #[inline]
    pub fn quantize_clip(&self, v: f32) -> (u32, bool) {
        let x = v / self.scale + self.zero_point as f32;
        let qmax = self.qmax() as f32;
        let c = x.clamp(0.0, qmax);
        let t = c as u32;
        let code = t + u32::from(c - t as f32 >= 0.5);
        (code, x > -0.5 && x < qmax + 0.5)
    }

    /// Eq. 7 over a slice: `(codes[i] as u32, keep[i])` is
    /// [`quantize_clip`](Self::quantize_clip)`(values[i])`, bit for bit, in
    /// a form whose every step is a lane operation, so the loop vectorizes.
    ///
    /// Selects in place of `clamp` send NaN and everything at or below 0
    /// to 0. Adding `2^23` to the clamped `c` (at most `2^10 - 1`) leaves
    /// its round-half-to-even integer in the low mantissa bits, read off
    /// the bit pattern instead of through a float-to-int cast; a tie that
    /// rounded down to even (`c` exactly 0.5 above it) is bumped up, which
    /// is `quantize_clip`'s round half up on the non-negative `c`.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn quantize_slice(&self, values: &[f32], codes: &mut [u16], keep: &mut [bool]) {
        const MAGIC: f32 = 8_388_608.0; // 2^23
        assert_eq!(values.len(), codes.len(), "codes length mismatch");
        assert_eq!(values.len(), keep.len(), "clip flags length mismatch");
        let (scale, zero) = (self.scale, self.zero_point as f32);
        let qmax = self.qmax() as f32;
        for ((&v, code), kept) in values.iter().zip(codes.iter_mut()).zip(keep.iter_mut()) {
            let x = v / scale + zero;
            let c = if x > 0.0 { x } else { 0.0 };
            let c = if c < qmax { c } else { qmax };
            let m = c + MAGIC;
            let tie_down = c - (m - MAGIC) >= 0.5;
            *code = (m.to_bits() - MAGIC.to_bits() + u32::from(tie_down)) as u16;
            *kept = x > -0.5 && x < qmax + 0.5;
        }
    }

    /// Quantizes one value (Eq. 7), clamping to the code range.
    #[inline]
    pub fn quantize(&self, v: f32) -> u32 {
        self.quantize_clip(v).0
    }

    /// Whether `v` quantizes without clamping — the clipped-STE condition
    /// for `Q'(v) != 0`.
    #[inline]
    pub fn in_range(&self, v: f32) -> bool {
        self.quantize_clip(v).1
    }

    /// Dequantizes one code: `s * (q - Z)`.
    #[inline]
    pub fn dequantize(&self, q: u32) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }
}

/// Dequantization of an accumulated dot product of `count` terms (Eq. 8
/// applied linearly over the sum):
///
/// `y = s_w s_x (sum_Y - Z_x sum_W - Z_w sum_X + count Z_w Z_x)`.
#[inline]
pub fn dequantize_dot(
    wq: &QuantParams,
    xq: &QuantParams,
    sum_y: i64,
    sum_w: i64,
    sum_x: i64,
    count: usize,
) -> f32 {
    let zw = i64::from(wq.zero_point);
    let zx = i64::from(xq.zero_point);
    let acc = sum_y - zx * sum_w - zw * sum_x + (count as i64) * zw * zx;
    wq.scale * xq.scale * acc as f32
}

/// Dequantization of an accumulated *offset-binary* dot product of
/// `count` terms: each LUT entry stores
/// `(W - 2^(B-1))(X - 2^(B-1)) + 2^(2B-1)`, so the true signed sum is
/// recovered by subtracting the constant offset once per term:
///
/// `y = s_w s_x (sum_Y - count * 2^(2B-1))`.
///
/// Unlike [`dequantize_dot`], no `sum_W`/`sum_X` correction appears — the
/// operand zero points are already folded into the stored products.
#[inline]
pub fn dequantize_dot_offset(wq: &QuantParams, xq: &QuantParams, sum_y: i64, count: usize) -> f32 {
    debug_assert_eq!(wq.bits, xq.bits, "operand widths must match");
    let offset = 1i64 << (2 * wq.bits - 1);
    let acc = sum_y - (count as i64) * offset;
    wq.scale * xq.scale * acc as f32
}

/// Exponential-moving-average min/max observer for activation calibration.
///
/// The first observation initializes the range directly; later batches are
/// blended with momentum, the standard fake-quantization recipe.
///
/// Batches whose extrema are non-finite (an `Inf` activation, or a tensor
/// with no finite elements at all — note that `f32::min`/`max` skip NaN, so
/// a lone NaN among finite values never reaches the extrema) are *rejected*:
/// the running range is left untouched and [`Observer::rejected`] is
/// incremented. Folding such extrema into the EMA would corrupt the range
/// permanently and make every later [`Observer::quant_params`] call panic —
/// exactly the poisoning the resilient retraining loop must survive.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Observer {
    range: Option<(f32, f32)>,
    momentum: f32,
    rejected: usize,
}

impl Observer {
    /// Creates an observer with the given EMA momentum (e.g. 0.05-0.1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < momentum <= 1`.
    pub fn new(momentum: f32) -> Self {
        assert!(momentum > 0.0 && momentum <= 1.0, "momentum in (0, 1]");
        Self {
            range: None,
            momentum,
            rejected: 0,
        }
    }

    /// Folds a batch's min/max into the running range. Non-finite extrema
    /// are rejected: the previous range (if any) is kept and the rejection
    /// is counted instead. An empty tensor has no extrema and is ignored.
    pub fn observe(&mut self, t: &Tensor) {
        if t.is_empty() {
            return;
        }
        let (lo, hi) = t.min_max();
        if !lo.is_finite() || !hi.is_finite() {
            self.rejected += 1;
            return;
        }
        self.range = Some(match self.range {
            None => (lo, hi),
            Some((rlo, rhi)) => (
                rlo + self.momentum * (lo - rlo),
                rhi + self.momentum * (hi - rhi),
            ),
        });
    }

    /// Current range, if any batch has been observed.
    pub fn range(&self) -> Option<(f32, f32)> {
        self.range
    }

    /// Number of batches rejected for non-finite extrema.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Quantization parameters for the current range.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been observed yet.
    pub fn quant_params(&self, bits: u32) -> QuantParams {
        let (lo, hi) = self.range.expect("observer has seen no data");
        QuantParams::from_range(lo, hi, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_within_half_step() {
        let q = QuantParams::from_range(-1.0, 1.0, 8);
        for i in 0..100 {
            let v = -1.0 + 0.02 * i as f32;
            let r = q.dequantize(q.quantize(v));
            assert!((r - v).abs() <= q.scale * 0.5 + 1e-6, "{v} -> {r}");
        }
    }

    #[test]
    fn zero_maps_to_zero_point_exactly() {
        let q = QuantParams::from_range(-0.73, 1.9, 8);
        assert_eq!(q.quantize(0.0), q.zero_point as u32);
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn positive_only_range_still_contains_zero() {
        let q = QuantParams::from_range(0.5, 2.0, 8);
        assert_eq!(q.quantize(0.0), q.zero_point as u32);
        assert_eq!(q.zero_point, 0);
    }

    #[test]
    fn out_of_range_values_clamp_and_clip() {
        let q = QuantParams::from_range(-1.0, 1.0, 4);
        assert_eq!(q.quantize(50.0), q.qmax());
        assert_eq!(q.quantize(-50.0), 0);
        assert!(!q.in_range(50.0));
        assert!(!q.in_range(-50.0));
        assert!(q.in_range(0.5));
    }

    /// The pre-`quantize_clip` formula: round half away from zero with
    /// `f32::round`, then clamp, and test the rounded value's range.
    fn round_then_clamp(p: &QuantParams, v: f32) -> (u32, bool) {
        let q = (v / p.scale + p.zero_point as f32).round();
        let qmax = p.qmax() as f32;
        (q.clamp(0.0, qmax) as u32, q >= 0.0 && q <= qmax)
    }

    /// `f32` in total order as an integer (`-0.0` and `+0.0` both 0), and
    /// back, so that `d` steps from a value are `d` ulps.
    fn ordinal(v: f32) -> i64 {
        let b = i64::from(v.to_bits() as i32);
        if b < 0 {
            -(b & 0x7fff_ffff)
        } else {
            b
        }
    }

    fn from_ordinal(o: i64) -> f32 {
        if o < 0 {
            f32::from_bits((-o) as u32 | 0x8000_0000)
        } else {
            f32::from_bits(o as u32)
        }
    }

    #[test]
    fn quantize_clip_agrees_with_the_two_rounding_formula_on_corners() {
        // Scale 1 puts exact .5 ties at v = n + 0.5 - Z.
        let unit = QuantParams {
            scale: 1.0,
            zero_point: 3,
            bits: 4,
        };
        let params = [
            unit,
            QuantParams::from_range(-0.73, 1.9, 6),
            QuantParams::signed_symmetric(1.27, 8),
        ];
        for p in &params {
            let qmax = p.qmax() as f32;
            let z = p.zero_point as f32;
            let mut corners = vec![0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            // qmax +/- 0.5 and the -0.5 tie below code 0, in value space.
            for code in [qmax - 0.5, qmax + 0.5, -0.5, 0.5, 2.5] {
                corners.push((code - z) * p.scale);
            }
            for v in corners {
                let got = p.quantize_clip(v);
                assert_eq!(got, round_then_clamp(p, v), "{p:?} at {v}");
                assert_eq!(got, (p.quantize(v), p.in_range(v)), "{p:?} at {v}");
            }
        }
        // Round-half-away-from-zero at the range edges of `unit`
        // (qmax = 15, Z = 3).
        assert_eq!(unit.quantize_clip(11.5), (15, true), "14.5 rounds to qmax");
        assert_eq!(
            unit.quantize_clip(12.5),
            (15, false),
            "15.5 rounds past qmax"
        );
        assert_eq!(unit.quantize_clip(-3.5), (0, false), "-0.5 rounds to -1");
        assert_eq!(unit.quantize_clip(-3.49), (0, true), "-0.49 rounds to -0");
        assert_eq!(unit.quantize_clip(-0.0), (3, true));
        assert_eq!(unit.quantize_clip(f32::NAN), (0, false));
        assert_eq!(unit.quantize_clip(f32::INFINITY), (15, false));
        assert_eq!(unit.quantize_clip(f32::NEG_INFINITY), (0, false));
    }

    #[test]
    fn quantize_clip_matches_round_then_clamp_near_every_code_and_tie() {
        // Unit scale and zero point 0 make `x = v`, so the codes and ties
        // are exact inputs; the other two exercise the division and Z.
        let mut params: Vec<QuantParams> = [6, 7, 8]
            .into_iter()
            .map(|bits| QuantParams {
                scale: 1.0,
                zero_point: 0,
                bits,
            })
            .collect();
        params.push(QuantParams::from_range(-0.73, 1.9, 6));
        params.push(QuantParams::signed_symmetric(1.27, 8));
        let check = |p: &QuantParams, v: f32| {
            let got = p.quantize_clip(v);
            let want = round_then_clamp(p, v);
            assert_eq!(got, want, "{p:?} at {v:e} ({:#010x})", v.to_bits());
        };
        let mut specials = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        for bits in [0x7fc0_0000u32, 0xffc0_0000, 0x7f80_0001, 0xff80_0001] {
            specials.push(f32::from_bits(bits));
        }
        for bits in [1u32, 2, 0x0040_0000, 0x007f_ffff] {
            specials.push(f32::from_bits(bits));
            specials.push(-f32::from_bits(bits));
        }
        for p in &params {
            for &v in &specials {
                check(p, v);
            }
            let qmax = p.qmax() as i64;
            for c in -2..=qmax + 2 {
                for center in [c as f32 - 0.5, c as f32, c as f32 + 0.5] {
                    let at = ordinal((center - p.zero_point as f32) * p.scale);
                    for d in -64..=64 {
                        check(p, from_ordinal(at + d));
                    }
                }
            }
            for bits in (0..=u32::MAX).step_by(4099) {
                check(p, f32::from_bits(bits));
            }
        }
    }

    #[test]
    fn quantize_slice_is_quantize_clip_bit_for_bit() {
        // Random bit patterns (every class of f32: NaN payloads, infinities,
        // subnormals, both zeros), then the ties and their ulp neighbours
        // around every code, at 6, 7 and 8 bits under both schemes.
        let mut params = Vec::new();
        for bits in [6, 7, 8] {
            params.push(QuantParams::from_range(-0.73, 1.9, bits));
            params.push(QuantParams::signed_symmetric(1.27, bits));
            params.push(QuantParams {
                scale: 1.0,
                zero_point: 0,
                bits,
            });
        }
        let mut rng = appmult_rng::Rng64::seed_from_u64(0x0E07);
        let random: Vec<f32> = (0..1 << 22)
            .map(|_| f32::from_bits(rng.next_u64() as u32))
            .collect();
        let check = |p: &QuantParams, values: &[f32]| {
            let mut codes = vec![u16::MAX; values.len()];
            let mut keep = vec![false; values.len()];
            p.quantize_slice(values, &mut codes, &mut keep);
            for ((&v, &code), &kept) in values.iter().zip(&codes).zip(&keep) {
                let (want, want_kept) = p.quantize_clip(v);
                assert!(
                    u32::from(code) == want && kept == want_kept,
                    "{p:?} at {v:e} ({:#010x}): ({code}, {kept}) vs ({want}, {want_kept})",
                    v.to_bits()
                );
            }
        };
        for p in &params {
            let qmax = p.qmax() as i64;
            let mut near = Vec::new();
            for c in -2..=qmax + 2 {
                for center in [c as f32 - 0.5, c as f32, c as f32 + 0.5] {
                    let at = ordinal((center - p.zero_point as f32) * p.scale);
                    near.extend((-8..=8).map(|d| from_ordinal(at + d)));
                }
            }
            check(p, &near);
        }
        for p in &params {
            check(p, &random);
        }
    }

    #[test]
    fn degenerate_range_does_not_blow_up() {
        let q = QuantParams::from_range(0.0, 0.0, 8);
        assert!(q.scale > 0.0);
        let r = q.dequantize(q.quantize(0.0));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn dequantize_dot_matches_elementwise() {
        // Quantized dot product dequantized in one shot must equal the sum
        // of per-term dequantized products when the multiplier is exact.
        let wq = QuantParams::from_range(-0.8, 0.9, 8);
        let xq = QuantParams::from_range(0.0, 2.0, 8);
        let ws = [-0.5f32, 0.3, 0.88];
        let xs = [1.5f32, 0.2, 0.7];
        let mut sum_y = 0i64;
        let mut sum_w = 0i64;
        let mut sum_x = 0i64;
        let mut reference = 0.0f32;
        for (w, x) in ws.iter().zip(&xs) {
            let cw = wq.quantize(*w);
            let cx = xq.quantize(*x);
            sum_y += i64::from(cw) * i64::from(cx);
            sum_w += i64::from(cw);
            sum_x += i64::from(cx);
            reference += wq.dequantize(cw) * xq.dequantize(cx);
        }
        let got = dequantize_dot(&wq, &xq, sum_y, sum_w, sum_x, ws.len());
        assert!((got - reference).abs() < 1e-5, "{got} vs {reference}");
    }

    #[test]
    fn signed_symmetric_pins_the_zero_point() {
        let q = QuantParams::signed_symmetric(1.27, 8);
        assert_eq!(q.zero_point, 128);
        assert_eq!(q.quantize(0.0), 128);
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
        // Symmetric reach: +/- max_abs hit codes 255 and 1.
        assert_eq!(q.quantize(1.27), 255);
        assert_eq!(q.quantize(-1.27), 1);
        assert!((q.dequantize(255) - 1.27).abs() < 1e-6);
        assert!((q.dequantize(1) + 1.27).abs() < 1e-6);
    }

    #[test]
    fn signed_symmetric_degenerate_range_does_not_blow_up() {
        let q = QuantParams::signed_symmetric(0.0, 8);
        assert!(q.scale > 0.0);
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn dequantize_dot_offset_matches_elementwise() {
        // Offset-binary dot product dequantized in one shot must equal the
        // sum of per-term signed dequantized products when the multiplier
        // is exact: stored = (W - 128)(X - 128) + 2^15.
        let wq = QuantParams::signed_symmetric(0.9, 8);
        let xq = QuantParams::signed_symmetric(2.0, 8);
        let ws = [-0.5f32, 0.3, 0.88];
        let xs = [1.5f32, -0.2, 0.7];
        let offset = 1i64 << 15;
        let mut sum_y = 0i64;
        let mut reference = 0.0f32;
        for (w, x) in ws.iter().zip(&xs) {
            let cw = i64::from(wq.quantize(*w));
            let cx = i64::from(xq.quantize(*x));
            sum_y += (cw - 128) * (cx - 128) + offset;
            reference += wq.dequantize(cw as u32) * xq.dequantize(cx as u32);
        }
        let got = dequantize_dot_offset(&wq, &xq, sum_y, ws.len());
        assert!((got - reference).abs() < 1e-5, "{got} vs {reference}");
    }

    #[test]
    fn scheme_keys_are_stable() {
        assert_eq!(QuantScheme::Unsigned.key(), "unsigned");
        assert_eq!(QuantScheme::SignedOffset.key(), "signed");
        assert_eq!(QuantScheme::default(), QuantScheme::Unsigned);
    }

    #[test]
    fn observer_ema_converges() {
        let mut obs = Observer::new(0.5);
        obs.observe(&Tensor::from_vec(vec![-1.0, 1.0], &[2]));
        for _ in 0..20 {
            obs.observe(&Tensor::from_vec(vec![-2.0, 4.0], &[2]));
        }
        let (lo, hi) = obs.range().expect("observed");
        assert!((lo + 2.0).abs() < 1e-3 && (hi - 4.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn unobserved_params_panic() {
        Observer::new(0.1).quant_params(8);
    }

    #[test]
    fn non_finite_extrema_are_rejected_not_folded() {
        let mut obs = Observer::new(0.5);
        obs.observe(&Tensor::from_vec(vec![-1.0, 1.0], &[2]));
        let calibrated = obs.range().expect("calibrated");
        // Inf extrema, an all-NaN batch, and -Inf extrema must all be
        // skipped; the EMA range stays exactly where it was.
        obs.observe(&Tensor::from_vec(vec![0.0, f32::INFINITY], &[2]));
        obs.observe(&Tensor::from_vec(vec![f32::NAN, f32::NAN], &[2]));
        obs.observe(&Tensor::from_vec(vec![f32::NEG_INFINITY, 0.5], &[2]));
        assert_eq!(obs.range().expect("still calibrated"), calibrated);
        assert_eq!(obs.rejected(), 3);
        // quant_params must not hit from_range's finite assert.
        assert!(obs.quant_params(8).scale.is_finite());
        // Finite batches keep blending afterwards.
        obs.observe(&Tensor::from_vec(vec![-3.0, 3.0], &[2]));
        assert_ne!(obs.range().expect("updated"), calibrated);
    }

    #[test]
    fn lone_nan_is_invisible_to_extrema() {
        // f32::min/max skip NaN, so a single poisoned pixel among finite
        // values never reaches the observer's extrema in the first place.
        let mut obs = Observer::new(0.5);
        obs.observe(&Tensor::from_vec(vec![-1.0, f32::NAN, 1.0], &[3]));
        assert_eq!(obs.range(), Some((-1.0, 1.0)));
        assert_eq!(obs.rejected(), 0);
    }

    #[test]
    fn empty_batches_are_ignored() {
        let mut obs = Observer::new(0.5);
        obs.observe(&Tensor::zeros(&[0, 3]));
        assert!(
            obs.range().is_none(),
            "an empty first batch calibrates nothing"
        );
        obs.observe(&Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        obs.observe(&Tensor::zeros(&[0]));
        assert_eq!(obs.range(), Some((-1.0, 2.0)), "no pull toward (0, 0)");
        assert_eq!(obs.rejected(), 0, "not counted as a rejection");
    }

    #[test]
    fn rejected_first_batch_leaves_observer_uncalibrated() {
        let mut obs = Observer::new(0.1);
        obs.observe(&Tensor::from_vec(vec![f32::NAN, f32::NAN], &[2]));
        assert!(obs.range().is_none());
        assert_eq!(obs.rejected(), 1);
    }
}
