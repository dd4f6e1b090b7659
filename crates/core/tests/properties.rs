//! Randomized property tests for quantization and gradient approximation.
//!
//! Integer-operand properties use the vendored `appmult_rng::prop`
//! harness (seeded generation, domain corners always included, failures
//! shrunk toward the origin); the float-domain quantization checks keep
//! direct draws from the `Rng64` stream, which the harness does not model.

use appmult_mult::{ExactMultiplier, Multiplier, TruncatedMultiplier};
use appmult_retrain::{
    smooth_row, smooth_row_kernel, GradientLut, GradientMode, QuantParams, SmoothingKernel,
};
use appmult_rng::{prop, Rng64};

const CASES: usize = 128;

/// Deterministic pseudo-random LUT row for smoothing properties: value
/// pattern is fixed per `seed`, wild enough to have jumps and plateaus.
fn synthetic_row(seed: u32, len: u32) -> Vec<u32> {
    (0..len)
        .map(|x| (x.wrapping_mul(seed) >> 3) % 997)
        .collect()
}

/// Quantization round trip stays within half a step inside the range.
#[test]
fn fake_quant_error_bounded() {
    let mut rng = Rng64::seed_from_u64(0xD1);
    for _ in 0..64 {
        let lo = rng.uniform_f32(-4.0, 0.0);
        let width = rng.uniform_f32(0.1, 8.0);
        let t = rng.next_f32();
        let hi = lo + width;
        let q = QuantParams::from_range(lo, hi, 8);
        let v = lo + t * width;
        let r = q.fake_quantize(v);
        assert!(
            (r - v).abs() <= q.scale * 0.5 + 1e-6,
            "{v} -> {r} (scale {})",
            q.scale
        );
    }
}

/// Quantized codes always fit the bit width and dequantize finitely.
#[test]
fn codes_fit_bitwidth() {
    let mut rng = Rng64::seed_from_u64(0xD2);
    for _ in 0..64 {
        let v = rng.uniform_f32(-100.0, 100.0);
        let bits = 2 + rng.below(7) as u32;
        let q = QuantParams::from_range(-1.0, 1.0, bits);
        let code = q.quantize(v);
        assert!(code <= q.qmax());
        assert!(q.dequantize(code).is_finite());
    }
}

/// Zero always round-trips exactly (required so zero padding is
/// preserved by the quantized convolution).
#[test]
fn zero_is_exact() {
    let mut rng = Rng64::seed_from_u64(0xD3);
    for _ in 0..64 {
        let lo = rng.uniform_f32(-5.0, 0.0);
        let hi = rng.uniform_f32(0.0, 5.0);
        let bits = 2 + rng.below(7) as u32;
        let q = QuantParams::from_range(lo, hi, bits);
        assert_eq!(q.fake_quantize(0.0), 0.0);
    }
}

/// Smoothing always stays within the row's min/max envelope.
///
/// Operand pair: (row seed, HWS - 1).
#[test]
fn smoothing_stays_in_envelope() {
    prop::forall_pairs("Eq. 4 envelope", 0xD4, CASES, 999, 6, |seed, h| {
        let hws = 1 + h as u32;
        let row = synthetic_row(seed as u32, 64);
        let lo = f64::from(*row.iter().min().expect("nonempty"));
        let hi = f64::from(*row.iter().max().expect("nonempty"));
        smooth_row(&row, hws)
            .into_iter()
            .flatten()
            .all(|s| s >= lo - 1e-9 && s <= hi + 1e-9)
    });
}

/// The Eq. 4 window `[X - HWS, X + HWS]` is symmetric, so smoothing
/// commutes with reversing the row: `S(reverse(row)) == reverse(S(row))`,
/// `None` positions included. An off-center window implementation (e.g.
/// a trailing average) fails this immediately.
///
/// Operand pair: (row seed, HWS - 1).
#[test]
fn smoothing_window_is_symmetric() {
    prop::forall_pairs("Eq. 4 window symmetry", 0xD8, CASES, 999, 6, |seed, h| {
        let hws = 1 + h as u32;
        let row = synthetic_row(seed as u32, 64);
        let mut reversed = row.clone();
        reversed.reverse();
        let mut mirrored = smooth_row(&row, hws);
        mirrored.reverse();
        let smoothed_reversed = smooth_row(&reversed, hws);
        mirrored
            .iter()
            .zip(&smoothed_reversed)
            .all(|(a, b)| match (a, b) {
                (None, None) => true,
                (Some(u), Some(v)) => (u - v).abs() < 1e-9,
                _ => false,
            })
    });
}

/// Smoothing a constant row is the identity on the valid domain: the
/// mean of `2 HWS + 1` equal values is that value (Eq. 4 fixed point).
///
/// Operand pair: (constant value, HWS - 1).
#[test]
fn smoothing_fixes_constant_rows() {
    prop::forall_pairs(
        "Eq. 4 constant fixed point",
        0xD9,
        CASES,
        4095,
        6,
        |c, h| {
            let hws = 1 + h as u32;
            let row = vec![c as u32; 64];
            smooth_row(&row, hws)
                .into_iter()
                .flatten()
                .all(|s| (s - c as f64).abs() < 1e-9)
        },
    );
}

/// For the exact multiplier, the difference-based interior gradient
/// equals the STE gradient (sanity: the method generalizes STE).
///
/// Operand pair: (W, X); the comparison applies on the smoothed interior
/// of each table's domain.
#[test]
fn diff_gradient_of_exact_equals_ste() {
    let lut = ExactMultiplier::new(6).to_lut();
    let ours = GradientLut::build(&lut, GradientMode::difference_based(4));
    let ste = GradientLut::build(&lut, GradientMode::Ste);
    prop::forall_pairs("exact diff-gradient == STE", 0xD5, CASES, 63, 63, |w, x| {
        let (w, x) = (w as u32, x as u32);
        let x_interior = (5..58).contains(&x);
        let w_interior = (5..58).contains(&w);
        (!x_interior || (ours.wrt_x(w, x) - ste.wrt_x(w, x)).abs() < 1e-3)
            && (!w_interior || (ours.wrt_w(w, x) - ste.wrt_w(w, x)).abs() < 1e-3)
    });
}

/// The Eq. 5 (interior difference quotient) and Eq. 6 (boundary total
/// variation) gradient tables are finite and bounded by half the maximum
/// product per unit operand — never the wild spikes of the raw rows.
///
/// Operand pair: (removed columns K - 1, HWS - 1); each case checks the
/// full 64 x 64 table exhaustively.
#[test]
fn gradients_are_finite_and_bounded() {
    let cases = if cfg!(debug_assertions) { 24 } else { CASES };
    prop::forall_pairs("Eq. 5/6 table bounds", 0xD6, cases, 8, 15, |kk, hh| {
        let k = 1 + kk as u32;
        let hws = 1 + hh as u32;
        let lut = TruncatedMultiplier::new(6, k).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(hws));
        let bound = f64::from(63u32 * 63) / 2.0; // half the max product per unit operand
        (0..64u32).all(|w| {
            (0..64u32).all(|x| {
                let dx = f64::from(g.wrt_x(w, x));
                let dw = f64::from(g.wrt_w(w, x));
                dx.is_finite() && dx.abs() <= bound && dw.is_finite() && dw.abs() <= bound
            })
        })
    });
}

/// Gradients of a truncated multiplier are non-negative (the function
/// is monotone non-decreasing in each operand).
///
/// Operand pair: (removed columns K - 1, log2 HWS); each case checks the
/// full 64 x 64 table exhaustively.
#[test]
fn truncated_gradients_nonnegative() {
    let cases = if cfg!(debug_assertions) { 24 } else { CASES };
    prop::forall_pairs("truncated gradients >= 0", 0xD7, cases, 8, 4, |kk, he| {
        let k = 1 + kk as u32;
        let hws = 1u32 << he;
        let lut = TruncatedMultiplier::new(6, k).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(hws));
        (0..64u32).all(|w| (0..64u32).all(|x| g.wrt_x(w, x) >= 0.0 && g.wrt_w(w, x) >= 0.0))
    });
}

/// Halves every component of a case tuple toward the origin — the shared
/// shrinker for the `forall_with` estimator properties below.
fn shrink_triple(t: &(u64, u64, u64)) -> Vec<(u64, u64, u64)> {
    let (a, b, c) = *t;
    vec![
        (a / 2, b, c),
        (a, b / 2, c),
        (a, b, c / 2),
        (0, b, c),
        (a, 0, c),
        (a, b, 0),
    ]
}

/// Every smoothing kernel fixes constant rows: the normalized weighted
/// mean of `2 HWS + 1` equal values is that value, whatever the weights.
///
/// Case triple: (constant value, HWS - 1, kernel index).
#[test]
fn kernel_smoothing_fixes_constant_rows() {
    let kernels = [
        SmoothingKernel::Box,
        SmoothingKernel::Triangular,
        SmoothingKernel::Gaussian,
    ];
    prop::forall_with(
        "kernel constant fixed point",
        0xE1,
        CASES,
        |rng, _| (rng.below(4096), rng.below(6), rng.below(3)),
        shrink_triple,
        |&(c, h, k)| {
            let hws = 1 + h as u32;
            let kernel = kernels[k as usize];
            let row = vec![c as u32; 64];
            smooth_row_kernel(&row, hws, kernel)
                .into_iter()
                .flatten()
                .all(|s| (s - c as f64).abs() < 1e-9)
        },
    );
}

/// On exactly-linear rows (the exact multiplier: row `W` is `W · X`), the
/// least-squares local fit recovers the slope bit-exactly, agreeing with
/// the raw central difference (the window-1 fit) everywhere both are
/// interior.
///
/// Case triple: (W, X, regression window - 1).
#[test]
fn least_squares_matches_central_difference_on_linear_rows() {
    let lut = ExactMultiplier::new(6).to_lut();
    let raw = GradientLut::build(&lut, GradientMode::least_squares(1));
    let tables: Vec<GradientLut> = (1..=6)
        .map(|w| GradientLut::build(&lut, GradientMode::least_squares(w)))
        .collect();
    prop::forall_with(
        "least-squares slope == central difference on linear rows",
        0xE2,
        CASES,
        |rng, _| (rng.below(64), rng.below(64), rng.below(6)),
        shrink_triple,
        |&(w, x, wi)| {
            let window = 1 + wi as u32;
            let (w, x) = (w as u32, x as u32);
            if x < window || x + window > 63 {
                return true; // boundary: Eq. 6 fallback, checked elsewhere
            }
            let lsq = &tables[wi as usize];
            lsq.wrt_x(w, x).to_bits() == raw.wrt_x(w, x).to_bits()
        },
    );
}

/// Marginal-weighted smoothing with uniform operand marginals degenerates
/// to the unweighted difference-based estimator (equal weights cancel out
/// of the normalized mean).
///
/// Case triple: (removed columns K - 1, HWS - 1, unused).
#[test]
fn uniform_marginals_match_unweighted_difference() {
    let cases = if cfg!(debug_assertions) { 24 } else { CASES };
    let uniform = vec![1.0 / 64.0; 64];
    prop::forall_with(
        "uniform marginals == unweighted",
        0xE3,
        cases,
        |rng, _| (rng.below(8), rng.below(6), 0),
        shrink_triple,
        |&(kk, hh, _)| {
            let k = 1 + kk as u32;
            let hws = 1 + hh as u32;
            let lut = TruncatedMultiplier::new(6, k).to_lut();
            let plain = GradientLut::build(&lut, GradientMode::difference_based(hws));
            let weighted = GradientLut::build(
                &lut,
                GradientMode::marginal_weighted(hws, uniform.clone(), uniform.clone()),
            );
            (0..64u32).all(|w| {
                (0..64u32).all(|x| {
                    (f64::from(plain.wrt_x(w, x)) - f64::from(weighted.wrt_x(w, x))).abs() < 1e-4
                        && (f64::from(plain.wrt_w(w, x)) - f64::from(weighted.wrt_w(w, x))).abs()
                            < 1e-4
                })
            })
        },
    );
}
