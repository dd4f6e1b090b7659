//! Difference-based gradient approximation of AppMults (Sec. III).
//!
//! For a fixed `W_f`, the gradient of the smoothed AppMult function is
//! approximated by the central difference (Eq. 5)
//!
//! ```text
//! dAM/dX ~ (S(W_f, X + 1) - S(W_f, X - 1)) / 2    for HWS < X < 2^B - 1 - HWS
//! ```
//!
//! and by the average slope over the whole operand range (Eq. 6) at the
//! boundary:
//!
//! ```text
//! dAM/dX ~ (max_X AM(W_f, X) - min_X AM(W_f, X)) / 2^B    otherwise.
//! ```
//!
//! The gradients for all `2^(2B)` operand pairs are precomputed into
//! lookup tables ([`GradientLut`]) exactly as the paper stores them in GPU
//! memory, and the framework accepts arbitrary user-defined tables through
//! [`GradientMode::Custom`].
//!
//! The journal extension (arXiv 2509.10519) generalizes the single
//! difference-based rule into an estimator *family*, all reproduced here:
//! parameterized smoothing kernels for Eq. 4 (the `kernel` of
//! [`GradientMode::DifferenceBased`]), a least-squares local linear fit
//! ([`GradientMode::LeastSquares`]), an input-distribution-weighted
//! average ([`GradientMode::MarginalWeighted`]), and an ApproxTrain-style
//! per-row linear surrogate ([`GradientMode::Surrogate`]). Each estimator
//! is one per-row rule run by a single table builder: every output row
//! starts at its Eq. 6 slope, the rule overwrites the entries it defines,
//! and `dAM/dW` runs the same rule over the rows of the transposed LUT.
//! Rows are partitioned across the worker pool, so the tables are
//! bit-identical at any thread count.

use std::fmt;
use std::sync::Arc;

use appmult_mult::MultiplierLut;
use appmult_pool::Pool;

use crate::quant::QuantScheme;
use crate::smoothing::{row_min_max, smooth_row_kernel, weighted_smooth_row, SmoothingKernel};

/// How the gradient of an AppMult is approximated during backpropagation.
#[derive(Debug, Clone)]
pub enum GradientMode {
    /// Straight-through estimator: use the accurate multiplier's gradient
    /// (`dAM/dW ~ X`, `dAM/dX ~ W`) — the baseline of refs. \[8\]-\[13\].
    Ste,
    /// The paper's smoothed difference-based gradient (Eqs. 4-6): Eq. 4
    /// smoothing, the Eq. 5 central difference, and the Eq. 6 rule at the
    /// boundary. [`SmoothingKernel::Box`] is the paper's moving average;
    /// the journal extension's triangular and discrete-Gaussian kernels
    /// reweight the same window.
    DifferenceBased {
        /// Half window size `HWS` of the Eq. 4 smoothing window.
        hws: u32,
        /// Weight profile over the window.
        kernel: SmoothingKernel,
    },
    /// Journal extension: the gradient is the slope of the least-squares
    /// linear fit of the *raw* AppMult row over `[X - w, X + w]` (window
    /// regression instead of smoothing + central difference); Eq. 6 at the
    /// boundary. On exactly linear rows this equals the central
    /// difference. Window 1 is Fig. 3's raw central difference
    /// `(AM(X + 1) - AM(X - 1)) / 2`, which shows the zero gradients on
    /// staircase plateaus that motivate Eq. 4.
    LeastSquares {
        /// Regression half window `w >= 1`.
        window: u32,
    },
    /// Journal extension: Eq. 4 average weighted by profiled operand
    /// marginals (e.g. from `ErrorMetrics::with_marginals`-style
    /// histograms or [`crate::ApproxLinear::operand_histograms`]), so
    /// gradient mass concentrates on operand values the network actually
    /// produces. `wrt_x` tables weight the window by the activation
    /// marginal `x_probs`; `wrt_w` tables by the weight marginal
    /// `w_probs`. Uniform marginals reduce to
    /// [`GradientMode::DifferenceBased`].
    MarginalWeighted {
        /// Half window size of the weighted smoothing window.
        hws: u32,
        /// Weight-operand marginal, `2^B` entries summing to ~1.
        w_probs: Arc<Vec<f64>>,
        /// Activation-operand marginal, `2^B` entries summing to ~1.
        x_probs: Arc<Vec<f64>>,
    },
    /// ApproxTrain-style surrogate: each fixed-`W_f` row is replaced by
    /// its global least-squares linear fit, so the gradient w.r.t. `X` is
    /// a single per-row constant (the regression slope of the whole row).
    /// The roughest member of the family — it cannot see the staircase at
    /// all — but, unlike STE, it does track each row's average gain.
    Surrogate,
    /// User-supplied gradient tables in `(w << B) | x` layout.
    Custom {
        /// `dAM/dW` table, `2^(2B)` entries.
        wrt_w: Arc<Vec<f32>>,
        /// `dAM/dX` table, `2^(2B)` entries.
        wrt_x: Arc<Vec<f32>>,
    },
}

impl GradientMode {
    /// Convenience constructor for the paper's method (box smoothing).
    pub fn difference_based(hws: u32) -> Self {
        Self::difference_kernel(hws, SmoothingKernel::Box)
    }

    /// Convenience constructor for a kernel-smoothed difference estimator.
    pub fn difference_kernel(hws: u32, kernel: SmoothingKernel) -> Self {
        GradientMode::DifferenceBased { hws, kernel }
    }

    /// Convenience constructor for the window-regression estimator.
    pub fn least_squares(window: u32) -> Self {
        GradientMode::LeastSquares { window }
    }

    /// Convenience constructor for the marginal-weighted estimator.
    pub fn marginal_weighted(hws: u32, w_probs: Vec<f64>, x_probs: Vec<f64>) -> Self {
        GradientMode::MarginalWeighted {
            hws,
            w_probs: Arc::new(w_probs),
            x_probs: Arc::new(x_probs),
        }
    }

    /// Stable identifier usable as a JSON key: lowercase, no spaces,
    /// parentheses, or `=` (e.g. `ste`, `diff_h4`, `tri_h4`, `lsq_w3`,
    /// `marginal_h4`, `surrogate`). Every distinct parameterization has a
    /// distinct key; `grad_matrix` report cells are indexed by it.
    pub fn key(&self) -> String {
        match self {
            GradientMode::Ste => "ste".into(),
            GradientMode::DifferenceBased {
                hws,
                kernel: SmoothingKernel::Box,
            } => format!("diff_h{hws}"),
            GradientMode::DifferenceBased { hws, kernel } => format!("{}_h{hws}", kernel.key()),
            GradientMode::LeastSquares { window } => format!("lsq_w{window}"),
            GradientMode::MarginalWeighted { hws, .. } => format!("marginal_h{hws}"),
            GradientMode::Surrogate => "surrogate".into(),
            GradientMode::Custom { .. } => "custom".into(),
        }
    }
}

/// Precomputed `dAM/dW` and `dAM/dX` tables for one multiplier.
///
/// Entry `(w << B) | x` of each table holds the partial derivative at that
/// operand pair. Built once per (multiplier, gradient mode) and shared by
/// every approximate layer via `Arc`.
///
/// # Example
///
/// ```
/// use appmult_mult::{zoo, Multiplier};
/// use appmult_retrain::{GradientLut, GradientMode};
///
/// let lut = zoo::mul7u_rm6().to_lut();
/// let g = GradientLut::build(&lut, GradientMode::difference_based(4));
/// // The staircase has a big jump near X = 63 for W_f = 10 (Fig. 3):
/// assert!(g.wrt_x(10, 63) > g.wrt_x(10, 45));
///
/// // STE ignores the staircase entirely:
/// let ste = GradientLut::build(&lut, GradientMode::Ste);
/// assert_eq!(ste.wrt_x(10, 63), 10.0);
/// assert_eq!(ste.wrt_x(10, 45), 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct GradientLut {
    bits: u32,
    wrt_w: Arc<Vec<f32>>,
    wrt_x: Arc<Vec<f32>>,
    mode_label: String,
}

impl GradientLut {
    /// Builds the gradient tables for `lut` under `mode`, using the global
    /// thread pool (`APPMULT_THREADS`).
    ///
    /// # Panics
    ///
    /// Panics if [`GradientLut::try_build_for`] returns an error (a zero
    /// window, or wrong `Custom` or marginal table lengths).
    pub fn build(lut: &MultiplierLut, mode: GradientMode) -> Self {
        Self::build_with_pool(lut, mode, Pool::global())
    }

    /// Like [`GradientLut::build`] with an explicit worker pool.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GradientLut::build`].
    pub fn build_with_pool(lut: &MultiplierLut, mode: GradientMode, pool: Pool) -> Self {
        match Self::try_build_for(lut, mode, QuantScheme::Unsigned, pool) {
            Ok(g) => g,
            Err(e) => panic!("gradient tables rejected: {e}"),
        }
    }

    /// The full build entry point: explicit quantization scheme and worker
    /// pool. The scheme only affects the [`GradientMode::Ste`]
    /// accurate-gradient tables: signed offset-binary codes (see
    /// `SignMagnitudeMultiplier::to_offset_lut`) represent
    /// `value = code - 2^(B-1)`, so STE's `dAM/dX` is `W - 2^(B-1)`. The
    /// other estimators differentiate the stored table directly and are
    /// scheme-agnostic. Table rows (fixed `W_f` slices) are independent,
    /// so they are partitioned across the pool's workers; each entry is
    /// written by one worker, making the tables bit-identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`GradientLutError::ZeroWindow`] for a difference-family
    /// mode with a zero window, and [`GradientLutError::LengthMismatch`]
    /// for wrong-length `Custom` or [`GradientMode::MarginalWeighted`]
    /// tables.
    pub fn try_build_for(
        lut: &MultiplierLut,
        mode: GradientMode,
        scheme: QuantScheme,
        pool: Pool,
    ) -> Result<Self, GradientLutError> {
        let obs = appmult_obs::global();
        let _span = obs.span("gradient_lut.build");
        let build_start = obs.is_enabled().then(std::time::Instant::now);
        let bits = lut.bits();
        let n = 1usize << bits;
        let mode_label = mode.key();
        if let GradientMode::DifferenceBased { hws: 0, .. }
        | GradientMode::MarginalWeighted { hws: 0, .. }
        | GradientMode::LeastSquares { window: 0 } = mode
        {
            return Err(GradientLutError::ZeroWindow);
        }
        let (wrt_w, wrt_x) = match mode {
            GradientMode::Ste => {
                // Accurate-gradient surrogate: the derivative of the exact
                // product in *value* space. Unsigned codes are their own
                // values; signed offset codes carry value = code - 2^(B-1).
                let half = match scheme {
                    QuantScheme::Unsigned => 0i64,
                    QuantScheme::SignedOffset => (n / 2) as i64,
                };
                // Entry i is the pair (w, x) = (i / n, i % n).
                let gw = (0..n * n).map(|i| ((i % n) as i64 - half) as f32); // dAM/dW ~ X
                let gx = (0..n * n).map(|i| ((i / n) as i64 - half) as f32); // dAM/dX ~ W
                (Arc::new(gw.collect()), Arc::new(gx.collect()))
            }
            GradientMode::DifferenceBased { hws, kernel } => {
                let rule = |row: &[u32], out: &mut [f32]| {
                    difference_row(&smooth_row_kernel(row, hws, kernel), out);
                };
                row_tables(lut, pool, &rule, &rule)
            }
            GradientMode::LeastSquares { window } => {
                let rule = |row: &[u32], out: &mut [f32]| least_squares_row(row, window, out);
                row_tables(lut, pool, &rule, &rule)
            }
            GradientMode::MarginalWeighted {
                hws,
                w_probs,
                x_probs,
            } => {
                check_len("w_probs", w_probs.len(), n)?;
                check_len("x_probs", x_probs.len(), n)?;
                // wrt_w: windows slide over W (the transposed table's inner
                // axis), weighted by the weight marginal. wrt_x: windows
                // slide over X, weighted by the activation marginal.
                row_tables(
                    lut,
                    pool,
                    &|row, out| difference_row(&weighted_smooth_row(row, hws, &w_probs), out),
                    &|row, out| difference_row(&weighted_smooth_row(row, hws, &x_probs), out),
                )
            }
            GradientMode::Surrogate => row_tables(lut, pool, &surrogate_row, &surrogate_row),
            GradientMode::Custom { wrt_w, wrt_x } => {
                check_len("wrt_w", wrt_w.len(), n * n)?;
                check_len("wrt_x", wrt_x.len(), n * n)?;
                (wrt_w, wrt_x)
            }
        };
        obs.counter_add("gradient_lut.builds", 1);
        if let Some(start) = build_start {
            obs.observe("gradient_lut.build_us", start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(Self {
            bits,
            wrt_w,
            wrt_x,
            mode_label,
        })
    }

    /// Operand bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Key ([`GradientMode::key`]) of the gradient mode used to build the
    /// tables.
    pub fn mode_label(&self) -> &str {
        &self.mode_label
    }

    /// `dAM/dW` at `(w, x)`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `B` bits.
    #[inline]
    pub fn wrt_w(&self, w: u32, x: u32) -> f32 {
        let b = self.bits;
        assert!(
            w < (1 << b) && x < (1 << b),
            "operands must fit in {b} bits"
        );
        self.wrt_w[((w as usize) << b) | x as usize]
    }

    /// `dAM/dX` at `(w, x)`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `B` bits.
    #[inline]
    pub fn wrt_x(&self, w: u32, x: u32) -> f32 {
        let b = self.bits;
        assert!(
            w < (1 << b) && x < (1 << b),
            "operands must fit in {b} bits"
        );
        self.wrt_x[((w as usize) << b) | x as usize]
    }

    /// Raw `dAM/dW` table in `(w << B) | x` layout.
    pub fn wrt_w_table(&self) -> &Arc<Vec<f32>> {
        &self.wrt_w
    }

    /// Raw `dAM/dX` table in `(w << B) | x` layout.
    pub fn wrt_x_table(&self) -> &Arc<Vec<f32>> {
        &self.wrt_x
    }

    /// Statically validates the tables before they enter the training loop.
    ///
    /// A single NaN/Inf entry silently poisons every gradient that flows
    /// through the operand pair, so the approximate layers
    /// ([`crate::ApproxConv2d`], [`crate::ApproxLinear`]) call this hook at
    /// construction time; the `appmult-verify` crate runs the same check
    /// (plus Eq. 5/6 consistency) as part of the zoo lint.
    ///
    /// # Errors
    ///
    /// Returns [`GradientLutError::NonFinite`] locating the first NaN or
    /// infinite entry, or [`GradientLutError::LengthMismatch`] if a custom
    /// table does not have `2^(2B)` entries.
    pub fn validate(&self) -> Result<(), GradientLutError> {
        let expected = 1usize << (2 * self.bits);
        for (table, name) in [(&self.wrt_w, "wrt_w"), (&self.wrt_x, "wrt_x")] {
            check_len(name, table.len(), expected)?;
            if let Some(idx) = table.iter().position(|v| !v.is_finite()) {
                let w = (idx >> self.bits) as u32;
                let x = (idx as u32) & ((1 << self.bits) - 1);
                return Err(GradientLutError::NonFinite {
                    table: name,
                    w,
                    x,
                    value: table[idx],
                });
            }
        }
        Ok(())
    }
}

/// Error found by [`GradientLut::try_build_for`] or
/// [`GradientLut::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum GradientLutError {
    /// A difference-family mode has a zero half window (`hws`) or
    /// regression window, outside the Eq. 4 domain.
    ZeroWindow,
    /// A table entry is NaN or infinite.
    NonFinite {
        /// Which table (`"wrt_w"` or `"wrt_x"`).
        table: &'static str,
        /// First offending weight operand.
        w: u32,
        /// First offending activation operand.
        x: u32,
        /// The offending value.
        value: f32,
    },
    /// A table does not have `2^(2B)` entries.
    LengthMismatch {
        /// Which table (`"wrt_w"` or `"wrt_x"`).
        table: &'static str,
        /// Expected entry count.
        expected: usize,
        /// Actual entry count.
        got: usize,
    },
}

impl fmt::Display for GradientLutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GradientLutError::ZeroWindow => write!(f, "window half-width must be positive"),
            GradientLutError::NonFinite { table, w, x, value } => {
                write!(f, "{table}[w={w}, x={x}] is non-finite ({value})")
            }
            GradientLutError::LengthMismatch {
                table,
                expected,
                got,
            } => {
                write!(f, "{table} has {got} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for GradientLutError {}

/// [`GradientLutError::LengthMismatch`] unless `table` has `expected`
/// entries.
fn check_len(table: &'static str, got: usize, expected: usize) -> Result<(), GradientLutError> {
    if got == expected {
        return Ok(());
    }
    Err(GradientLutError::LengthMismatch {
        table,
        expected,
        got,
    })
}

/// Minimum table size (elements) below which gradient-table builds run
/// serially: a `2^B x 2^B` table under this bound (4-bit, 6-bit) is a few
/// microseconds of O(1)-per-element work, cheaper than waking workers.
/// Above it (8-bit: 65536 elements) the parallel build wins.
const TABLE_PAR_FLOOR_ELEMS: usize = 1 << 14;

/// A per-row estimator: overwrites the entries of `out` (pre-filled with
/// the row's Eq. 6 slope) that it defines for the stored row `row`.
type RowRule<'a> = dyn Fn(&[u32], &mut [f32]) + Sync + 'a;

/// Runs `rule_x` over every row of `lut` for `dAM/dX`, and `rule_w` over
/// every row of the transposed LUT for `dAM/dW`, returning both tables in
/// `(w << B) | x` layout.
fn row_tables(
    lut: &MultiplierLut,
    pool: Pool,
    rule_w: &RowRule<'_>,
    rule_x: &RowRule<'_>,
) -> (Arc<Vec<f32>>, Arc<Vec<f32>>) {
    let n = 1usize << lut.bits();
    let pool = pool.with_min_elems(TABLE_PAR_FLOOR_ELEMS);
    let by_rows = |lut: &MultiplierLut, rule: &RowRule<'_>| {
        let mut out = vec![0.0f32; n * n];
        pool.run_rows(&mut out, n, |r0, chunk| {
            for (r, out_row) in chunk.chunks_mut(n).enumerate() {
                let row = lut.row((r0 + r) as u32);
                let (lo, hi) = row_min_max(row);
                // Eq. 6: average change per unit operand over the full range.
                out_row.fill(((f64::from(hi) - f64::from(lo)) / n as f64) as f32);
                rule(row, out_row);
            }
        });
        out
    };
    let wrt_x = by_rows(lut, rule_x);
    // Row `x` of the transposed build holds dAM/dW at (w, x) in column w.
    let by_x = by_rows(&lut.transposed(), rule_w);
    let wrt_w = (0..n * n).map(|i| by_x[(i % n) * n + i / n]).collect();
    (Arc::new(wrt_w), Arc::new(wrt_x))
}

/// Eq. 5: the central difference of a smoothed row wherever both
/// neighbours lie in the smoothing domain (`HWS < X < 2^B - 1 - HWS`).
fn difference_row(smoothed: &[Option<f64>], out: &mut [f32]) {
    for (x, window) in smoothed.windows(3).enumerate() {
        if let [Some(sm), _, Some(sp)] = *window {
            out[x + 1] = ((sp - sm) / 2.0) as f32;
        }
    }
}

/// Journal extension: the gradient at `X` is the slope of the
/// least-squares linear fit of the raw row over `[X - w, X + w]`
/// (`slope = sum(d * y[x+d]) / sum(d^2)`, `d = -w..=w`), where the window
/// fits. On an exactly linear row this reduces to the central difference
/// (the antisymmetric weights cancel the intercept).
fn least_squares_row(row: &[u32], window: u32, out: &mut [f32]) {
    let (n, w) = (row.len(), window as usize);
    if 2 * w + 1 > n {
        return; // the window fits nowhere: Eq. 6 everywhere
    }
    // sum over d = -w..=w of d^2.
    let denom: f64 = (1..=w).map(|d| 2.0 * (d * d) as f64).sum();
    for x in w..n - w {
        let mut num = 0.0f64;
        for d in 1..=w {
            num += d as f64 * (f64::from(row[x + d]) - f64::from(row[x - d]));
        }
        out[x] = (num / denom) as f32;
    }
}

/// ApproxTrain-style surrogate: the row is replaced by its global
/// least-squares linear fit, so the whole row shares one gradient value
/// (the fit's slope). Sums run in index order, so the value is
/// independent of the thread count.
fn surrogate_row(row: &[u32], out: &mut [f32]) {
    let mean = (row.len() as f64 - 1.0) / 2.0;
    let denom: f64 = (0..row.len())
        .map(|x| (x as f64 - mean) * (x as f64 - mean))
        .sum();
    let mut num = 0.0f64;
    for (x, &v) in row.iter().enumerate() {
        num += (x as f64 - mean) * f64::from(v);
    }
    out.fill((num / denom) as f32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_mult::{ExactMultiplier, Multiplier, TruncatedMultiplier};

    #[test]
    fn ste_tables_are_the_accurate_gradient() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let g = GradientLut::build(&lut, GradientMode::Ste);
        for w in 0..64 {
            for x in 0..64 {
                assert_eq!(g.wrt_w(w, x), x as f32);
                assert_eq!(g.wrt_x(w, x), w as f32);
            }
        }
    }

    #[test]
    fn exact_multiplier_difference_gradient_tracks_ste() {
        // For the exact multiplier, AM(W, X) = W X, so the smoothed central
        // difference is exactly W in the interior.
        let lut = ExactMultiplier::new(7).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(4));
        for w in [0u32, 5, 10, 100, 127] {
            for x in [6u32, 20, 64, 100, 122] {
                // interior: x > 4 and x < 122... keep x <= 122 for hws=4
                let expect = w as f32;
                assert!(
                    (g.wrt_x(w, x) - expect).abs() < 1e-3,
                    "w={w} x={x}: {} vs {expect}",
                    g.wrt_x(w, x)
                );
            }
        }
    }

    #[test]
    fn boundary_uses_eq6_average_slope() {
        let lut = ExactMultiplier::new(6).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(4));
        // For W = 9 the row spans 0 ..= 9 * 63; Eq. 6 gives 9*63/64.
        let expect = (9.0 * 63.0) / 64.0;
        for x in [0u32, 2, 4, 59, 60, 63] {
            assert!(
                (g.wrt_x(9, x) - expect).abs() < 1e-4,
                "x={x}: {} vs {expect}",
                g.wrt_x(9, x)
            );
        }
        // With HWS = 4, Eq. 5's domain is X > HWS, so X = 4 is the last
        // boundary operand and X = 5 is already interior: it takes the
        // smoothed central difference (exactly W = 9 for the exact
        // multiplier), not the Eq. 6 average slope.
        assert!((g.wrt_x(9, 4) - expect).abs() < 1e-4);
        assert!(
            (g.wrt_x(9, 5) - expect).abs() > 1e-2,
            "X = 5 must not use the Eq. 6 boundary value, got {}",
            g.wrt_x(9, 5)
        );
        assert!((g.wrt_x(9, 5) - 9.0).abs() < 1e-3);
    }

    #[test]
    fn fig3_peaks_at_staircase_jumps() {
        // Fig. 3(b): for mul7u_rm6 and W_f = 10, the difference-based
        // gradient has large values around X = 31, 63, 95 and small values
        // on the plateaus; STE is constant 10.
        let lut = TruncatedMultiplier::new(7, 6).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(4));
        let peak = |x: u32| g.wrt_x(10, x);
        // For W_f = 10 the function AM(10, X) = 64 x3 + 128 x4 + 320 x5 +
        // 640 x6 (bits of X), so the big +128 jumps sit at X = 31 -> 32,
        // 63 -> 64, 95 -> 96 on top of +64 steps every 8.
        for jump in [31u32, 63, 95] {
            let near: f32 = (jump - 1..=jump + 1).map(peak).fold(0.0, f32::max);
            let plateau = peak(jump - 12).abs().max(peak(jump + 12).abs());
            assert!(
                near > 1.15 * plateau.max(1.0),
                "jump {jump}: near {near} vs plateau {plateau}"
            );
        }
        // And the peaks clearly exceed the Eq. 6 average slope (960 / 128).
        let avg = 960.0 / 128.0;
        for jump in [31u32, 63, 95] {
            let near: f32 = (jump - 1..=jump + 1).map(peak).fold(0.0, f32::max);
            assert!(near > 1.5 * avg, "jump {jump}: near {near} vs avg {avg}");
        }
    }

    #[test]
    fn row_zero_of_truncated_multiplier_has_zero_gradient() {
        // AM(0, X) = 0 for all X, so both Eq. 5 and Eq. 6 give 0.
        let lut = TruncatedMultiplier::new(7, 6).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(2));
        for x in 0..128 {
            assert_eq!(g.wrt_x(0, x), 0.0);
        }
    }

    #[test]
    fn oversized_hws_falls_back_to_eq6_everywhere() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(32));
        let row = lut.row(20);
        let (lo, hi) = (
            row.iter().min().copied().expect("nonempty"),
            row.iter().max().copied().expect("nonempty"),
        );
        let expect = (hi - lo) as f32 / 64.0;
        for x in 0..64 {
            assert!((g.wrt_x(20, x) - expect).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn oversized_regression_window_falls_back_to_eq6_everywhere() {
        // The window fits nowhere, so no regression sum is attempted.
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let g = GradientLut::build(&lut, GradientMode::least_squares(u32::MAX));
        let paper = GradientLut::build(&lut, GradientMode::difference_based(32));
        assert_eq!(g.wrt_x_table(), paper.wrt_x_table());
        assert_eq!(g.wrt_w_table(), paper.wrt_w_table());
    }

    #[test]
    fn raw_difference_has_zero_plateaus() {
        // The raw central difference (window-1 regression) shows the pathology Eq. 4 fixes: zero gradient
        // on staircase plateaus.
        let lut = TruncatedMultiplier::new(7, 6).to_lut();
        let g = GradientLut::build(&lut, GradientMode::least_squares(1));
        let zeros = (1..127).filter(|&x| g.wrt_x(10, x) == 0.0).count();
        assert!(
            zeros > 40,
            "expected many zero-gradient plateaus, got {zeros}"
        );

        // And the smoothed version has far fewer.
        let gs = GradientLut::build(&lut, GradientMode::difference_based(4));
        let smooth_zeros = (5..122).filter(|&x| gs.wrt_x(10, x) == 0.0).count();
        assert!(smooth_zeros < zeros / 4, "{smooth_zeros} vs {zeros}");
    }

    #[test]
    fn wrt_w_is_wrt_x_of_the_transpose() {
        let lut = TruncatedMultiplier::new(6, 3).to_lut();
        let g = GradientLut::build(&lut, GradientMode::difference_based(2));
        let gt = GradientLut::build(&lut.transposed(), GradientMode::difference_based(2));
        for w in 0..64 {
            for x in 0..64 {
                assert_eq!(g.wrt_w(w, x), gt.wrt_x(x, w), "w={w} x={x}");
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // 64 rows across worker counts that do not divide it evenly.
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let modes = [
            GradientMode::difference_based(3),
            GradientMode::least_squares(1),
            GradientMode::Ste,
        ];
        for mode in modes {
            let serial = GradientLut::build_with_pool(&lut, mode.clone(), Pool::serial());
            for threads in [2usize, 3, 5, 7, 64, 100] {
                let par = GradientLut::build_with_pool(&lut, mode.clone(), Pool::new(threads));
                let bits_of = |t: &[f32]| -> Vec<u32> { t.iter().map(|v| v.to_bits()).collect() };
                assert_eq!(
                    bits_of(serial.wrt_w_table()),
                    bits_of(par.wrt_w_table()),
                    "wrt_w {} threads={threads}",
                    mode.key()
                );
                assert_eq!(
                    bits_of(serial.wrt_x_table()),
                    bits_of(par.wrt_x_table()),
                    "wrt_x {} threads={threads}",
                    mode.key()
                );
            }
        }
    }

    #[test]
    fn validate_accepts_every_builtin_mode() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        for mode in [
            GradientMode::Ste,
            GradientMode::difference_based(4),
            GradientMode::least_squares(1),
        ] {
            let g = GradientLut::build(&lut, mode);
            assert_eq!(g.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_locates_non_finite_entries() {
        let lut = ExactMultiplier::new(4).to_lut();
        let mut bad = vec![1.0f32; 256];
        bad[(3 << 4) | 7] = f32::NAN;
        let g = GradientLut::build(
            &lut,
            GradientMode::Custom {
                wrt_w: Arc::new(vec![1.0; 256]),
                wrt_x: Arc::new(bad),
            },
        );
        match g.validate() {
            Err(GradientLutError::NonFinite { table, w, x, .. }) => {
                assert_eq!(table, "wrt_x");
                assert_eq!((w, x), (3, 7));
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn custom_tables_pass_through() {
        let lut = ExactMultiplier::new(4).to_lut();
        let table = Arc::new(vec![2.5f32; 256]);
        let g = GradientLut::build(
            &lut,
            GradientMode::Custom {
                wrt_w: table.clone(),
                wrt_x: table,
            },
        );
        assert_eq!(g.wrt_w(3, 9), 2.5);
        assert_eq!(g.wrt_x(15, 0), 2.5);
        assert_eq!(g.mode_label(), "custom");
    }

    #[test]
    fn custom_tables_report_typed_length_errors() {
        let lut = ExactMultiplier::new(4).to_lut();
        let bad = Arc::new(vec![0.0f32; 10]);
        let err = GradientLut::try_build_for(
            &lut,
            GradientMode::Custom {
                wrt_w: bad.clone(),
                wrt_x: bad,
            },
            QuantScheme::Unsigned,
            Pool::global(),
        )
        .expect_err("short tables must be rejected");
        assert_eq!(
            err,
            GradientLutError::LengthMismatch {
                table: "wrt_w",
                expected: 256,
                got: 10,
            }
        );
        assert_eq!(err.to_string(), "wrt_w has 10 entries, expected 256");
    }

    #[test]
    #[should_panic(expected = "gradient tables rejected")]
    fn custom_tables_validate_length() {
        let lut = ExactMultiplier::new(4).to_lut();
        let bad = Arc::new(vec![0.0f32; 10]);
        GradientLut::build(
            &lut,
            GradientMode::Custom {
                wrt_w: bad.clone(),
                wrt_x: bad,
            },
        );
    }

    #[test]
    fn marginal_tables_report_typed_length_errors() {
        let lut = ExactMultiplier::new(4).to_lut();
        let err = GradientLut::try_build_for(
            &lut,
            GradientMode::marginal_weighted(2, vec![1.0 / 16.0; 16], vec![1.0 / 8.0; 8]),
            QuantScheme::Unsigned,
            Pool::global(),
        )
        .expect_err("short x_probs must be rejected");
        assert_eq!(
            err,
            GradientLutError::LengthMismatch {
                table: "x_probs",
                expected: 16,
                got: 8,
            }
        );
    }

    #[test]
    fn zero_windows_are_typed_errors() {
        let lut = ExactMultiplier::new(4).to_lut();
        let uniform = vec![1.0 / 16.0; 16];
        for mode in [
            GradientMode::difference_based(0),
            GradientMode::difference_kernel(0, SmoothingKernel::Gaussian),
            GradientMode::least_squares(0),
            GradientMode::marginal_weighted(0, uniform.clone(), uniform),
        ] {
            let err = GradientLut::try_build_for(&lut, mode, QuantScheme::Unsigned, Pool::global())
                .expect_err("a zero window must be rejected");
            assert_eq!(err, GradientLutError::ZeroWindow);
        }
    }

    #[test]
    fn kernel_estimators_track_ste_on_the_exact_multiplier() {
        // AM(W, X) = W X is linear in each operand, so every smoothing
        // kernel and the window regression must recover exactly W in the
        // interior.
        let lut = ExactMultiplier::new(6).to_lut();
        for mode in [
            GradientMode::difference_kernel(3, SmoothingKernel::Triangular),
            GradientMode::difference_kernel(3, SmoothingKernel::Gaussian),
            GradientMode::least_squares(3),
        ] {
            let g = GradientLut::build(&lut, mode.clone());
            for w in [0u32, 7, 33, 63] {
                for x in [8u32, 20, 40, 55] {
                    assert!(
                        (g.wrt_x(w, x) - w as f32).abs() < 1e-3,
                        "{}: w={w} x={x}: {}",
                        mode.key(),
                        g.wrt_x(w, x)
                    );
                }
            }
        }
    }

    #[test]
    fn least_squares_window_one_is_the_raw_central_difference() {
        // Fig. 3's raw central difference (AM(X + 1) - AM(X - 1)) / 2, with
        // Eq. 6 at X = 0 and X = 2^B - 1, for both operands.
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let lsq = GradientLut::build(&lut, GradientMode::least_squares(1));
        let expected = |row: &[u32], i: usize| -> f32 {
            if i == 0 || i == 63 {
                let (lo, hi) = row_min_max(row);
                ((f64::from(hi) - f64::from(lo)) / 64.0) as f32
            } else {
                (f64::from(row[i + 1]) - f64::from(row[i - 1])) as f32 / 2.0
            }
        };
        let t = lut.transposed();
        for w in 0..64u32 {
            for x in 0..64u32 {
                let want_x = expected(lut.row(w), x as usize);
                let want_w = expected(t.row(x), w as usize);
                assert_eq!(
                    lsq.wrt_x(w, x).to_bits(),
                    want_x.to_bits(),
                    "x: w={w} x={x}"
                );
                assert_eq!(
                    lsq.wrt_w(w, x).to_bits(),
                    want_w.to_bits(),
                    "w: w={w} x={x}"
                );
            }
        }
    }

    #[test]
    fn surrogate_rows_are_constant_and_exact_on_the_exact_multiplier() {
        let lut = ExactMultiplier::new(6).to_lut();
        let g = GradientLut::build(&lut, GradientMode::Surrogate);
        for w in 0..64u32 {
            // Row w is exactly linear with slope w: the global fit is exact
            // and shared by every X.
            for x in 0..64u32 {
                assert!(
                    (g.wrt_x(w, x) - w as f32).abs() < 1e-3,
                    "w={w} x={x}: {}",
                    g.wrt_x(w, x)
                );
            }
        }
    }

    #[test]
    fn uniform_marginals_match_difference_based() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let uniform = vec![1.0 / 64.0; 64];
        let g = GradientLut::build(
            &lut,
            GradientMode::marginal_weighted(4, uniform.clone(), uniform),
        );
        let paper = GradientLut::build(&lut, GradientMode::difference_based(4));
        for w in 0..64u32 {
            for x in 0..64u32 {
                assert!(
                    (g.wrt_x(w, x) - paper.wrt_x(w, x)).abs() < 1e-3,
                    "wrt_x w={w} x={x}"
                );
                assert!(
                    (g.wrt_w(w, x) - paper.wrt_w(w, x)).abs() < 1e-3,
                    "wrt_w w={w} x={x}"
                );
            }
        }
    }

    #[test]
    fn signed_ste_tables_subtract_the_offset() {
        use appmult_mult::SignMagnitudeMultiplier;
        let signed = SignMagnitudeMultiplier::new(ExactMultiplier::new(6));
        let lut = signed.to_offset_lut();
        let g = GradientLut::try_build_for(
            &lut,
            GradientMode::Ste,
            QuantScheme::SignedOffset,
            Pool::global(),
        )
        .expect("STE tables build");
        for w in 0..64u32 {
            for x in 0..64u32 {
                assert_eq!(g.wrt_x(w, x), w as f32 - 32.0, "w={w} x={x}");
                assert_eq!(g.wrt_w(w, x), x as f32 - 32.0, "w={w} x={x}");
            }
        }
    }

    #[test]
    fn signed_difference_tables_track_the_signed_value() {
        // Offset rows store (w - 32)(x - 32) + 2048: linear in X with slope
        // (w - 32), which the difference estimator recovers unchanged —
        // the additive offset cancels in every difference.
        use appmult_mult::SignMagnitudeMultiplier;
        let signed = SignMagnitudeMultiplier::new(ExactMultiplier::new(6));
        let lut = signed.to_offset_lut();
        let g = GradientLut::try_build_for(
            &lut,
            GradientMode::difference_based(4),
            QuantScheme::SignedOffset,
            Pool::global(),
        )
        .expect("difference tables build");
        for w in [0u32, 10, 32, 50, 63] {
            for x in [8u32, 20, 40, 55] {
                let expect = w as f32 - 32.0;
                assert!(
                    (g.wrt_x(w, x) - expect).abs() < 1e-3,
                    "w={w} x={x}: {} vs {expect}",
                    g.wrt_x(w, x)
                );
            }
        }
    }

    #[test]
    fn new_modes_parallel_build_is_bit_identical_to_serial() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let marg: Vec<f64> = (0..64).map(|i| (i + 1) as f64 / 2080.0).collect();
        let modes = [
            GradientMode::difference_kernel(3, SmoothingKernel::Triangular),
            GradientMode::difference_kernel(3, SmoothingKernel::Gaussian),
            GradientMode::least_squares(2),
            GradientMode::marginal_weighted(3, marg.clone(), marg),
            GradientMode::Surrogate,
        ];
        for mode in modes {
            let serial = GradientLut::build_with_pool(&lut, mode.clone(), Pool::serial());
            for threads in [3usize, 7, 64] {
                let par = GradientLut::build_with_pool(&lut, mode.clone(), Pool::new(threads));
                let bits_of = |t: &[f32]| -> Vec<u32> { t.iter().map(|v| v.to_bits()).collect() };
                assert_eq!(
                    bits_of(serial.wrt_w_table()),
                    bits_of(par.wrt_w_table()),
                    "wrt_w {} threads={threads}",
                    mode.key()
                );
                assert_eq!(
                    bits_of(serial.wrt_x_table()),
                    bits_of(par.wrt_x_table()),
                    "wrt_x {} threads={threads}",
                    mode.key()
                );
            }
        }
    }

    #[test]
    fn keys_are_stable_json_safe_identifiers() {
        let uniform = vec![1.0 / 64.0; 64];
        let cases = [
            (GradientMode::Ste, "ste"),
            (GradientMode::difference_based(4), "diff_h4"),
            (
                GradientMode::difference_kernel(4, SmoothingKernel::Triangular),
                "tri_h4",
            ),
            (
                GradientMode::difference_kernel(4, SmoothingKernel::Gaussian),
                "gauss_h4",
            ),
            (GradientMode::least_squares(3), "lsq_w3"),
            (
                GradientMode::marginal_weighted(4, uniform.clone(), uniform),
                "marginal_h4",
            ),
            (GradientMode::Surrogate, "surrogate"),
        ];
        for (mode, key) in cases {
            assert_eq!(mode.key(), key);
            assert!(
                key.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{key}"
            );
        }
    }

    #[test]
    fn validate_accepts_every_new_mode() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let uniform = vec![1.0 / 64.0; 64];
        for mode in [
            GradientMode::difference_kernel(3, SmoothingKernel::Triangular),
            GradientMode::difference_kernel(3, SmoothingKernel::Gaussian),
            GradientMode::least_squares(3),
            GradientMode::marginal_weighted(3, uniform.clone(), uniform),
            GradientMode::Surrogate,
        ] {
            let g = GradientLut::build(&lut, mode);
            assert_eq!(g.validate(), Ok(()));
        }
    }
}
