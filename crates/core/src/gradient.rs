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
//! parameterized smoothing kernels for Eq. 4
//! ([`GradientMode::DifferenceKernel`]), a least-squares local linear fit
//! ([`GradientMode::LeastSquares`]), an input-distribution-weighted
//! average ([`GradientMode::MarginalWeighted`]), and an ApproxTrain-style
//! per-row linear surrogate ([`GradientMode::Surrogate`]). Every variant
//! builds its tables through the same parallel row-partitioned path, so
//! the bit-identity-at-any-thread-count guarantee carries over unchanged.

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
    /// (`dAM/dW ~ X`, `dAM/dX ~ W`) — the baseline of refs. [8]-[13].
    Ste,
    /// The paper's smoothed difference-based gradient with the given half
    /// window size (Eqs. 4-6).
    DifferenceBased {
        /// Half window size `HWS` of the Eq. 4 moving average.
        hws: u32,
    },
    /// Ablation: central differences of the *raw* (unsmoothed) AppMult
    /// function, with the Eq. 6 rule only at `X = 0` and `X = 2^B - 1`.
    /// Exhibits the zero/spiky gradients that motivate Eq. 4.
    RawDifference,
    /// Ablation of the Eq. 6 boundary rule: identical to
    /// [`GradientMode::DifferenceBased`] in the interior, but boundary
    /// operands copy the nearest interior gradient instead of using the
    /// average slope.
    DifferenceEdgeClamped {
        /// Half window size `HWS` of the Eq. 4 moving average.
        hws: u32,
    },
    /// Journal extension: Eq. 4 smoothing with a parameterized window
    /// kernel (box, triangular, discrete Gaussian) followed by the Eq. 5
    /// central difference and the Eq. 6 boundary rule. With
    /// [`SmoothingKernel::Box`] this is bit-identical to
    /// [`GradientMode::DifferenceBased`].
    DifferenceKernel {
        /// Half window size of the smoothing window.
        hws: u32,
        /// Weight profile over the window.
        kernel: SmoothingKernel,
    },
    /// Journal extension: the gradient is the slope of the least-squares
    /// linear fit of the *raw* AppMult row over `[X - w, X + w]` (window
    /// regression instead of smoothing + central difference); Eq. 6 at the
    /// boundary. On exactly linear rows this equals the central
    /// difference.
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
    /// Convenience constructor for the paper's method.
    pub fn difference_based(hws: u32) -> Self {
        GradientMode::DifferenceBased { hws }
    }

    /// Convenience constructor for a kernel-smoothed difference estimator.
    pub fn difference_kernel(hws: u32, kernel: SmoothingKernel) -> Self {
        GradientMode::DifferenceKernel { hws, kernel }
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

    /// Short identifier used in experiment tables. For the journal-
    /// extension variants this equals [`GradientMode::key`], so the label
    /// is directly usable as a JSON key.
    pub fn label(&self) -> String {
        match self {
            GradientMode::Ste => "STE".into(),
            GradientMode::DifferenceBased { hws } => format!("diff(hws={hws})"),
            GradientMode::RawDifference => "raw-diff".into(),
            GradientMode::DifferenceEdgeClamped { hws } => format!("diff-clamp(hws={hws})"),
            GradientMode::DifferenceKernel { .. }
            | GradientMode::LeastSquares { .. }
            | GradientMode::MarginalWeighted { .. }
            | GradientMode::Surrogate
            | GradientMode::Custom { .. } => self.key(),
        }
    }

    /// Stable identifier usable as a JSON key: lowercase, no spaces,
    /// parentheses, or `=` (e.g. `ste`, `diff_h4`, `tri_h4`, `lsq_w3`,
    /// `marginal_h4`, `surrogate`). Every distinct parameterization has a
    /// distinct key; `grad_matrix` report cells are indexed by it.
    pub fn key(&self) -> String {
        match self {
            GradientMode::Ste => "ste".into(),
            GradientMode::DifferenceBased { hws } => format!("diff_h{hws}"),
            GradientMode::RawDifference => "raw_diff".into(),
            GradientMode::DifferenceEdgeClamped { hws } => format!("diff_clamp_h{hws}"),
            GradientMode::DifferenceKernel { hws, kernel } => {
                format!("{}_h{hws}", kernel.key())
            }
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
    /// Panics if a difference-family mode has a zero half window, or if
    /// [`GradientLut::try_build`] returns an error (wrong `Custom` or
    /// marginal table lengths).
    pub fn build(lut: &MultiplierLut, mode: GradientMode) -> Self {
        Self::build_with_pool(lut, mode, Pool::global())
    }

    /// Like [`GradientLut::build`] with an explicit worker pool. Table rows
    /// (fixed `W_f` slices) are independent, so they are partitioned across
    /// the workers; each entry is written exactly once, making the tables
    /// bit-identical for every thread count.
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

    /// Builds gradient tables for a signed offset-binary LUT (see
    /// `SignMagnitudeMultiplier::to_offset_lut`): codes represent
    /// `value = code - 2^(B-1)`, so the accurate-gradient (STE) tables are
    /// `dAM/dX = W - 2^(B-1)` instead of the raw code. The
    /// difference-family estimators differentiate the stored table
    /// directly and are scheme-agnostic.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GradientLut::build`].
    pub fn build_signed(lut: &MultiplierLut, mode: GradientMode) -> Self {
        match Self::try_build_for(lut, mode, QuantScheme::SignedOffset, Pool::global()) {
            Ok(g) => g,
            Err(e) => panic!("gradient tables rejected: {e}"),
        }
    }

    /// Fallible variant of [`GradientLut::build`]: returns a typed error
    /// instead of panicking when `Custom` or marginal tables have the
    /// wrong length.
    ///
    /// # Errors
    ///
    /// Returns [`GradientLutError::LengthMismatch`] naming the offending
    /// table.
    pub fn try_build(lut: &MultiplierLut, mode: GradientMode) -> Result<Self, GradientLutError> {
        Self::try_build_for(lut, mode, QuantScheme::Unsigned, Pool::global())
    }

    /// The full build entry point: explicit quantization scheme (which
    /// only affects the [`GradientMode::Ste`] accurate-gradient tables)
    /// and worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`GradientLutError::LengthMismatch`] for wrong-length
    /// `Custom` or [`GradientMode::MarginalWeighted`] tables.
    ///
    /// # Panics
    ///
    /// Panics if a difference-family mode has a zero half window (a
    /// programming error, unlike data-sized tables which report typed
    /// errors).
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
        let label = mode.label();
        let (wrt_w, wrt_x) = match mode {
            GradientMode::Ste => {
                // Accurate-gradient surrogate: the derivative of the exact
                // product in *value* space. Unsigned codes are their own
                // values; signed offset codes carry value = code - 2^(B-1).
                let half = match scheme {
                    QuantScheme::Unsigned => 0i64,
                    QuantScheme::SignedOffset => (n / 2) as i64,
                };
                let mut gw = vec![0.0f32; n * n];
                let mut gx = vec![0.0f32; n * n];
                for w in 0..n {
                    for x in 0..n {
                        gw[w * n + x] = (x as i64 - half) as f32; // dAM/dW ~ X
                        gx[w * n + x] = (w as i64 - half) as f32; // dAM/dX ~ W
                    }
                }
                (Arc::new(gw), Arc::new(gx))
            }
            GradientMode::DifferenceBased { hws } => {
                assert!(hws >= 1, "half window size must be positive");
                let s = Smoother::Kernel(SmoothingKernel::Box);
                let gx = difference_tables(lut, hws, BoundaryRule::AverageSlope, &s, pool);
                let gw =
                    difference_tables(&lut.transposed(), hws, BoundaryRule::AverageSlope, &s, pool);
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::RawDifference => {
                let gx = raw_difference_tables(lut, pool);
                let gw = raw_difference_tables(&lut.transposed(), pool);
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::DifferenceEdgeClamped { hws } => {
                assert!(hws >= 1, "half window size must be positive");
                let s = Smoother::Kernel(SmoothingKernel::Box);
                let gx = difference_tables(lut, hws, BoundaryRule::ClampToInterior, &s, pool);
                let gw = difference_tables(
                    &lut.transposed(),
                    hws,
                    BoundaryRule::ClampToInterior,
                    &s,
                    pool,
                );
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::DifferenceKernel { hws, kernel } => {
                assert!(hws >= 1, "half window size must be positive");
                let s = Smoother::Kernel(kernel);
                let gx = difference_tables(lut, hws, BoundaryRule::AverageSlope, &s, pool);
                let gw =
                    difference_tables(&lut.transposed(), hws, BoundaryRule::AverageSlope, &s, pool);
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::LeastSquares { window } => {
                assert!(window >= 1, "regression window must be positive");
                let gx = least_squares_tables(lut, window, pool);
                let gw = least_squares_tables(&lut.transposed(), window, pool);
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::MarginalWeighted {
                hws,
                w_probs,
                x_probs,
            } => {
                assert!(hws >= 1, "half window size must be positive");
                for (probs, name) in [(&w_probs, "w_probs"), (&x_probs, "x_probs")] {
                    if probs.len() != n {
                        return Err(GradientLutError::LengthMismatch {
                            table: name,
                            expected: n,
                            got: probs.len(),
                        });
                    }
                }
                // wrt_x: windows slide over X, weighted by the activation
                // marginal. wrt_w: windows slide over W (the transposed
                // table's inner axis), weighted by the weight marginal.
                let sx = Smoother::Weighted(&x_probs);
                let gx = difference_tables(lut, hws, BoundaryRule::AverageSlope, &sx, pool);
                let sw = Smoother::Weighted(&w_probs);
                let gw = difference_tables(
                    &lut.transposed(),
                    hws,
                    BoundaryRule::AverageSlope,
                    &sw,
                    pool,
                );
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::Surrogate => {
                let gx = surrogate_tables(lut, pool);
                let gw = surrogate_tables(&lut.transposed(), pool);
                (Arc::new(transpose_table(n, &gw)), Arc::new(gx))
            }
            GradientMode::Custom { wrt_w, wrt_x } => {
                for (table, name) in [(&wrt_w, "wrt_w"), (&wrt_x, "wrt_x")] {
                    if table.len() != n * n {
                        return Err(GradientLutError::LengthMismatch {
                            table: name,
                            expected: n * n,
                            got: table.len(),
                        });
                    }
                }
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
            mode_label: label,
        })
    }

    /// Operand bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Label of the gradient mode used to build the tables.
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
            if table.len() != expected {
                return Err(GradientLutError::LengthMismatch {
                    table: name,
                    expected,
                    got: table.len(),
                });
            }
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

/// Error found by [`GradientLut::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum GradientLutError {
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

/// How boundary operands (outside the Eq. 5 domain) are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundaryRule {
    /// Eq. 6: `(max AM - min AM) / 2^B`, the paper's rule.
    AverageSlope,
    /// Ablation: copy the nearest interior Eq. 5 value.
    ClampToInterior,
}

/// Transposes an `n x n` gradient table from `(x << B) | w` layout back
/// into the canonical `(w << B) | x` layout.
fn transpose_table(n: usize, t: &[f32]) -> Vec<f32> {
    assert_eq!(t.len(), n * n, "table must be n x n");
    let mut out = vec![0.0f32; n * n];
    for x in 0..n {
        for w in 0..n {
            out[w * n + x] = t[x * n + w];
        }
    }
    out
}

/// Minimum table size (elements) below which gradient-table builds run
/// serially: a `2^B x 2^B` table under this bound (4-bit, 6-bit) is a few
/// microseconds of O(1)-per-element work, cheaper than waking workers.
/// Above it (8-bit: 65536 elements) the parallel build wins.
const TABLE_PAR_FLOOR_ELEMS: usize = 1 << 14;

/// How an Eq. 4 window average weights its members: a fixed kernel shape
/// or profiled operand-marginal probabilities. `Kernel(Box)` reproduces
/// the paper's plain moving average bit-for-bit.
enum Smoother<'a> {
    /// Fixed window kernel (box / triangular / discrete Gaussian).
    Kernel(SmoothingKernel),
    /// Operand-marginal weights over the row's axis (`2^B` entries).
    Weighted(&'a [f64]),
}

impl Smoother<'_> {
    fn smooth(&self, row: &[u32], hws: u32) -> Vec<Option<f64>> {
        match self {
            Smoother::Kernel(k) => smooth_row_kernel(row, hws, *k),
            Smoother::Weighted(probs) => weighted_smooth_row(row, hws, probs),
        }
    }
}

/// Eq. 5 + boundary rule over every row of `lut` (gradient w.r.t. the
/// second operand of the given table). Rows (weight values `w`) are
/// independent and partitioned across the pool's workers.
fn difference_tables(
    lut: &MultiplierLut,
    hws: u32,
    rule: BoundaryRule,
    smoother: &Smoother<'_>,
    pool: Pool,
) -> Vec<f32> {
    let bits = lut.bits();
    let n = 1usize << bits;
    let h = hws as usize;
    let mut out = vec![0.0f32; n * n];
    let pool = pool.with_min_elems(TABLE_PAR_FLOOR_ELEMS);
    pool.run_rows(&mut out, n, |w0, chunk| {
        for (r, out_row) in chunk.chunks_mut(n).enumerate() {
            let w = (w0 + r) as u32;
            let row = lut.row(w);
            let smoothed = smoother.smooth(row, hws);
            let (lo, hi) = row_min_max(row);
            // Eq. 6: average change per unit X over the full operand range.
            let boundary = ((f64::from(hi) - f64::from(lo)) / n as f64) as f32;
            let mut first_interior = None;
            let mut last_interior = None;
            for x in 0..n {
                let interior = x > h && x + h + 1 < n; // HWS < X < 2^B - 1 - HWS
                if interior {
                    let sp = smoothed[x + 1].expect("x + 1 in smoothing domain");
                    let sm = smoothed[x - 1].expect("x - 1 in smoothing domain");
                    out_row[x] = ((sp - sm) / 2.0) as f32;
                    first_interior.get_or_insert(x);
                    last_interior = Some(x);
                } else {
                    out_row[x] = boundary;
                }
            }
            if rule == BoundaryRule::ClampToInterior {
                if let (Some(first), Some(last)) = (first_interior, last_interior) {
                    let (head, tail) = (out_row[first], out_row[last]);
                    for v in &mut out_row[..first] {
                        *v = head;
                    }
                    for v in &mut out_row[last + 1..n] {
                        *v = tail;
                    }
                }
            }
        }
    });
    out
}

/// Ablation: central difference of the raw AppMult row, Eq. 6 at the ends.
fn raw_difference_tables(lut: &MultiplierLut, pool: Pool) -> Vec<f32> {
    let bits = lut.bits();
    let n = 1usize << bits;
    let mut out = vec![0.0f32; n * n];
    let pool = pool.with_min_elems(TABLE_PAR_FLOOR_ELEMS);
    pool.run_rows(&mut out, n, |w0, chunk| {
        for (r, out_row) in chunk.chunks_mut(n).enumerate() {
            let w = (w0 + r) as u32;
            let row = lut.row(w);
            let (lo, hi) = row_min_max(row);
            let boundary = ((f64::from(hi) - f64::from(lo)) / n as f64) as f32;
            for x in 0..n {
                out_row[x] = if x > 0 && x + 1 < n {
                    (f64::from(row[x + 1]) - f64::from(row[x - 1])) as f32 / 2.0
                } else {
                    boundary
                };
            }
        }
    });
    out
}

/// Journal extension: the gradient at `X` is the slope of the
/// least-squares linear fit of the raw row over `[X - w, X + w]`
/// (`slope = sum(d * y[x+d]) / sum(d^2)`, `d = -w..=w`); Eq. 6 where the
/// window does not fit. On an exactly linear row this reduces to the
/// central difference (the antisymmetric weights cancel the intercept).
fn least_squares_tables(lut: &MultiplierLut, window: u32, pool: Pool) -> Vec<f32> {
    let bits = lut.bits();
    let n = 1usize << bits;
    let w_us = window as usize;
    // sum over d = -w..=w of d^2.
    let denom: f64 = (1..=i64::from(window)).map(|d| 2.0 * (d * d) as f64).sum();
    let mut out = vec![0.0f32; n * n];
    let pool = pool.with_min_elems(TABLE_PAR_FLOOR_ELEMS);
    pool.run_rows(&mut out, n, |w0, chunk| {
        for (r, out_row) in chunk.chunks_mut(n).enumerate() {
            let w = (w0 + r) as u32;
            let row = lut.row(w);
            let (lo, hi) = row_min_max(row);
            let boundary = ((f64::from(hi) - f64::from(lo)) / n as f64) as f32;
            for x in 0..n {
                out_row[x] = if x >= w_us && x + w_us < n {
                    let mut num = 0.0f64;
                    for d in 1..=w_us {
                        num += d as f64 * (f64::from(row[x + d]) - f64::from(row[x - d]));
                    }
                    (num / denom) as f32
                } else {
                    boundary
                };
            }
        }
    });
    out
}

/// ApproxTrain-style surrogate: each row is replaced by its global
/// least-squares linear fit, so the whole row shares one gradient value
/// (the fit's slope). Row sums run in index order, so the tables stay
/// bit-identical at every thread count.
fn surrogate_tables(lut: &MultiplierLut, pool: Pool) -> Vec<f32> {
    let bits = lut.bits();
    let n = 1usize << bits;
    let mean = (n as f64 - 1.0) / 2.0;
    let denom: f64 = (0..n).map(|x| (x as f64 - mean) * (x as f64 - mean)).sum();
    let mut out = vec![0.0f32; n * n];
    let pool = pool.with_min_elems(TABLE_PAR_FLOOR_ELEMS);
    pool.run_rows(&mut out, n, |w0, chunk| {
        for (r, out_row) in chunk.chunks_mut(n).enumerate() {
            let w = (w0 + r) as u32;
            let row = lut.row(w);
            let mut num = 0.0f64;
            for (x, &v) in row.iter().enumerate() {
                num += (x as f64 - mean) * f64::from(v);
            }
            let slope = (num / denom) as f32;
            out_row.fill(slope);
        }
    });
    out
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
    fn raw_difference_has_zero_plateaus() {
        // The ablation mode shows the pathology Eq. 4 fixes: zero gradient
        // on staircase plateaus.
        let lut = TruncatedMultiplier::new(7, 6).to_lut();
        let g = GradientLut::build(&lut, GradientMode::RawDifference);
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
    fn edge_clamped_matches_paper_rule_in_the_interior() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let paper = GradientLut::build(&lut, GradientMode::difference_based(4));
        let clamp = GradientLut::build(&lut, GradientMode::DifferenceEdgeClamped { hws: 4 });
        for w in 0..64u32 {
            for x in 0..64u32 {
                let interior = x > 4 && x < 59;
                if interior {
                    assert_eq!(paper.wrt_x(w, x), clamp.wrt_x(w, x), "w={w} x={x}");
                }
            }
        }
        // At the boundary the ablation copies the nearest interior value.
        assert_eq!(clamp.wrt_x(20, 0), clamp.wrt_x(20, 5));
        assert_eq!(clamp.wrt_x(20, 63), clamp.wrt_x(20, 58));
        assert_eq!(clamp.mode_label(), "diff-clamp(hws=4)");
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // 64 rows across worker counts that do not divide it evenly.
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let modes = [
            GradientMode::difference_based(3),
            GradientMode::RawDifference,
            GradientMode::DifferenceEdgeClamped { hws: 2 },
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
                    mode.label()
                );
                assert_eq!(
                    bits_of(serial.wrt_x_table()),
                    bits_of(par.wrt_x_table()),
                    "wrt_x {} threads={threads}",
                    mode.label()
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
            GradientMode::RawDifference,
            GradientMode::DifferenceEdgeClamped { hws: 2 },
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
        let err = GradientLut::try_build(
            &lut,
            GradientMode::Custom {
                wrt_w: bad.clone(),
                wrt_x: bad,
            },
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
        let err = GradientLut::try_build(
            &lut,
            GradientMode::marginal_weighted(2, vec![1.0 / 16.0; 16], vec![1.0 / 8.0; 8]),
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
    fn box_kernel_variant_is_bit_identical_to_difference_based() {
        let lut = TruncatedMultiplier::new(7, 6).to_lut();
        let paper = GradientLut::build(&lut, GradientMode::difference_based(4));
        let boxed = GradientLut::build(
            &lut,
            GradientMode::difference_kernel(4, SmoothingKernel::Box),
        );
        let bits_of = |t: &[f32]| -> Vec<u32> { t.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits_of(paper.wrt_w_table()), bits_of(boxed.wrt_w_table()));
        assert_eq!(bits_of(paper.wrt_x_table()), bits_of(boxed.wrt_x_table()));
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
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let lsq = GradientLut::build(&lut, GradientMode::least_squares(1));
        let raw = GradientLut::build(&lut, GradientMode::RawDifference);
        for w in 0..64u32 {
            for x in 1..63u32 {
                assert_eq!(lsq.wrt_x(w, x), raw.wrt_x(w, x), "w={w} x={x}");
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
        let g = GradientLut::build_signed(&lut, GradientMode::Ste);
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
        let g = GradientLut::build_signed(&lut, GradientMode::difference_based(4));
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
            (GradientMode::RawDifference, "raw_diff"),
            (
                GradientMode::DifferenceEdgeClamped { hws: 2 },
                "diff_clamp_h2",
            ),
            (
                GradientMode::difference_kernel(4, SmoothingKernel::Box),
                "box_h4",
            ),
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
            // New-family labels equal their keys; classic labels stay as
            // published in the paper-era reports.
            if !matches!(
                mode,
                GradientMode::Ste
                    | GradientMode::DifferenceBased { .. }
                    | GradientMode::RawDifference
                    | GradientMode::DifferenceEdgeClamped { .. }
            ) {
                assert_eq!(mode.label(), key);
            }
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
