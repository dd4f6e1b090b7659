//! Driver for the `grad_matrix` binary: the journal-extension estimator
//! matrix (estimator × multiplier × unsigned/signed) on a shared LeNet
//! retraining workload, emitting `results/GRAD_MATRIX.json`
//! (`appmult-gradmatrix/v1`).
//!
//! Every cell retrains the same pretrained LeNet under one
//! (design, scheme, estimator) triple and records the retrained accuracy
//! plus a table-level gradient-error diagnostic. All arithmetic goes
//! through the bit-identical parallel paths (LUT GEMMs, gradient-table
//! builds), so [`GradMatrixOutcome::grid_json`] is byte-identical at any
//! `APPMULT_THREADS` — the CI determinism gate `cmp`s two runs.

use std::sync::Arc;

use appmult_mult::{Multiplier, MultiplierLut, SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult_obs::json::{self, Layout};
use appmult_obs::Value;
use appmult_pool::Pool;
use appmult_retrain::{GradientLut, GradientMode, QuantScheme, SmoothingKernel};

use crate::{
    markdown_table, pretrain_float, retrain_with_multiplier_scheme, ModelKind, Scale, Workload,
};

/// Version tag in the `schema` field of `results/GRAD_MATRIX.json`.
pub const GRAD_MATRIX_SCHEMA_VERSION: &str = "appmult-gradmatrix/v1";

/// One estimator column of the matrix. Window parameters come from the
/// run config so a whole sweep shares one setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Straight-through (accurate-multiplier) baseline.
    Ste,
    /// The paper's box-smoothed difference estimator (Eqs. 4-6).
    Diff,
    /// Triangular-kernel smoothing (journal extension).
    Tri,
    /// Discrete-Gaussian-kernel smoothing (journal extension).
    Gauss,
    /// Least-squares local linear fit (journal extension).
    Lsq,
    /// Operand-marginal-weighted smoothing (journal extension).
    Marginal,
    /// ApproxTrain-style per-row linear surrogate.
    Surrogate,
}

impl EstimatorKind {
    /// Every estimator column in canonical report order.
    pub fn all() -> Vec<EstimatorKind> {
        vec![
            EstimatorKind::Ste,
            EstimatorKind::Diff,
            EstimatorKind::Tri,
            EstimatorKind::Gauss,
            EstimatorKind::Lsq,
            EstimatorKind::Marginal,
            EstimatorKind::Surrogate,
        ]
    }

    /// Which estimator family the column belongs to: `"ste"`,
    /// `"difference"` (everything built from local differences of the
    /// stored table), or `"surrogate"`.
    pub fn family(self) -> &'static str {
        match self {
            EstimatorKind::Ste => "ste",
            EstimatorKind::Surrogate => "surrogate",
            _ => "difference",
        }
    }

    /// Resolves the concrete [`GradientMode`] for a design of the given
    /// bit width under the run config's window settings.
    pub fn mode(self, cfg: &GradMatrixConfig, bits: u32) -> GradientMode {
        match self {
            EstimatorKind::Ste => GradientMode::Ste,
            EstimatorKind::Diff => GradientMode::difference_based(cfg.hws),
            EstimatorKind::Tri => {
                GradientMode::difference_kernel(cfg.hws, SmoothingKernel::Triangular)
            }
            EstimatorKind::Gauss => {
                GradientMode::difference_kernel(cfg.hws, SmoothingKernel::Gaussian)
            }
            EstimatorKind::Lsq => GradientMode::least_squares(cfg.lsq_window),
            EstimatorKind::Marginal => {
                let (w_probs, x_probs) = default_marginals(bits);
                GradientMode::marginal_weighted(cfg.hws, w_probs, x_probs)
            }
            EstimatorKind::Surrogate => GradientMode::Surrogate,
        }
    }
}

/// Deterministic stand-in for operand histograms profiled from a running
/// DNN: quantized weights cluster around mid-range (a discretized
/// Gaussian), post-ReLU activations skew toward small magnitudes (a
/// discretized exponential). Both sum to 1.
fn default_marginals(bits: u32) -> (Vec<f64>, Vec<f64>) {
    let n = 1usize << bits;
    let mu = (n as f64 - 1.0) / 2.0;
    let sigma = n as f64 / 4.0;
    let mut w: Vec<f64> = (0..n)
        .map(|v| (-((v as f64 - mu) / sigma).powi(2) / 2.0).exp())
        .collect();
    let tau = n as f64 / 4.0;
    let mut x: Vec<f64> = (0..n).map(|v| (-(v as f64) / tau).exp()).collect();
    for probs in [&mut w, &mut x] {
        let sum: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= sum;
        }
    }
    (w, x)
}

/// One multiplier row of the matrix: a LUT plus the quantization scheme
/// it is consumed under.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    /// Report name (the LUT's own name).
    pub name: String,
    /// Product LUT (offset-binary entries for signed designs).
    pub lut: Arc<MultiplierLut>,
    /// Code mapping the forward/backward passes run under.
    pub scheme: QuantScheme,
}

impl DesignSpec {
    /// Unsigned truncated design `mul{bits}u_rm{trunc}`.
    pub fn unsigned_truncated(bits: u32, trunc: u32) -> Self {
        let lut = TruncatedMultiplier::new(bits, trunc).to_lut();
        Self {
            name: lut.name().to_string(),
            lut: Arc::new(lut),
            scheme: QuantScheme::Unsigned,
        }
    }

    /// Signed sign-magnitude design over a truncated core, exported as an
    /// offset-binary LUT (`mul{bits}u_rm{trunc}_signed`). With
    /// `bits == 8` this is the signed int8 retraining path.
    pub fn signed_truncated(bits: u32, trunc: u32) -> Self {
        let signed = SignMagnitudeMultiplier::new(TruncatedMultiplier::new(bits, trunc));
        let lut = signed.to_offset_lut();
        Self {
            name: lut.name().to_string(),
            lut: Arc::new(lut),
            scheme: QuantScheme::SignedOffset,
        }
    }
}

/// Knobs of one `grad_matrix` run.
#[derive(Debug, Clone)]
pub struct GradMatrixConfig {
    /// Master seed (dataset + model init).
    pub seed: u64,
    /// Half window size shared by the smoothing-family estimators.
    pub hws: u32,
    /// Regression half window of the least-squares estimator.
    pub lsq_window: u32,
    /// Float pretraining epochs of the shared LeNet.
    pub pretrain_epochs: usize,
    /// Retraining epochs per cell.
    pub retrain_epochs: usize,
    /// Estimator columns.
    pub estimators: Vec<EstimatorKind>,
    /// Multiplier rows.
    pub designs: Vec<DesignSpec>,
}

impl GradMatrixConfig {
    /// CI-smoke defaults: the full seven-estimator family over the
    /// paper's `mul7u_rm6` (unsigned) and the signed int8 design
    /// `mul8u_rm6_signed`, with short schedules sized for a CI job.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            hws: 4,
            lsq_window: 3,
            pretrain_epochs: 3,
            retrain_epochs: 3,
            estimators: EstimatorKind::all(),
            designs: vec![
                DesignSpec::unsigned_truncated(7, 6),
                DesignSpec::signed_truncated(8, 6),
            ],
        }
    }
}

/// One (design, estimator) cell of the matrix.
#[derive(Debug, Clone)]
pub struct GradMatrixCell {
    /// Design name.
    pub design: String,
    /// Scheme key (`"unsigned"` / `"signed"`).
    pub scheme: &'static str,
    /// Operand bit width.
    pub bits: u32,
    /// Estimator key ([`GradientMode::key`]).
    pub estimator: String,
    /// Estimator family (`"ste"` / `"difference"` / `"surrogate"`).
    pub family: &'static str,
    /// Quantized accuracy before retraining, percent.
    pub initial_pct: f64,
    /// Accuracy after retraining, percent.
    pub final_pct: f64,
    /// Normalized RMS deviation of the estimator's `dAM/dX` table from
    /// the raw central difference of the stored LUT (the local slope the
    /// estimators approximate). Diagnostic, not a selection objective.
    pub grad_err: f64,
}

/// Everything a caller (binary, CI job, schema test) needs from one run.
#[derive(Debug)]
pub struct GradMatrixOutcome {
    /// Full `results/GRAD_MATRIX.json` contents (includes threads/kernel).
    pub json: String,
    /// Machine-independent grid document (byte-identical across thread
    /// counts; the CI determinism gate `cmp`s two of these).
    pub grid_json: String,
    /// All cells in (design-major, estimator-minor) order.
    pub cells: Vec<GradMatrixCell>,
    /// Float (accurate-multiplier) test accuracy of the shared LeNet,
    /// percent.
    pub float_top1_pct: f64,
    /// Human-readable matrix summary (markdown).
    pub summary: String,
}

impl GradMatrixOutcome {
    /// Whether, for at least one design, some difference-family estimator
    /// retrains to strictly higher accuracy than STE — the paper's core
    /// claim, carried over to the estimator family and gated in CI.
    pub fn difference_beats_ste(&self) -> bool {
        self.cells.iter().any(|ste| {
            ste.family == "ste"
                && self.cells.iter().any(|c| {
                    c.design == ste.design
                        && c.family == "difference"
                        && c.final_pct > ste.final_pct
                })
        })
    }

    /// The cell of `design` × `estimator`, if present.
    pub fn cell(&self, design: &str, estimator: &str) -> Option<&GradMatrixCell> {
        self.cells
            .iter()
            .find(|c| c.design == design && c.estimator == estimator)
    }
}

/// Normalized RMS deviation of `grads`' `dAM/dX` table from the raw
/// central difference of `lut` — how far the estimator strays from the
/// stored function's local slope. Serial f64 accumulation in index
/// order, so the value is machine-independent.
pub fn gradient_table_error(lut: &MultiplierLut, grads: &GradientLut) -> f64 {
    let raw = GradientLut::build_with_pool(lut, GradientMode::least_squares(1), Pool::serial());
    let est = grads.wrt_x_table();
    let reference = raw.wrt_x_table();
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&e, &r) in est.iter().zip(reference.iter()) {
        let d = f64::from(e) - f64::from(r);
        num += d * d;
        den += f64::from(r) * f64::from(r);
    }
    (num / den.max(1e-12)).sqrt()
}

/// Runs the full matrix: one shared pretrained LeNet, one retraining per
/// (design, estimator) cell, serialized reports.
///
/// # Panics
///
/// Panics if the config has no designs or estimators, or a zero window.
pub fn run_grad_matrix(cfg: &GradMatrixConfig) -> GradMatrixOutcome {
    assert!(!cfg.designs.is_empty(), "config has no designs");
    assert!(!cfg.estimators.is_empty(), "config has no estimators");
    assert!(
        cfg.hws > 0 && cfg.lsq_window > 0,
        "config has a zero window"
    );
    let obs = appmult_obs::global();
    let _span = obs.span("grad_matrix.run");

    let mut scale = Scale::cpu_cifar10();
    scale.model.seed = cfg.seed;
    scale.data.seed = cfg.seed;
    scale.pretrain_epochs = cfg.pretrain_epochs;
    scale.retrain_epochs = cfg.retrain_epochs;
    let workload = Workload::generate(&scale);
    let (mut pretrained, float_top1) = pretrain_float(ModelKind::LeNet, &scale, &workload);

    let mut cells = Vec::with_capacity(cfg.designs.len() * cfg.estimators.len());
    for design in &cfg.designs {
        for &estimator in &cfg.estimators {
            let _cell_span = obs.span("grad_matrix.cell");
            let mode = estimator.mode(cfg, design.lut.bits());
            let estimator_key = mode.key();
            let grads = Arc::new(
                GradientLut::try_build_for(&design.lut, mode, design.scheme, Pool::global())
                    .expect("estimator tables rejected"),
            );
            let grad_err = gradient_table_error(&design.lut, &grads);
            let outcome = retrain_with_multiplier_scheme(
                ModelKind::LeNet,
                &scale,
                &workload,
                &mut pretrained,
                &design.lut,
                grads,
                design.scheme,
                None,
            );
            obs.counter_add("grad_matrix.cells", 1);
            cells.push(GradMatrixCell {
                design: design.name.clone(),
                scheme: design.scheme.key(),
                bits: design.lut.bits(),
                estimator: estimator_key,
                family: estimator.family(),
                initial_pct: outcome.initial_pct(),
                final_pct: outcome.final_pct(),
                grad_err,
            });
        }
    }

    let json = grad_matrix_json(cfg, &cells, float_top1 * 100.0, &crate::run_config());
    let grid_json = grad_matrix_json(cfg, &cells, float_top1 * 100.0, &[]);

    let estimator_keys: Vec<String> = cfg
        .estimators
        .iter()
        .map(|e| e.mode(cfg, cfg.designs[0].lut.bits()).key())
        .collect();
    let mut header: Vec<&str> = vec!["design", "scheme"];
    for k in &estimator_keys {
        header.push(k);
    }
    let rows: Vec<Vec<String>> = cfg
        .designs
        .iter()
        .map(|d| {
            let mut row = vec![d.name.clone(), d.scheme.key().to_string()];
            for &e in &cfg.estimators {
                let key = e.mode(cfg, d.lut.bits()).key();
                let cell = cells
                    .iter()
                    .find(|c| c.design == d.name && c.estimator == key)
                    .expect("cell exists");
                row.push(format!("{:.2}", cell.final_pct));
            }
            row
        })
        .collect();
    let summary = markdown_table(&header, &rows);

    GradMatrixOutcome {
        json,
        grid_json,
        cells,
        float_top1_pct: float_top1 * 100.0,
        summary,
    }
}

/// Serializes a run. With the run environment in `env` (`threads`,
/// `kernel`) this is the full `results/GRAD_MATRIX.json`; with an empty
/// `env`, the machine-independent grid document (the CI determinism
/// artefact).
fn grad_matrix_json(
    cfg: &GradMatrixConfig,
    cells: &[GradMatrixCell],
    float_top1_pct: f64,
    env: &[(&str, Value)],
) -> String {
    json::document(|w| {
        w.key("schema").str(GRAD_MATRIX_SCHEMA_VERSION);
        w.key("config").object(Layout::Pretty, |w| {
            w.key("seed").raw(cfg.seed);
            w.key("hws").raw(cfg.hws);
            w.key("lsq_window").raw(cfg.lsq_window);
            w.key("pretrain_epochs").raw(cfg.pretrain_epochs);
            w.key("retrain_epochs").raw(cfg.retrain_epochs);
            for (key, value) in env {
                w.key(key).value(value);
            }
        });
        w.key("float_top1_pct").f64(float_top1_pct);
        w.key("float_top1_pct_bits").raw(float_top1_pct.to_bits());
        w.key("cells").array(Layout::Pretty, |w| {
            for c in cells {
                w.object(Layout::Pretty, |w| {
                    w.key("design").str(&c.design);
                    w.key("scheme").str(c.scheme);
                    w.key("bits").raw(c.bits);
                    w.key("estimator").str(&c.estimator);
                    w.key("family").str(c.family);
                    for (key, value) in [
                        ("initial_pct", c.initial_pct),
                        ("final_pct", c.final_pct),
                        ("grad_err", c.grad_err),
                    ] {
                        w.key(key).f64(value);
                        w.key(&format!("{key}_bits")).raw(value.to_bits());
                    }
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginals_are_distributions() {
        for bits in [3u32, 4, 6] {
            let (w, x) = default_marginals(bits);
            assert_eq!(w.len(), 1 << bits);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(w.iter().chain(&x).all(|&p| p > 0.0));
        }
    }

    #[test]
    fn estimator_keys_cover_the_family() {
        let cfg = GradMatrixConfig::smoke(1);
        let keys: Vec<String> = EstimatorKind::all()
            .into_iter()
            .map(|e| e.mode(&cfg, 7).key())
            .collect();
        assert_eq!(
            keys,
            [
                "ste",
                "diff_h4",
                "tri_h4",
                "gauss_h4",
                "lsq_w3",
                "marginal_h4",
                "surrogate"
            ]
        );
    }

    #[test]
    fn design_specs_name_their_luts() {
        let u = DesignSpec::unsigned_truncated(7, 6);
        assert_eq!(u.name, "mul7u_rm6");
        assert_eq!(u.scheme, QuantScheme::Unsigned);
        let s = DesignSpec::signed_truncated(8, 6);
        assert_eq!(s.name, "mul8u_rm6_signed");
        assert_eq!(s.scheme, QuantScheme::SignedOffset);
        assert_eq!(s.lut.bits(), 8);
    }

    #[test]
    fn gradient_table_error_is_zero_for_raw_difference() {
        let lut = TruncatedMultiplier::new(6, 4).to_lut();
        let raw = GradientLut::build(&lut, GradientMode::least_squares(1));
        assert_eq!(gradient_table_error(&lut, &raw), 0.0);
        // STE ignores the staircase, so its deviation is strictly larger.
        let ste = GradientLut::build(&lut, GradientMode::Ste);
        assert!(gradient_table_error(&lut, &ste) > 0.0);
    }
}
