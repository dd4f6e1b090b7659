//! Shared harness for the paper-reproduction experiments.
//!
//! One binary per table/figure lives in `src/bin/`:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table I — multiplier area/delay/power + ER/NMED/MaxED + HWS |
//! | `table2` | Table II — STE vs difference-based retraining accuracy |
//! | `fig3`   | Fig. 3 — AppMult slice, smoothed slice, both gradients |
//! | `fig5`   | Fig. 5 — accuracy vs normalized power trade-off |
//! | `fig6`   | Fig. 6 — top-5 accuracy curves on the CIFAR-100-like task |
//! | `hws_select` | Table I HWS column — the Sec. V-A selection sweep |
//! | `fault_sweep` | Retraining accuracy vs injected hardware fault count |
//! | `par_scale` | Serial-vs-parallel throughput of the LUT kernels |
//! | `appmult-lint` | Static verification sweep over the zoo (`results/LINT.json`) |
//!
//! All experiments run on deterministic synthetic data (see
//! `appmult-data`) at a CPU-friendly scale by default; pass `--full` for
//! paper-scale architecture/epoch settings (slow on a laptop).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grad_matrix_driver;
pub mod serve_driver;

use std::sync::Arc;

use appmult_data::{DatasetConfig, SyntheticDataset};
use appmult_models::{copy_params, resnet, vgg, ConvMode, ModelConfig, ResNetDepth, VggDepth};
use appmult_mult::zoo::ZooEntry;
use appmult_mult::{Multiplier, MultiplierLut};
use appmult_nn::layers::Sequential;
use appmult_nn::optim::{Adam, StepSchedule};
use appmult_obs::ObsSink;
use appmult_retrain::{
    evaluate, retrain, Batch, GradientLut, GradientMode, QuantConfig, QuantScheme,
    ResiliencePolicy, RetrainConfig, RetrainHistory,
};

/// Which network family an experiment trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// VGG family (Table II top).
    Vgg(VggDepth),
    /// ResNet family (Table II bottom, Figs. 5-6).
    ResNet(ResNetDepth),
    /// LeNet (HWS selection proxy).
    LeNet,
}

impl ModelKind {
    /// Builds the model with the given convolution mode.
    pub fn build(&self, base: &ModelConfig, conv: ConvMode) -> Sequential {
        let cfg = base.clone().with_conv(conv);
        match self {
            ModelKind::Vgg(d) => vgg(*d, &cfg),
            ModelKind::ResNet(d) => resnet(*d, &cfg),
            ModelKind::LeNet => appmult_models::lenet5(&cfg),
        }
    }
}

/// Scale of an experiment run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Dataset configuration.
    pub data: DatasetConfig,
    /// Model base configuration (conv mode filled per run).
    pub model: ModelConfig,
    /// Float pretraining epochs (Fig. 1: "pre-trained model").
    pub pretrain_epochs: usize,
    /// AppMult-aware retraining epochs.
    pub retrain_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for pretraining.
    pub pretrain_lr: f32,
    /// Learning-rate schedule for retraining.
    pub schedule: StepSchedule,
}

impl Scale {
    /// CPU-scale defaults: 16x16 synthetic CIFAR-10-like data, width-/4
    /// models, short schedules. Finishes in minutes on one core.
    pub fn cpu_cifar10() -> Self {
        Self {
            data: harder(DatasetConfig::small(10, 64, 48)),
            model: ModelConfig {
                num_classes: 10,
                input_channels: 3,
                input_hw: (16, 16),
                width_div: 4,
                seed: 42,
                conv: ConvMode::Accurate,
            },
            pretrain_epochs: 8,
            retrain_epochs: 10,
            batch_size: 32,
            pretrain_lr: 2e-3,
            schedule: StepSchedule::new(vec![(1, 1e-3), (5, 5e-4), (8, 2.5e-4)]),
        }
    }

    /// CPU-scale CIFAR-100-like settings (Fig. 6).
    pub fn cpu_cifar100() -> Self {
        // 100 classes on 16x16 synthetic data: keep the noise moderate so a
        // width-scaled ResNet can actually learn the task.
        let mut data = DatasetConfig::small(100, 16, 4);
        data.noise = 0.55;
        data.max_shift = 3;
        Self {
            data,
            model: ModelConfig {
                num_classes: 100,
                input_channels: 3,
                input_hw: (16, 16),
                width_div: 16,
                seed: 42,
                conv: ConvMode::Accurate,
            },
            pretrain_epochs: 10,
            retrain_epochs: 8,
            batch_size: 40,
            pretrain_lr: 2e-3,
            schedule: StepSchedule::new(vec![(1, 1e-3), (6, 5e-4)]),
        }
    }

    /// Paper-scale settings: 32x32 data, full-width models, the paper's
    /// 30-epoch schedule. Only practical on a beefy machine.
    pub fn paper_cifar10() -> Self {
        Self {
            data: DatasetConfig::cifar10_like(500, 100),
            model: ModelConfig::cifar10(),
            pretrain_epochs: 30,
            retrain_epochs: 30,
            batch_size: 64,
            pretrain_lr: 1e-3,
            schedule: StepSchedule::paper_default(),
        }
    }
}

/// Raises the noise/jitter of a dataset so accuracies land mid-range
/// (a saturated task cannot separate gradient rules).
fn harder(mut cfg: DatasetConfig) -> DatasetConfig {
    cfg.noise = 1.15;
    cfg.max_shift = 4;
    cfg
}

/// Pre-generated batches for one experiment.
pub struct Workload {
    /// Training batches.
    pub train: Vec<Batch>,
    /// Test batches.
    pub test: Vec<Batch>,
}

impl Workload {
    /// Generates the dataset and batches of a scale.
    pub fn generate(scale: &Scale) -> Self {
        let data = SyntheticDataset::generate(&scale.data);
        Self {
            train: data.train_batches(scale.batch_size),
            test: data.test_batches(scale.batch_size),
        }
    }
}

/// Pretrains a float (accurate) model per the Fig. 1 flow, returning the
/// trained model and its float test accuracy.
pub fn pretrain_float(kind: ModelKind, scale: &Scale, workload: &Workload) -> (Sequential, f64) {
    let mut model = kind.build(&scale.model, ConvMode::Accurate);
    let mut opt = Adam::new(scale.pretrain_lr);
    let cfg = RetrainConfig {
        epochs: scale.pretrain_epochs,
        schedule: StepSchedule::new(vec![(1, scale.pretrain_lr)]),
        eval_every: usize::MAX,
        resilience: None,
        obs: ObsSink::null(),
    };
    let history = retrain(&mut model, &mut opt, &cfg, &workload.train, &workload.test);
    let top1 = history.final_top1();
    (model, top1)
}

/// Result of retraining one (multiplier, gradient mode) pair.
#[derive(Debug, Clone)]
pub struct RetrainOutcome {
    /// Top-1 accuracy of the quantized AppMult model before retraining
    /// (Table II "initial accuracy").
    pub initial_top1: f64,
    /// Full retraining history.
    pub history: RetrainHistory,
}

impl RetrainOutcome {
    /// Final top-1 accuracy in percent.
    pub fn final_pct(&self) -> f64 {
        self.history.final_top1() * 100.0
    }

    /// Initial accuracy in percent.
    pub fn initial_pct(&self) -> f64 {
        self.initial_top1 * 100.0
    }
}

/// Converts the pretrained float model to the AppMult version (transplanting
/// weights), measures initial accuracy, and retrains with `mode`.
pub fn retrain_with_multiplier(
    kind: ModelKind,
    scale: &Scale,
    workload: &Workload,
    pretrained: &mut Sequential,
    lut: &Arc<MultiplierLut>,
    mode: GradientMode,
) -> RetrainOutcome {
    retrain_with_multiplier_scheme(
        kind,
        scale,
        workload,
        pretrained,
        lut,
        Arc::new(GradientLut::build(lut, mode)),
        QuantScheme::Unsigned,
        None,
    )
}

/// The full retraining entry point: prebuilt gradient tables and an
/// explicit quantization scheme, so the signed int8 path
/// (`SignMagnitudeMultiplier::to_offset_lut` +
/// [`QuantScheme::SignedOffset`]) runs the same Fig. 1 flow as the paper's
/// unsigned experiments. `grads` must be built from `lut` under the same
/// scheme ([`GradientLut::try_build_for`]).
#[allow(clippy::too_many_arguments)]
pub fn retrain_with_multiplier_scheme(
    kind: ModelKind,
    scale: &Scale,
    workload: &Workload,
    pretrained: &mut Sequential,
    lut: &Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
    scheme: QuantScheme,
    resilience: Option<ResiliencePolicy>,
) -> RetrainOutcome {
    let config = QuantConfig {
        scheme,
        ..QuantConfig::default()
    };
    let conv = ConvMode::Approximate {
        lut: lut.clone(),
        grads,
        config,
    };
    let mut model = kind.build(&scale.model, conv);
    copy_params(pretrained, &mut model);
    let (initial_top1, _) = evaluate(&mut model, &workload.test);
    let mut opt = Adam::new(1e-3);
    let cfg = RetrainConfig {
        epochs: scale.retrain_epochs,
        schedule: scale.schedule.clone(),
        eval_every: 1,
        resilience,
        obs: ObsSink::null(),
    };
    let history = retrain(&mut model, &mut opt, &cfg, &workload.train, &workload.test);
    RetrainOutcome {
        initial_top1,
        history,
    }
}

/// STE-vs-ours comparison row for one multiplier (one Table II line).
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Multiplier name.
    pub name: String,
    /// Initial (pre-retraining) accuracy, percent.
    pub initial_pct: f64,
    /// Accuracy after STE retraining, percent.
    pub ste_pct: f64,
    /// Accuracy after difference-based retraining, percent.
    pub ours_pct: f64,
    /// Normalized power (to mul8u_acc) of the multiplier.
    pub norm_power: f64,
    /// Normalized delay (to mul8u_acc).
    pub norm_delay: f64,
    /// NMED in percent (measured).
    pub nmed_pct: f64,
}

impl ComparisonRow {
    /// `ours - STE` improvement in accuracy points.
    pub fn improvement(&self) -> f64 {
        self.ours_pct - self.ste_pct
    }
}

/// Selects the half window size for a multiplier with the paper's Sec. V-A
/// procedure: short LeNet proxy retrainings on the same workload, smallest
/// final training loss wins.
///
/// Returns an [`appmult_retrain::HwsError`] when every proxy run diverges
/// (e.g. for a heavily faulted multiplier); callers should fall back to a
/// default HWS rather than abort the whole sweep.
pub fn select_hws_by_proxy(
    lut: &Arc<MultiplierLut>,
    scale: &Scale,
    workload: &Workload,
    pretrained_lenet: &mut Sequential,
) -> Result<appmult_retrain::HwsSelection, appmult_retrain::HwsError> {
    let mut proxy_scale = scale.clone();
    proxy_scale.retrain_epochs = 2;
    let candidates = appmult_retrain::candidates_for_bits(lut.bits());
    appmult_retrain::select_hws(&candidates, |hws| {
        let outcome = retrain_with_multiplier(
            ModelKind::LeNet,
            &proxy_scale,
            workload,
            pretrained_lenet,
            lut,
            GradientMode::difference_based(hws),
        );
        outcome.history.final_train_loss()
    })
}

/// Runs the full STE-vs-ours comparison for one zoo entry on a shared
/// pretrained model, using the given half window size for the
/// difference-based gradient.
pub fn compare_entry(
    kind: ModelKind,
    scale: &Scale,
    workload: &Workload,
    pretrained: &mut Sequential,
    entry: &ZooEntry,
    hws: u32,
) -> ComparisonRow {
    let lut = Arc::new(entry.multiplier.to_lut());
    let metrics = appmult_mult::ErrorMetrics::exhaustive(&lut);
    let ste = retrain_with_multiplier(kind, scale, workload, pretrained, &lut, GradientMode::Ste);
    let ours = retrain_with_multiplier(
        kind,
        scale,
        workload,
        pretrained,
        &lut,
        GradientMode::difference_based(hws),
    );
    let (power, delay) = hardware_normalized(entry);
    ComparisonRow {
        name: entry.name.to_string(),
        initial_pct: ste.initial_pct(),
        ste_pct: ste.final_pct(),
        ours_pct: ours.final_pct(),
        norm_power: power,
        norm_delay: delay,
        nmed_pct: metrics.nmed_pct(),
    }
}

/// Normalized (power, delay) of a zoo entry relative to `mul8u_acc`.
///
/// Entries with a gate-level netlist are costed with the calibrated
/// ASAP7-like model; behavioural-only surrogates fall back to the paper's
/// published values (marked in Table I output).
pub fn hardware_normalized(entry: &ZooEntry) -> (f64, f64) {
    let reference =
        appmult_circuit::CostModel::asap7().estimate(&appmult_circuit::MultiplierCircuit::array(8));
    match entry.multiplier.circuit() {
        Some(circuit) => {
            let cost = appmult_circuit::CostModel::asap7().estimate(&circuit);
            (
                cost.power_uw / reference.power_uw,
                cost.delay_ps / reference.delay_ps,
            )
        }
        None => (entry.paper.power_uw / 22.93, entry.paper.delay_ps / 730.1),
    }
}

/// Minimal CLI flag reader: `--key value` pairs and `--flag` switches,
/// checked against the names each binary declares, so a mistyped flag or
/// value fails the run instead of silently switching a gate off.
#[derive(Debug, Clone)]
pub struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments against the binary's declared names:
    /// `values` and `flags` are space-separated lists of the flags that
    /// take a value and of the switches. Any error is printed and exits
    /// with status 2.
    pub fn from_env(values: &str, flags: &str) -> Self {
        let raw = std::env::args().skip(1).collect();
        Self::from_vec(raw, values, flags).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses an explicit argument list; the error names the undeclared
    /// `--flag`, the stray token, or the value flag missing its value.
    pub fn from_vec(raw: Vec<String>, values: &str, flags: &str) -> Result<Self, String> {
        let mut args = Self {
            values: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if values.split_whitespace().any(|v| v == name) {
                let value = raw.next().ok_or(format!("`{arg}` needs a value"))?;
                args.values.push((name.to_string(), value));
            } else if flags.split_whitespace().any(|f| f == name) {
                args.flags.push(name.to_string());
            } else {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(args)
    }

    /// Whether `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value following the first `--name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        let pair = self.values.iter().find(|(k, _)| k == name);
        pair.map(|(_, v)| v.as_str())
    }

    /// The value following `--name`, parsed; the error names the flag and
    /// the value that does not parse as a `T`.
    fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for `--{name}`"))
        };
        self.value(name).map(parse).transpose()
    }

    /// The value following `--name`, parsed; exits with status 2 naming
    /// the flag and the value when it does not parse as a `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_get(name).unwrap_or_else(|e| usage_error(&e))
    }

    /// [`get`](Self::get), or `default` when the flag is absent.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).unwrap_or(default)
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Artifacts of one observability-demo retraining run (see [`run_obs_demo`]).
#[derive(Debug)]
pub struct ObsDemo {
    /// Full `appmult-obs/v1` report (the contents of `results/OBS.json`).
    pub report_json: String,
    /// Structured event stream, one JSON object per line.
    pub events_jsonl: String,
    /// End-of-run plain-text summary table.
    pub summary: String,
    /// The retraining history of the demo run.
    pub history: appmult_retrain::RetrainHistory,
}

/// Retrains a small two-layer AppMult model with full observability on and
/// returns the recorded artifacts.
///
/// The run is deliberately eventful so every signal class shows up in the
/// report: a one-epoch learning-rate spike blows the loss up mid-run, which
/// the aggressive [`ResiliencePolicy`] answers with norm clipping and a
/// divergence rollback — so the report carries per-layer forward/backward
/// latency histograms, per-epoch loss/gradient-norm events, LUT build and
/// lookup counters, per-worker busy time, and nonzero resilience
/// intervention counts.
pub fn run_obs_demo() -> ObsDemo {
    let obs = ObsSink::recording();
    // The hot kernels (GEMM, LUT builds, the pool) report via the
    // process-wide sink; the retraining loop itself via the config handle.
    appmult_obs::set_global(&obs);
    // Pre-register the intervention inventory so the report always carries
    // every counter, including those that stay at zero on a healthy run.
    for counter in [
        "resilience.rollbacks",
        "resilience.scrubbed_grads",
        "resilience.norm_clips",
        "observer.rejections",
    ] {
        obs.counter_add(counter, 0);
    }

    let mut data_cfg = DatasetConfig::small(3, 8, 6);
    data_cfg.channels = 1;
    data_cfg.hw = (8, 8);
    let data = SyntheticDataset::generate(&data_cfg);
    let train = data.train_batches(8);
    let test = data.test_batches(8);

    let lut = Arc::new(appmult_mult::zoo::mul7u_rm6().to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
    let mut model = Sequential::new()
        .push(appmult_nn::layers::Flatten::new())
        .push(appmult_retrain::ApproxLinear::new(
            64,
            16,
            11,
            lut.clone(),
            grads.clone(),
            appmult_retrain::QuantConfig::default(),
        ))
        .push(appmult_nn::layers::Relu::new())
        .push(appmult_retrain::ApproxLinear::new(
            16,
            3,
            13,
            lut,
            grads,
            appmult_retrain::QuantConfig::default(),
        ));
    let mut opt = Adam::new(5e-3);
    let cfg = RetrainConfig {
        epochs: 6,
        // Epoch 4 runs at an absurd learning rate to provoke a divergence.
        schedule: StepSchedule::new(vec![(1, 5e-3), (4, 5.0), (5, 5e-3)]),
        eval_every: 1,
        resilience: Some(ResiliencePolicy {
            max_grad_norm: Some(10.0),
            divergence_factor: 1.05,
            divergence_patience: 1,
            lr_backoff: 0.5,
            max_rollbacks: 3,
        }),
        obs: obs.clone(),
    };
    let history = retrain(&mut model, &mut opt, &cfg, &train, &test);
    appmult_obs::set_global(&ObsSink::null());

    ObsDemo {
        report_json: obs.to_json_with_config(&run_config()),
        events_jsonl: obs.events_jsonl(),
        summary: obs.summary(),
        history,
    }
}

/// The resolved run configuration embedded in every result file's JSON
/// header: worker threads and the active GEMM kernel, so a report is
/// interpretable without the environment that produced it.
pub fn run_config() -> Vec<(&'static str, appmult_obs::Value)> {
    vec![
        (
            "threads",
            appmult_obs::Value::from(appmult_pool::Pool::global().threads() as u64),
        ),
        (
            "kernel",
            appmult_obs::Value::from(appmult_kernels::Kernel::global().label()),
        ),
    ]
}

/// The Fig. 3 series for one multiplier slice as CSV: the raw AppMult row
/// `AM(W_f, X)`, the AccMult line, the Eq. 4 smoothing, and the
/// difference-based / STE / raw-difference gradients.
///
/// Shared by the `fig3` binary and the golden-file regression tests, so a
/// change to any of the underlying math shows up as a golden diff.
pub fn fig3_csv(lut: &MultiplierLut, wf: u32, hws: u32) -> String {
    let row = lut.row(wf).to_vec();
    let smoothed = appmult_retrain::smooth_row(&row, hws);
    let ours = GradientLut::build(lut, GradientMode::difference_based(hws));
    let ste = GradientLut::build(lut, GradientMode::Ste);
    let raw = GradientLut::build(lut, GradientMode::least_squares(1));

    let mut csv = String::from("x,appmult,accmult,smoothed,grad_diff,grad_ste,grad_raw\n");
    for x in 0..row.len() as u32 {
        let sm = smoothed[x as usize]
            .map(|v| format!("{v:.4}"))
            .unwrap_or_default();
        csv.push_str(&format!(
            "{x},{},{},{sm},{:.4},{:.4},{:.4}\n",
            row[x as usize],
            wf * x,
            ours.wrt_x(wf, x),
            ste.wrt_x(wf, x),
            raw.wrt_x(wf, x),
        ));
    }
    csv
}

/// One Table I row: measured error metrics and hardware cost of a zoo
/// entry next to the paper's published values.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Table I multiplier name.
    pub name: String,
    /// Reproduction-fidelity label (`exact` / `surrogate` / `synthesized`).
    pub fidelity: &'static str,
    /// Hardware cost: gate-level model estimate when a netlist exists,
    /// otherwise the paper's published numbers.
    pub cost: appmult_circuit::HardwareCost,
    /// Where [`Table1Row::cost`] came from: `"model"` or `"paper*"`.
    pub cost_source: &'static str,
    /// Exhaustively measured error metrics of the entry's LUT.
    pub metrics: appmult_mult::ErrorMetrics,
    /// HWS column (`None` for exact multipliers).
    pub hws: Option<u32>,
    /// The paper's published row.
    pub paper: appmult_mult::zoo::PaperRow,
}

/// CSV header matching [`Table1Row::csv_line`].
pub const TABLE1_CSV_HEADER: &str =
    "name,fidelity,area_um2,delay_ps,power_uw,er_pct,nmed_pct,max_ed,hws,\
     paper_area,paper_delay,paper_power,paper_er,paper_nmed,paper_maxed\n";

/// Computes one Table I row from a zoo entry.
///
/// Shared by the `table1` binary and the golden-file regression tests.
pub fn table1_row(entry: &ZooEntry, model: &appmult_circuit::CostModel) -> Table1Row {
    let lut = entry.multiplier.to_lut();
    let metrics = appmult_mult::ErrorMetrics::exhaustive(&lut);
    let (cost, cost_source) = match entry.multiplier.circuit() {
        Some(c) => (model.estimate(&c), "model"),
        None => (
            appmult_circuit::HardwareCost {
                area_um2: entry.paper.area_um2,
                delay_ps: entry.paper.delay_ps,
                power_uw: entry.paper.power_uw,
            },
            "paper*",
        ),
    };
    let fidelity = match entry.fidelity {
        appmult_mult::zoo::Fidelity::ExactSemantics => "exact",
        appmult_mult::zoo::Fidelity::Surrogate => "surrogate",
        appmult_mult::zoo::Fidelity::Synthesized => "synthesized",
    };
    Table1Row {
        name: entry.name.to_string(),
        fidelity,
        cost,
        cost_source,
        metrics,
        hws: entry.paper.hws,
        paper: entry.paper,
    }
}

impl Table1Row {
    /// The HWS column as printed (`N/A` for exact multipliers).
    pub fn hws_label(&self) -> String {
        self.hws
            .map(|h| h.to_string())
            .unwrap_or_else(|| "N/A".into())
    }

    /// One CSV line in the [`TABLE1_CSV_HEADER`] column order.
    pub fn csv_line(&self) -> String {
        format!(
            "{},{},{:.2},{:.2},{:.3},{:.2},{:.4},{},{},{:.2},{:.2},{:.3},{:.2},{:.4},{}\n",
            self.name,
            self.fidelity,
            self.cost.area_um2,
            self.cost.delay_ps,
            self.cost.power_uw,
            self.metrics.er_pct(),
            self.metrics.nmed_pct(),
            self.metrics.max_ed,
            self.hws_label(),
            self.paper.area_um2,
            self.paper.delay_ps,
            self.paper.power_uw,
            self.paper.er_pct,
            self.paper.nmed_pct,
            self.paper.max_ed,
        )
    }

    /// The human-facing markdown cells of the `table1` binary.
    pub fn markdown_cells(&self) -> Vec<String> {
        vec![
            self.name.clone(),
            self.fidelity.into(),
            format!("{:.1} ({})", self.cost.area_um2, self.cost_source),
            format!("{:.1}", self.cost.delay_ps),
            format!("{:.2}", self.cost.power_uw),
            format!("{:.1} / {:.1}", self.metrics.er_pct(), self.paper.er_pct),
            format!(
                "{:.2} / {:.2}",
                self.metrics.nmed_pct(),
                self.paper.nmed_pct
            ),
            format!("{} / {}", self.metrics.max_ed, self.paper.max_ed),
            self.hws_label(),
        ]
    }
}

/// Writes `contents` under `results/` (created on demand), returning the path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_results(file: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    std::fs::write(&path, contents).expect("write results file");
    path
}

/// Renders a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", header.join(" | ")));
    s.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        s.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        let raw = raw.iter().map(ToString::to_string).collect();
        Args::from_vec(raw, "epochs batch assert-overhead", "full quick")
    }

    #[test]
    fn args_parse_flags_and_values() {
        let a = parse(&["--full", "--epochs", "7"]).expect("valid");
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
        assert_eq!(a.get_or("epochs", 3usize), 7);
        assert_eq!(a.get_or("batch", 32usize), 32);
        assert_eq!(a.try_get::<f64>("assert-overhead"), Ok(None));
        let a = parse(&["--assert-overhead", "5"]).expect("valid");
        assert_eq!(a.try_get::<f64>("assert-overhead"), Ok(Some(5.0)));
    }

    #[test]
    fn args_name_unknown_flags_stray_arguments_and_bad_values() {
        assert_eq!(
            parse(&["--require-dominanse"]).unwrap_err(),
            "unknown flag `--require-dominanse`"
        );
        assert_eq!(
            parse(&["--full", "7"]).unwrap_err(),
            "unexpected argument `7`"
        );
        assert_eq!(
            parse(&["--epochs"]).unwrap_err(),
            "`--epochs` needs a value"
        );
        // `--key=value` is not a supported spelling, so it is rejected too.
        assert!(parse(&["--epochs=7"]).is_err());
        for bad in ["5%", "1,5"] {
            let a = parse(&["--assert-overhead", bad]).expect("the flag is known");
            assert_eq!(
                a.try_get::<f64>("assert-overhead"),
                Err(format!("invalid value `{bad}` for `--assert-overhead`"))
            );
        }
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn cpu_scale_workload_generates() {
        let scale = Scale::cpu_cifar10();
        let w = Workload::generate(&scale);
        assert!(!w.train.is_empty() && !w.test.is_empty());
    }
}
