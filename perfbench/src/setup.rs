//! Set-up shared by every workload: product and gradient LUTs, synthetic
//! data, and the retraining loop body.

use std::sync::Arc;
use std::time::Instant;

use appmult_data::{DatasetConfig, SyntheticDataset};
use appmult_mult::{zoo, Multiplier, MultiplierLut};
use appmult_nn::layers::Sequential;
use appmult_nn::loss::softmax_cross_entropy;
use appmult_nn::optim::{Adam, Optimizer};
use appmult_nn::{Module, Tensor};
use appmult_pool::Pool;
use appmult_retrain::{GradientLut, GradientMode};

use crate::arch::{build_model, Model, Workload, BATCH, CLASSES, IN_HW};
use crate::stats::ms_since;
use crate::trace::Tracer;

/// Training samples per class: ten batches of 32 across the ten classes.
const TRAIN_PER_CLASS: usize = 32;
/// Test samples per class: the 160 distinct serving requests.
const TEST_PER_CLASS: usize = 16;
/// Adam learning rate of the retraining loop.
const LR: f32 = 1e-3;

/// Time spent in each part of set-up, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupParts {
    pub lut_build: f64,
    pub gradlut_build: f64,
    pub data_generate: f64,
    pub model_build: f64,
}

/// The workload's product LUT and difference-based gradient LUT at the
/// multiplier's Table I half window size.
pub fn build_luts(
    w: &Workload,
    parts: &mut SetupParts,
    tracer: &mut Tracer,
) -> (Arc<MultiplierLut>, Arc<GradientLut>) {
    let entry = zoo::entry(w.multiplier).expect("workload multipliers are Table I entries");
    let t = Instant::now();
    let lut = tracer.time("mult/Multiplier::to_lut", None, || {
        entry.multiplier.to_lut()
    });
    parts.lut_build = ms_since(t);
    let mode = GradientMode::difference_based(entry.recommended_hws());
    let t = Instant::now();
    let grads = tracer.time("core/GradientLut::build_with_pool", None, || {
        GradientLut::build_with_pool(&lut, mode, Pool::global())
    });
    parts.gradlut_build = ms_since(t);
    (Arc::new(lut), Arc::new(grads))
}

/// The seeded synthetic CIFAR-10-like 3x16x16 dataset.
pub fn generate_data(seed: u64, parts: &mut SetupParts, tracer: &mut Tracer) -> SyntheticDataset {
    let config = DatasetConfig {
        seed,
        ..DatasetConfig::small(CLASSES, TRAIN_PER_CLASS, TEST_PER_CLASS)
    };
    debug_assert_eq!(config.hw, (IN_HW, IN_HW));
    let t = Instant::now();
    let data = tracer.time("data/SyntheticDataset::generate", None, || {
        SyntheticDataset::generate(&config)
    });
    parts.data_generate = ms_since(t);
    data
}

/// Model seed derived from the workload seed (the data uses the seed
/// itself).
pub fn model_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

/// The retraining loop: model, optimizer and a cycle of mini-batches.
pub struct Trainer {
    pub model: Sequential,
    opt: Adam,
    batches: Vec<(Tensor, Vec<usize>)>,
}

/// One step's loss and its phase times in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct StepTimes {
    pub loss: f32,
    pub forward: f64,
    pub loss_ms: f64,
    pub backward: f64,
    pub optim: f64,
    pub total: f64,
}

impl Trainer {
    pub fn new(
        model: Model,
        seed: u64,
        data: &SyntheticDataset,
        lut: &Arc<MultiplierLut>,
        grads: &Arc<GradientLut>,
        parts: &mut SetupParts,
        tracer: &mut Tracer,
    ) -> Self {
        let t = Instant::now();
        let net = tracer.time("models/build", None, || {
            build_model(model, model_seed(seed), lut, grads)
        });
        parts.model_build = ms_since(t);
        Self {
            model: net,
            opt: Adam::new(LR),
            batches: data.train_batches(BATCH),
        }
    }

    /// Runs retraining step `step` on mini-batch `step mod batches`:
    /// forward, softmax cross-entropy, backward, then the Adam update and
    /// gradient reset.
    pub fn step(&mut self, step: u64, tracer: &mut Tracer) -> StepTimes {
        let (x, labels) = &self.batches[step as usize % self.batches.len()];
        let t0 = Instant::now();
        let logits = self.model.forward(x, true);
        let t1 = Instant::now();
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        let t2 = Instant::now();
        self.model.backward(&grad);
        let t3 = Instant::now();
        self.opt.step(&mut self.model);
        self.model.zero_grad();
        let t4 = Instant::now();
        let root = tracer.record("step", t0, t4, None, Some(step));
        tracer.record("step/Module::forward", t0, t1, root, Some(step));
        tracer.record("step/softmax_cross_entropy", t1, t2, root, Some(step));
        tracer.record("step/Module::backward", t2, t3, root, Some(step));
        tracer.record("step/Optimizer::step", t3, t4, root, Some(step));
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        StepTimes {
            loss,
            forward: ms(t0, t1),
            loss_ms: ms(t1, t2),
            backward: ms(t2, t3),
            optim: ms(t3, t4),
            total: ms(t0, t4),
        }
    }
}
