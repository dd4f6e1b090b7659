//! The benchmark's workloads and its own copy of each model's conv
//! layout, used by the per-layer replay. The traced run checks the copy
//! against `appmult-models` by comparing replayed MACs with the lookup
//! counters of the real model, so the two cannot drift apart silently.

use std::sync::Arc;

use appmult_models::{lenet5, resnet, vgg, ConvMode, ModelConfig, ResNetDepth, VggDepth};
use appmult_mult::MultiplierLut;
use appmult_nn::layers::{Conv2dSpec, Sequential};
use appmult_retrain::GradientLut;

/// Input channels and spatial size of the synthetic CIFAR-10-like images.
pub const IN_CHANNELS: usize = 3;
pub const IN_HW: usize = 16;
/// Classes of the synthetic task.
pub const CLASSES: usize = 10;
/// Retraining mini-batch size.
pub const BATCH: usize = 32;
/// Channel-width divisor applied to every model.
const WIDTH_DIV: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    ResNet10,
    LeNet,
    VggSmall,
}

impl Model {
    /// Prefix of the model's layer-instance names.
    pub fn label(self) -> &'static str {
        match self {
            Model::ResNet10 => "resnet10",
            Model::LeNet => "lenet",
            Model::VggSmall => "vggs",
        }
    }
}

/// What the timed phase of a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Back-to-back retraining steps.
    Retrain,
    /// A closed loop of single-image requests through the serving engine.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: Model,
    /// Table I name of the multiplier (`appmult_mult::zoo::entry`).
    pub multiplier: &'static str,
    pub drive: Drive,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "retrain_resnet10",
        model: Model::ResNet10,
        multiplier: "mul8u_2NDH",
        drive: Drive::Retrain,
    },
    Workload {
        name: "retrain_lenet",
        model: Model::LeNet,
        multiplier: "mul6u_rm4",
        drive: Drive::Retrain,
    },
    Workload {
        name: "serve_vggs",
        model: Model::VggSmall,
        multiplier: "mul7u_rm6",
        drive: Drive::Serve,
    },
];

/// Builds the workload's model from `appmult-models`, with approximate
/// convolutions driven by `lut` / `grads` and weights seeded by `seed`.
pub fn build_model(
    model: Model,
    seed: u64,
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
) -> Sequential {
    let config = ModelConfig {
        num_classes: CLASSES,
        input_channels: IN_CHANNELS,
        input_hw: (IN_HW, IN_HW),
        width_div: WIDTH_DIV,
        seed,
        conv: ConvMode::approximate(Arc::clone(lut), Arc::clone(grads)),
    };
    match model {
        Model::ResNet10 => resnet(ResNetDepth::R10, &config),
        Model::LeNet => lenet5(&config),
        Model::VggSmall => vgg(VggDepth::Small, &config),
    }
}

/// One approximate conv layer of a model: its instance name, shape and
/// per-sample input size `(channels, height, width)`.
#[derive(Debug, Clone)]
pub struct ConvInstance {
    pub name: String,
    pub spec: Conv2dSpec,
    pub in_chw: (usize, usize, usize),
}

impl ConvInstance {
    /// GEMM dimensions `(M, J, K)` for a batch of `batch` samples.
    pub fn gemm_dims(&self, batch: usize) -> (usize, usize, usize) {
        let (oh, ow) = self.out_hw();
        (
            batch * oh * ow,
            self.spec.out_channels,
            self.spec.patch_len(),
        )
    }

    /// Spatial output size.
    pub fn out_hw(&self) -> (usize, usize) {
        self.spec.out_hw(self.in_chw.1, self.in_chw.2)
    }
}

fn width(base: usize) -> usize {
    (base / WIDTH_DIV).max(4)
}

fn conv(
    name: String,
    in_c: usize,
    out_c: usize,
    k: usize,
    s: usize,
    p: usize,
    hw: usize,
) -> ConvInstance {
    ConvInstance {
        name,
        spec: Conv2dSpec {
            in_channels: in_c,
            out_channels: out_c,
            kernel: k,
            stride: s,
            padding: p,
        },
        in_chw: (in_c, hw, hw),
    }
}

/// Every approximate conv of `model`, in forward order, mirroring the
/// layouts in `appmult-models` at this benchmark's configuration.
pub fn conv_instances(model: Model) -> Vec<ConvInstance> {
    let tag = model.label();
    match model {
        Model::ResNet10 => {
            let widths = [width(64), width(128), width(256), width(512)];
            let mut out = vec![conv(
                format!("{tag}/conv1"),
                IN_CHANNELS,
                widths[0],
                3,
                1,
                1,
                IN_HW,
            )];
            let (mut in_c, mut hw) = (widths[0], IN_HW);
            for (stage, &w) in widths.iter().enumerate() {
                let stride = if stage == 0 { 1 } else { 2 };
                let block = format!("{tag}/layer{}.0", stage + 1);
                let out_hw = (hw + 2 - 3) / stride + 1;
                out.push(conv(format!("{block}/conv1"), in_c, w, 3, stride, 1, hw));
                out.push(conv(format!("{block}/conv2"), w, w, 3, 1, 1, out_hw));
                if stride != 1 || in_c != w {
                    out.push(conv(format!("{block}/shortcut"), in_c, w, 1, stride, 0, hw));
                }
                in_c = w;
                hw = out_hw;
            }
            out
        }
        Model::LeNet => {
            let (c1, c2) = (6.max(width(6)), 16.max(width(16)));
            let hw2 = (IN_HW - 4) / 2;
            vec![
                conv(format!("{tag}/conv1"), IN_CHANNELS, c1, 5, 1, 0, IN_HW),
                conv(format!("{tag}/conv2"), c1, c2, 5, 1, 0, hw2),
            ]
        }
        Model::VggSmall => {
            let mut out = Vec::new();
            let (mut in_c, mut hw) = (IN_CHANNELS, IN_HW);
            for (stage, base) in [32usize, 64, 128].into_iter().enumerate() {
                for i in 0..2 {
                    let w = width(base);
                    out.push(conv(
                        format!("{tag}/stage{}/conv{}", stage + 1, i + 1),
                        in_c,
                        w,
                        3,
                        1,
                        1,
                        hw,
                    ));
                    in_c = w;
                }
                hw /= 2;
            }
            out
        }
    }
}

/// Nominal MACs of one forward pass over a batch of `batch` samples.
pub fn forward_macs(instances: &[ConvInstance], batch: usize) -> u64 {
    instances
        .iter()
        .map(|c| {
            let (m, j, k) = c.gemm_dims(batch);
            (m * j * k) as u64
        })
        .sum()
}
