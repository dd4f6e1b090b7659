//! A whole network's `backward` computes parameter gradients only: the
//! stem layer takes the data batch, so it skips its input gradient (a
//! conv's Eq. 9 `dX` pass and col2im). Nothing any parameter gradient
//! depends on is skipped, so over several Adam steps every parameter
//! gradient and every parameter must stay bit-identical to the same
//! layers chained with [`Sequential::new`], whose `backward` runs in full.
//!
//! Covers LeNet, VGG-S and ResNet-10 at `ModelConfig::quick_test` scale
//! (ResNet-10 at half its widths), accurate convs and approximate ones
//! under both GEMM kernels and both gradient rules, at 1 and 4 pool
//! threads. This file holds a single test because it installs the
//! process-wide kernel and thread overrides.

use std::sync::Arc;

use appmult::kernels::{set_global_kernel, Kernel};
use appmult::models::{lenet5, resnet, vgg, ConvMode, ModelConfig, ResNetDepth, VggDepth};
use appmult::mult::{zoo, Multiplier};
use appmult::nn::layers::Sequential;
use appmult::nn::loss::softmax_cross_entropy;
use appmult::nn::optim::{Adam, Optimizer};
use appmult::nn::{Module, Tensor};
use appmult::retrain::{GradientLut, GradientMode};

const STEPS: usize = 3;
const BATCH: usize = 2;

/// A deterministic `[BATCH, 3, 16, 16]` batch and its labels, different
/// at every step.
fn batch(step: usize) -> (Tensor, Vec<usize>) {
    let n = BATCH * 3 * 16 * 16;
    let x = (0..n)
        .map(|i| ((i * 37 + step * 11) % 29) as f32 / 14.0 - 1.0)
        .collect();
    let labels = (0..BATCH).map(|i| (i + step) % 10).collect();
    (Tensor::from_vec(x, &[BATCH, 3, 16, 16]), labels)
}

fn bits(model: &mut dyn Module, grad: bool) -> Vec<Vec<u32>> {
    let mut out = vec![];
    model.visit_params(&mut |p| {
        let t = if grad { &p.grad } else { &p.value };
        out.push(t.as_slice().iter().map(|v| v.to_bits()).collect());
    });
    out
}

/// Trains the network `build` returns and the same layers in an unmarked
/// chain side by side, checking parameter gradients and parameters after
/// every step.
fn check(label: &str, build: &dyn Fn() -> Sequential) {
    let mut marked = build();
    let mut full = Sequential::new();
    for layer in build().into_layers() {
        full.push_boxed(layer);
    }
    let (mut opt_marked, mut opt_full) = (Adam::new(1e-2), Adam::new(1e-2));
    for step in 0..STEPS {
        let (x, labels) = batch(step);
        let (_, g_marked) = softmax_cross_entropy(&marked.forward(&x, true), &labels);
        let (_, g_full) = softmax_cross_entropy(&full.forward(&x, true), &labels);
        assert!(marked.backward(&g_marked).is_empty(), "{label}");
        assert_eq!(full.backward(&g_full).shape(), x.shape(), "{label}");
        let grads = bits(&mut marked, true);
        assert!(
            grads.iter().flatten().any(|&b| b != 0),
            "{label}: no gradient"
        );
        assert_eq!(
            grads,
            bits(&mut full, true),
            "{label}: gradients at step {step}"
        );
        opt_marked.step(&mut marked);
        opt_full.step(&mut full);
        marked.zero_grad();
        full.zero_grad();
        assert_eq!(
            bits(&mut marked, false),
            bits(&mut full, false),
            "{label}: parameters after step {step}"
        );
    }
}

#[test]
fn a_whole_network_backward_keeps_every_parameter_gradient_bit_for_bit() {
    let lut = Arc::new(zoo::mul6u_rm4().to_lut());
    let mut modes = vec![("accurate".to_string(), None, ConvMode::Accurate)];
    for kernel in [Kernel::Tiled, Kernel::Naive] {
        for grad in [GradientMode::Ste, GradientMode::difference_based(2)] {
            let grads = Arc::new(GradientLut::build(&lut, grad));
            let label = format!("{}/{}", kernel.label(), grads.mode_label());
            modes.push((
                label,
                Some(kernel),
                ConvMode::approximate(lut.clone(), grads),
            ));
        }
    }
    for threads in [1, 4] {
        appmult_pool::set_global_threads(threads);
        for (mode, kernel, conv) in &modes {
            // Layers read the kernel override when they are built.
            set_global_kernel(*kernel);
            let cfg = ModelConfig::quick_test().with_conv(conv.clone());
            let at = |model: &str| format!("{model} {mode} @{threads}");
            check(&at("lenet"), &|| lenet5(&cfg));
            check(&at("vgg-s"), &|| vgg(VggDepth::Small, &cfg));
            // ResNet-10 at half of `quick_test`'s widths, which holds its
            // structure (projection shortcuts, stride-2 convs) and quarters
            // its cost in a debug build.
            let thin = ModelConfig {
                width_div: 8,
                ..cfg.clone()
            };
            check(&at("resnet-10"), &|| resnet(ResNetDepth::R10, &thin));
        }
    }
    set_global_kernel(None);
    appmult_pool::set_global_threads(0);
}
