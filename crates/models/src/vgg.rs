//! VGG models with batch normalization (CIFAR stems).

use appmult_nn::layers::{BatchNorm2d, Dropout, Flatten, Linear, MaxPool2d, Relu, Sequential};

use crate::builder::ModelConfig;

/// Architecture depth of a VGG model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VggDepth {
    /// VGG-11 (8 conv layers).
    V11,
    /// VGG-16 (13 conv layers).
    V16,
    /// VGG-19 (16 conv layers) — the model of Table II (top).
    V19,
    /// A 6-conv, 3-stage scaled-down variant for CPU-scale experiments.
    Small,
}

/// `Some(width)` = 3x3 conv with BN + ReLU; `None` = 2x2 max pool.
fn plan(depth: VggDepth) -> Vec<Option<usize>> {
    let cfg: &[usize] = match depth {
        VggDepth::V11 => &[64, 0, 128, 0, 256, 256, 0, 512, 512, 0, 512, 512, 0],
        VggDepth::V16 => &[
            64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512, 0, 512, 512, 512, 0,
        ],
        VggDepth::V19 => &[
            64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512, 512, 512, 0, 512, 512, 512,
            512, 0,
        ],
        VggDepth::Small => &[32, 32, 0, 64, 64, 0, 128, 128, 0],
    };
    cfg.iter()
        .map(|&v| if v == 0 { None } else { Some(v) })
        .collect()
}

/// Builds a VGG network for the given depth and configuration.
///
/// Convolutions are 3x3 stride-1 "same"; each is followed by batch norm
/// and ReLU (the standard CIFAR recipe). The classifier is a single linear
/// layer after dropout, acting on the globally pooled-down feature map.
///
/// The network is a [`Sequential::network`]: its input is the data batch,
/// so `backward` accumulates parameter gradients only (the stem conv
/// skips its input gradient) and returns a 0-element tensor.
///
/// # Panics
///
/// Panics if the input is too small for the architecture's pooling stages.
///
/// # Example
///
/// ```
/// use appmult_models::{vgg, ModelConfig, VggDepth};
/// use appmult_nn::{Module, Tensor};
///
/// let mut net = vgg(VggDepth::Small, &ModelConfig::quick_test());
/// let y = net.forward(&Tensor::zeros(&[1, 3, 16, 16]), false);
/// assert_eq!(y.shape(), &[1, 10]);
/// ```
pub fn vgg(depth: VggDepth, config: &ModelConfig) -> Sequential {
    let plan = plan(depth);
    let (mut h, mut w) = config.input_hw;
    let mut channels = config.input_channels;
    let mut seed = config.seed;
    let mut net = Sequential::network();
    for step in plan {
        match step {
            Some(base) => {
                let out = config.width(base);
                net.push_boxed(config.conv.conv(channels, out, 3, 1, 1, seed));
                net.push_boxed(Box::new(BatchNorm2d::new(out)));
                net.push_boxed(Box::new(Relu::new()));
                channels = out;
                seed += 1;
            }
            None => {
                assert!(h >= 2 && w >= 2, "input too small for VGG pooling");
                net.push_boxed(Box::new(MaxPool2d::new(2, 2)));
                h /= 2;
                w /= 2;
            }
        }
    }
    net.push(Flatten::new())
        .push(Dropout::new(0.2, seed))
        .push(Linear::new(channels * h * w, config.num_classes, seed + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_nn::{Module, Tensor};

    #[test]
    fn vgg19_has_16_conv_layers() {
        let convs = plan(VggDepth::V19).iter().filter(|s| s.is_some()).count();
        assert_eq!(convs, 16);
        assert_eq!(
            plan(VggDepth::V16).iter().filter(|s| s.is_some()).count(),
            13
        );
        assert_eq!(
            plan(VggDepth::V11).iter().filter(|s| s.is_some()).count(),
            8
        );
    }

    #[test]
    fn small_vgg_forward_backward() {
        let mut net = vgg(VggDepth::Small, &ModelConfig::quick_test());
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 10]);
        let g = net.backward(&Tensor::full(&[2, 10], 0.1));
        assert!(g.is_empty(), "{:?}", g.shape());
    }

    #[test]
    fn vgg19_paper_scale_param_count() {
        // VGG-19 with BN on CIFAR-10 has ~20M parameters; the thin variant
        // here divides widths by width_div.
        let cfg = ModelConfig {
            width_div: 8,
            ..ModelConfig::cifar10()
        };
        let mut net = vgg(VggDepth::V19, &cfg);
        let n = net.num_params();
        assert!(n > 100_000 && n < 1_000_000, "{n}");
    }

    #[test]
    fn width_div_one_matches_canonical_vgg_small_classifier() {
        let cfg = ModelConfig::cifar10();
        let mut net = vgg(VggDepth::V11, &cfg);
        // 8 convs * (conv w + conv b + bn gamma + bn beta) + linear w+b
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 8 * 4 + 2);
    }
}
