//! ResNet models (CIFAR stems) with basic and bottleneck blocks.

use appmult_nn::layers::{BatchNorm2d, Flatten, GlobalAvgPool, Linear, Relu, Residual, Sequential};

use crate::builder::ModelConfig;

/// Architecture depth of a ResNet model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResNetDepth {
    /// A 10-layer basic-block variant for CPU-scale experiments.
    R10,
    /// ResNet-18 — the model of Table II (bottom) and Fig. 5.
    R18,
    /// ResNet-34 — Fig. 6(a).
    R34,
    /// ResNet-50 (bottleneck blocks) — Fig. 6(b).
    R50,
}

impl ResNetDepth {
    /// `(blocks per stage, uses bottleneck blocks)`.
    fn layout(self) -> ([usize; 4], bool) {
        match self {
            ResNetDepth::R10 => ([1, 1, 1, 1], false),
            ResNetDepth::R18 => ([2, 2, 2, 2], false),
            ResNetDepth::R34 => ([3, 4, 6, 3], false),
            ResNetDepth::R50 => ([3, 4, 6, 3], true),
        }
    }
}

/// Builds a CIFAR-style ResNet: 3x3 stem, four stages with strides
/// `[1, 2, 2, 2]`, global average pooling, and a linear classifier.
///
/// Basic blocks are `conv3x3-BN-ReLU-conv3x3-BN` with identity/projection
/// shortcuts; bottleneck blocks are `1x1 - 3x3 - 1x1` with expansion 4
/// (ResNet-50).
///
/// The network is a [`Sequential::network`]: its input is the data batch,
/// so `backward` accumulates parameter gradients only (the stem conv
/// skips its input gradient) and returns a 0-element tensor.
///
/// # Example
///
/// ```
/// use appmult_models::{resnet, ModelConfig, ResNetDepth};
/// use appmult_nn::{Module, Tensor};
///
/// let mut net = resnet(ResNetDepth::R10, &ModelConfig::quick_test());
/// let y = net.forward(&Tensor::zeros(&[1, 3, 16, 16]), false);
/// assert_eq!(y.shape(), &[1, 10]);
/// ```
pub fn resnet(depth: ResNetDepth, config: &ModelConfig) -> Sequential {
    let ([n1, n2, n3, n4], bottleneck) = depth.layout();
    let widths = [
        config.width(64),
        config.width(128),
        config.width(256),
        config.width(512),
    ];
    let expansion = if bottleneck { 4 } else { 1 };
    let mut seed = config.seed;

    let mut net = Sequential::network();
    // Stem: conv3x3 + BN + ReLU (no max pool on CIFAR-sized inputs).
    net.push_boxed(
        config
            .conv
            .conv(config.input_channels, widths[0], 3, 1, 1, seed),
    );
    net.push_boxed(Box::new(BatchNorm2d::new(widths[0])));
    net.push_boxed(Box::new(Relu::new()));
    seed += 1;

    let mut in_c = widths[0];
    for (stage, (&width, &blocks)) in widths.iter().zip(&[n1, n2, n3, n4]).enumerate() {
        let stride = if stage == 0 { 1 } else { 2 };
        for b in 0..blocks {
            let s = if b == 0 { stride } else { 1 };
            let out_c = width * expansion;
            let block = if bottleneck {
                bottleneck_block(config, in_c, width, out_c, s, &mut seed)
            } else {
                basic_block(config, in_c, out_c, s, &mut seed)
            };
            net.push_boxed(Box::new(block));
            in_c = out_c;
        }
    }
    net.push(GlobalAvgPool::new())
        .push(Flatten::new())
        .push(Linear::new(in_c, config.num_classes, seed))
}

fn basic_block(
    config: &ModelConfig,
    in_c: usize,
    out_c: usize,
    stride: usize,
    seed: &mut u64,
) -> Residual {
    let mut main = Sequential::new();
    main.push_boxed(config.conv.conv(in_c, out_c, 3, stride, 1, *seed));
    main.push_boxed(Box::new(BatchNorm2d::new(out_c)));
    main.push_boxed(Box::new(Relu::new()));
    main.push_boxed(config.conv.conv(out_c, out_c, 3, 1, 1, *seed + 1));
    main.push_boxed(Box::new(BatchNorm2d::new(out_c)));
    *seed += 2;
    attach_shortcut(config, main, in_c, out_c, stride, seed)
}

fn bottleneck_block(
    config: &ModelConfig,
    in_c: usize,
    mid_c: usize,
    out_c: usize,
    stride: usize,
    seed: &mut u64,
) -> Residual {
    let mut main = Sequential::new();
    main.push_boxed(config.conv.conv(in_c, mid_c, 1, 1, 0, *seed));
    main.push_boxed(Box::new(BatchNorm2d::new(mid_c)));
    main.push_boxed(Box::new(Relu::new()));
    main.push_boxed(config.conv.conv(mid_c, mid_c, 3, stride, 1, *seed + 1));
    main.push_boxed(Box::new(BatchNorm2d::new(mid_c)));
    main.push_boxed(Box::new(Relu::new()));
    main.push_boxed(config.conv.conv(mid_c, out_c, 1, 1, 0, *seed + 2));
    main.push_boxed(Box::new(BatchNorm2d::new(out_c)));
    *seed += 3;
    attach_shortcut(config, main, in_c, out_c, stride, seed)
}

fn attach_shortcut(
    config: &ModelConfig,
    main: Sequential,
    in_c: usize,
    out_c: usize,
    stride: usize,
    seed: &mut u64,
) -> Residual {
    if stride == 1 && in_c == out_c {
        Residual::new(main)
    } else {
        let mut proj = Sequential::new();
        proj.push_boxed(config.conv.conv(in_c, out_c, 1, stride, 0, *seed));
        proj.push_boxed(Box::new(BatchNorm2d::new(out_c)));
        *seed += 1;
        Residual::with_projection(main, proj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_nn::{Module, Tensor};

    #[test]
    fn r10_forward_backward_shapes() {
        let mut net = resnet(ResNetDepth::R10, &ModelConfig::quick_test());
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 10]);
        let g = net.backward(&Tensor::full(&[2, 10], 0.05));
        assert!(g.is_empty(), "{:?}", g.shape());
    }

    #[test]
    fn r18_parameter_count_at_paper_scale() {
        // CIFAR ResNet-18 is ~11.2M parameters.
        let mut net = resnet(ResNetDepth::R18, &ModelConfig::cifar10());
        let n = net.num_params();
        assert!(n > 10_000_000 && n < 12_500_000, "{n}");
    }

    #[test]
    fn r50_uses_bottleneck_expansion() {
        let cfg = ModelConfig {
            width_div: 8,
            ..ModelConfig::quick_test()
        };
        let mut net50 = resnet(ResNetDepth::R50, &cfg);
        let mut net34 = resnet(ResNetDepth::R34, &cfg);
        // Same stage layout but expansion-4 output widths => more params.
        assert!(net50.num_params() > net34.num_params());
    }

    #[test]
    fn deeper_resnets_have_more_params() {
        let cfg = ModelConfig {
            width_div: 8,
            ..ModelConfig::quick_test()
        };
        let mut a = resnet(ResNetDepth::R10, &cfg);
        let mut b = resnet(ResNetDepth::R18, &cfg);
        let mut c = resnet(ResNetDepth::R34, &cfg);
        assert!(a.num_params() < b.num_params());
        assert!(b.num_params() < c.num_params());
    }

    #[test]
    fn stride_two_stages_reduce_spatial_size() {
        // 16x16 input with 3 stride-2 stages -> 2x2 before GAP; the model
        // must still produce the right logits shape.
        let mut net = resnet(ResNetDepth::R10, &ModelConfig::quick_test());
        let y = net.forward(&Tensor::zeros(&[1, 3, 16, 16]), false);
        assert_eq!(y.shape(), &[1, 10]);
    }
}
