//! LeNet-5 (used by the paper's HWS-selection proxy runs, Sec. V-A).

use appmult_nn::layers::{Flatten, Linear, MaxPool2d, Relu, Sequential};

use crate::builder::ModelConfig;

/// Builds a LeNet-5-style network: two 5x5 convolution + pool stages
/// followed by a three-layer classifier.
///
/// The network is a [`Sequential::network`]: its input is the data batch,
/// so `backward` accumulates parameter gradients only (the stem conv
/// skips its input gradient) and returns a 0-element tensor.
///
/// The input must be at least 16x16 so both pooling stages have work to do.
///
/// # Panics
///
/// Panics if the configured input is smaller than 16x16.
///
/// # Example
///
/// ```
/// use appmult_models::{lenet5, ModelConfig};
/// use appmult_nn::{Module, Tensor};
///
/// let mut model = lenet5(&ModelConfig::cifar10());
/// let logits = model.forward(&Tensor::zeros(&[1, 3, 32, 32]), false);
/// assert_eq!(logits.shape(), &[1, 10]);
/// ```
pub fn lenet5(config: &ModelConfig) -> Sequential {
    let (h, w) = config.input_hw;
    assert!(h >= 16 && w >= 16, "LeNet needs at least 16x16 inputs");
    let c1 = 6.max(config.width(6));
    let c2 = 16.max(config.width(16));
    let seed = config.seed;

    // Spatial bookkeeping: conv 5x5 (valid) then 2x2 pool, twice.
    let (h1, w1) = ((h - 4) / 2, (w - 4) / 2);
    let (h2, w2) = ((h1 - 4) / 2, (w1 - 4) / 2);
    let flat = c2 * h2 * w2;

    let mut net = Sequential::network();
    net.push_boxed(config.conv.conv(config.input_channels, c1, 5, 1, 0, seed));
    net = net.push(Relu::new()).push(MaxPool2d::new(2, 2));
    net.push_boxed(config.conv.conv(c1, c2, 5, 1, 0, seed + 1));
    net.push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Linear::new(flat, 120.max(config.width(120)), seed + 2))
        .push(Relu::new())
        .push(Linear::new(
            120.max(config.width(120)),
            84.max(config.width(84)),
            seed + 3,
        ))
        .push(Relu::new())
        .push(Linear::new(
            84.max(config.width(84)),
            config.num_classes,
            seed + 4,
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_nn::{Module, Tensor};

    #[test]
    fn forward_shape_cifar() {
        let mut m = lenet5(&ModelConfig::cifar10());
        let y = m.forward(&Tensor::zeros(&[2, 3, 32, 32]), true);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn forward_shape_small_inputs() {
        let mut m = lenet5(&ModelConfig::quick_test());
        let y = m.forward(&Tensor::zeros(&[1, 3, 16, 16]), true);
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn backward_returns_no_input_gradient() {
        let mut m = lenet5(&ModelConfig::quick_test());
        let y = m.forward(&Tensor::zeros(&[1, 3, 16, 16]), true);
        let g = m.backward(&Tensor::full(y.shape(), 0.1));
        assert!(g.is_empty(), "{:?}", g.shape());
    }

    #[test]
    fn classic_lenet_has_classic_param_count_order() {
        let mut m = lenet5(&ModelConfig::cifar10());
        let n = m.num_params();
        // CIFAR LeNet-5 is ~100k params (62k for MNIST + RGB stem).
        assert!(n > 30_000 && n < 300_000, "{n}");
    }

    #[test]
    #[should_panic(expected = "at least 16x16")]
    fn rejects_tiny_inputs() {
        let cfg = ModelConfig {
            input_hw: (8, 8),
            ..ModelConfig::cifar10()
        };
        lenet5(&cfg);
    }
}
