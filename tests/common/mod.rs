//! The dense layer the root suites drive as a GEMM harness: the paper
//! approximates convolution multipliers only, so the one approximate layer
//! is [`ApproxConv2d`], and a fully connected GEMM is its 1×1 case.

use std::sync::Arc;

use appmult::mult::MultiplierLut;
use appmult::nn::layers::Conv2dSpec;
use appmult::nn::Tensor;
use appmult::retrain::{ApproxConv2d, GradientLut, QuantConfig};

/// The 1×1 [`ApproxConv2d`] with `[j, k]` weights: a dense layer over
/// `[m, k, 1, 1]` batches, whose NCHW output is the `[m, j]` GEMM result.
pub fn dense(
    weight: Tensor,
    bias: Tensor,
    lut: Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
    config: QuantConfig,
) -> ApproxConv2d {
    let &[out_channels, in_channels] = weight.shape() else {
        panic!("weight must be [out, in]");
    };
    let spec = Conv2dSpec {
        in_channels,
        out_channels,
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    ApproxConv2d::with_params(spec, weight, bias, lut, grads, config)
}
