//! The lookup counters perfbench's trace checks against its replayed MACs:
//! one forward plus backward of an approximate layer adds exactly `m·j·k`
//! product-LUT lookups and `2·m·j·k` gradient-LUT lookups (the `dX` and
//! `dW` halves), however the layer partitions its passes.
//!
//! This file holds a single test because it installs the process-wide
//! recording sink, which every layer in the process writes to.

use std::sync::Arc;

use appmult_mult::{Multiplier, TruncatedMultiplier};
use appmult_nn::layers::Conv2dSpec;
use appmult_nn::{Module, Tensor};
use appmult_retrain::{ApproxConv2d, ApproxLinear, GradientLut, GradientMode, QuantConfig};

fn ramp(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| ((i * 37) % 29) as f32 / 29.0 - 0.45)
            .collect(),
        shape,
    )
}

#[test]
fn one_step_counts_m_j_k_product_and_2_m_j_k_gradient_lookups() {
    let lut = Arc::new(TruncatedMultiplier::new(6, 4).to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(4)));
    let obs = appmult_obs::ObsSink::recording();
    appmult_obs::set_global(&obs);
    let mut expected = 0;
    let mut check = |layer: &mut dyn Module, x: &Tensor, g: &Tensor, mjk: u64| {
        layer.forward(x, true);
        layer.backward(g);
        expected += mjk;
        assert_eq!(obs.counter("lut.lookups"), expected);
        assert_eq!(obs.counter("gradlut.lookups"), 2 * expected);
    };

    // LeNet conv1 at a batch of 5: large enough that every pass fans out.
    let spec = Conv2dSpec {
        in_channels: 3,
        out_channels: 6,
        kernel: 5,
        stride: 1,
        padding: 0,
    };
    let mut conv = ApproxConv2d::with_params(
        spec,
        ramp(&[6, spec.patch_len()]),
        Tensor::zeros(&[6]),
        lut.clone(),
        grads.clone(),
        QuantConfig::default(),
    );
    let (m, j, k) = (5 * 12 * 12, 6, spec.patch_len());
    let mjk = (m * j * k) as u64;
    check(
        &mut conv,
        &ramp(&[5, 3, 16, 16]),
        &ramp(&[5, 6, 12, 12]),
        mjk,
    );

    // A padded, strided conv and a linear layer.
    let spec = Conv2dSpec {
        in_channels: 2,
        out_channels: 3,
        kernel: 3,
        stride: 2,
        padding: 1,
    };
    let mut conv = ApproxConv2d::with_params(
        spec,
        ramp(&[3, spec.patch_len()]),
        Tensor::zeros(&[3]),
        lut.clone(),
        grads.clone(),
        QuantConfig::default(),
    );
    let mjk = (3 * 4 * 4 * 3 * spec.patch_len()) as u64;
    check(&mut conv, &ramp(&[3, 2, 7, 8]), &ramp(&[3, 3, 4, 4]), mjk);
    let mut linear = ApproxLinear::new(10, 4, 1, lut, grads, QuantConfig::default());
    check(&mut linear, &ramp(&[6, 10]), &ramp(&[6, 4]), 6 * 4 * 10);

    appmult_obs::set_global(&appmult_obs::ObsSink::null());
}
