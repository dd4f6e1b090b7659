//! The lookup counters perfbench's trace checks against its replayed MACs:
//! one forward plus backward of an approximate layer adds exactly `m·j·k`
//! product-LUT lookups and `2·m·j·k` gradient-LUT lookups (the `dX` and
//! `dW` halves), however the layer partitions its passes and whether its
//! forward reads a row table (`kernel.row_tables` counts those built,
//! `kernel.row_table_refusals` those the size cap or a guard refused).
//! `gradlut.live_lookups` counts the gradient lookups actually made: both
//! Eq. 9 halves skip a zero output gradient for its whole `K` row, so it
//! is `2·K` per nonzero entry of the output gradient, and `K` for a
//! params-only backward (a network's stem), which skips the `dX` half but
//! still counts it in `gradlut.lookups`. `lut.live_lookups`
//! counts the product lookups left once code-0 terms are dropped: `J` per
//! nonzero activation code, whichever loop the forward runs.
//!
//! An eval forward builds its row table on the first batch, whatever its
//! size, and eval forwards on unchanged weights build or refuse no
//! further row table: the layer keeps its weight side, tables included.
//!
//! This file holds a single test because it installs the process-wide
//! recording sink, which every layer in the process writes to.

use std::sync::Arc;

use appmult_mult::{Multiplier, TruncatedMultiplier};
use appmult_nn::layers::{im2col, Conv2dSpec};
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

/// [`ramp`] with its negative entries set to 0, as behind a ReLU. Its
/// range starts at 0, so the unsigned zero point is 0: each 0 quantizes
/// to code 0 and each positive entry (at least 1/29 − 0.45 ≈ 0.033, 6%
/// of the largest) to a nonzero code.
fn relu_ramp(shape: &[usize]) -> Tensor {
    let mut x = ramp(shape);
    x.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
    x
}

fn nonzeros(t: &Tensor) -> u64 {
    t.as_slice().iter().filter(|&&v| v != 0.0).count() as u64
}

#[test]
fn one_step_counts_m_j_k_product_and_2_m_j_k_gradient_lookups() {
    let lut = Arc::new(TruncatedMultiplier::new(6, 4).to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(4)));
    let obs = appmult_obs::ObsSink::recording();
    appmult_obs::set_global(&obs);
    let (mut expected, mut tables, mut live, mut live_fwd) = (0, 0, 0, 0);
    // `patches` is the layer's `[M, K]` operand in f32: its zeros are the
    // activations that quantize to code 0.
    let mut check =
        |layer: &mut dyn Module, x: &Tensor, patches: &Tensor, g: &Tensor, mjk, built| {
            layer.forward(x, true);
            layer.backward(g);
            expected += mjk;
            tables += built;
            live += 2 * mjk / g.len() as u64 * nonzeros(g);
            live_fwd += mjk / patches.len() as u64 * nonzeros(patches);
            assert_eq!(obs.counter("lut.lookups"), expected);
            assert_eq!(obs.counter("lut.live_lookups"), live_fwd);
            assert_eq!(obs.counter("gradlut.lookups"), 2 * expected);
            assert_eq!(obs.counter("gradlut.live_lookups"), live);
            assert_eq!(obs.counter("kernel.row_tables"), tables);
            assert_eq!(obs.counter("kernel.row_table_refusals"), 0);
        };

    // LeNet's two convs at a batch of 32 on 16x16 inputs, 6-bit codes.
    // conv1's forward GEMM (M = 32·12·12 = 4608 ≥ 8·2^6 rows) builds one
    // row table for all of its pool blocks; conv2's (M = 32·2·2 = 128)
    // builds none. Either way the nominal m·j·k lookups are counted.
    let lenet_conv = |in_channels, out_channels| {
        let spec = Conv2dSpec {
            in_channels,
            out_channels,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        let conv = ApproxConv2d::with_params(
            spec,
            ramp(&[out_channels, spec.patch_len()]),
            Tensor::zeros(&[out_channels]),
            lut.clone(),
            grads.clone(),
            QuantConfig::default(),
        );
        (conv, spec)
    };
    // The inputs are ReLU ramps, 48% zeros, so conv2's forward reaches
    // the hoisted-row loop's zero-code skip; `lut.live_lookups` counts the
    // same either way.
    let (mut conv1, spec1) = lenet_conv(3, 6);
    let mjk = (32 * 12 * 12 * 6 * spec1.patch_len()) as u64;
    let (x, g) = (relu_ramp(&[32, 3, 16, 16]), ramp(&[32, 6, 12, 12]));
    check(&mut conv1, &x, &im2col(&x, &spec1), &g, mjk, 1);
    let (mut conv2, spec2) = lenet_conv(6, 16);
    let mjk = (32 * 2 * 2 * 16 * spec2.patch_len()) as u64;
    let x = relu_ramp(&[32, 6, 6, 6]);
    let patches = im2col(&x, &spec2);
    check(&mut conv2, &x, &patches, &ramp(&[32, 16, 2, 2]), mjk, 0);

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
    let x = relu_ramp(&[3, 2, 7, 8]);
    check(
        &mut conv,
        &x,
        &im2col(&x, &spec),
        &ramp(&[3, 3, 4, 4]),
        mjk,
        0,
    );
    let mut linear =
        ApproxLinear::new(10, 4, 1, lut.clone(), grads.clone(), QuantConfig::default());
    let x = relu_ramp(&[6, 10]);
    check(&mut linear, &x, &x, &ramp(&[6, 4]), 6 * 4 * 10, 0);

    // An input with known zero codes: 20 of its 60 entries are 0.0 and
    // the rest at least 0.05 (5% of the largest), so 40 codes are nonzero
    // and the forward makes 4·40 = 160 of its 240 nominal lookups.
    let mut x = ramp(&[6, 10]);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = if i % 3 == 0 { 0.0 } else { *v + 0.5 };
    }
    let before = obs.counter("lut.live_lookups");
    check(&mut linear, &x, &x, &ramp(&[6, 4]), 6 * 4 * 10, 0);
    assert_eq!(obs.counter("lut.live_lookups") - before, 160);

    // A gradient with known zeros: 8 of its 24 entries are 0.0 and one is
    // -0.0, so 15 are live and the step makes 2·10·15 = 300 of its 480
    // nominal gradient lookups. (The ramps above have no zeros.)
    let mut g = ramp(&[6, 4]).as_slice().to_vec();
    for (i, v) in g.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        }
    }
    g[1] = -0.0;
    let before = obs.counter("gradlut.live_lookups");
    check(
        &mut linear,
        &x,
        &x,
        &Tensor::from_vec(g, &[6, 4]),
        6 * 4 * 10,
        0,
    );
    assert_eq!(obs.counter("gradlut.live_lookups") - before, 300);

    // A params-only backward, as a network's stem runs, makes the `dW`
    // half alone: the nominal count stays 2·m·j·k, the live count is `K`
    // per nonzero entry of the output gradient.
    let (mut conv1, spec1) = lenet_conv(3, 6);
    let mjk = (32 * 12 * 12 * 6 * spec1.patch_len()) as u64;
    let g = ramp(&[32, 6, 12, 12]);
    let (nominal, made) = (
        obs.counter("gradlut.lookups"),
        obs.counter("gradlut.live_lookups"),
    );
    conv1.forward(&relu_ramp(&[32, 3, 16, 16]), true);
    conv1.backward_params(&g);
    assert_eq!(obs.counter("gradlut.lookups") - nominal, 2 * mjk);
    assert_eq!(
        obs.counter("gradlut.live_lookups") - made,
        spec1.patch_len() as u64 * nonzeros(&g)
    );

    // One image of LeNet conv1 is 144 rows, below a train forward's rows
    // rule of 8·2^6 = 512: a train forward builds no row table, while a
    // first eval forward, whose table serves every later batch, builds
    // exactly one.
    let (big, small) = (relu_ramp(&[32, 3, 16, 16]), relu_ramp(&[1, 3, 16, 16]));
    let (mut conv1, _) = lenet_conv(3, 6);
    let tables = obs.counter("kernel.row_tables");
    conv1.forward(&small, true);
    assert_eq!(obs.counter("kernel.row_tables"), tables, "train, 1 image");
    conv1.forward(&small, false);
    assert_eq!(
        obs.counter("kernel.row_tables"),
        tables + 1,
        "eval, 1 image"
    );

    // Eval forwards keep the weight side: after the first, more eval
    // forwards on unchanged weights, at 32 images and 1 image (4608 and
    // 144 rows), build no row table and leave the weight side alone. A
    // weight write makes the next forward rebuild both.
    let (mut conv1, _) = lenet_conv(3, 6);
    let tables = obs.counter("kernel.row_tables");
    conv1.forward(&big, false);
    assert_eq!(obs.counter("kernel.row_tables"), tables + 1);
    assert_eq!(conv1.sum_w_rebuilds(), 1);
    for _ in 0..3 {
        conv1.forward(&small, false);
        conv1.forward(&big, false);
    }
    assert_eq!(
        obs.counter("kernel.row_tables"),
        tables + 1,
        "unchanged weights"
    );
    assert_eq!(conv1.sum_w_rebuilds(), 1, "unchanged weights");
    conv1.visit_params(&mut |p| p.value.as_mut_slice()[0] += 0.125);
    conv1.forward(&big, false);
    assert_eq!(
        obs.counter("kernel.row_tables"),
        tables + 2,
        "written weights"
    );
    assert_eq!(conv1.sum_w_rebuilds(), 2, "written weights");
    assert_eq!(obs.counter("kernel.row_table_refusals"), 0);

    // A VGG-S conv4-shaped layer (16 → 16 channels, K = 144, 7-bit): its
    // row table of 144 × 128 × 2 entries of 16 bytes (576 KiB) is over the
    // cap. The first eval forward refuses it once; later eval forwards, at
    // any batch size, keep that refusal and refuse nothing more.
    let lut7 = Arc::new(TruncatedMultiplier::new(7, 6).to_lut());
    let grads7 = Arc::new(GradientLut::build(&lut7, GradientMode::difference_based(4)));
    let spec = Conv2dSpec {
        in_channels: 16,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut conv4 = ApproxConv2d::with_params(
        spec,
        ramp(&[16, spec.patch_len()]),
        Tensor::zeros(&[16]),
        lut7,
        grads7,
        QuantConfig::default(),
    );
    let tables = obs.counter("kernel.row_tables");
    conv4.forward(&relu_ramp(&[1, 16, 4, 4]), false);
    assert_eq!(obs.counter("kernel.row_table_refusals"), 1, "first eval");
    for n in [1, 16, 4] {
        conv4.forward(&relu_ramp(&[n, 16, 4, 4]), false);
    }
    assert_eq!(obs.counter("kernel.row_table_refusals"), 1, "kept refusal");
    assert_eq!(obs.counter("kernel.row_tables"), tables);

    appmult_obs::set_global(&appmult_obs::ObsSink::null());
}
