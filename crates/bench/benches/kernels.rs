//! Micro-benchmarks of the retraining kernels (dependency-free harness).
//!
//! Backs the paper's runtime discussion (Sec. V-B): the difference-based
//! method costs extra over STE in (a) building the gradient LUTs and
//! (b) the LUT-indexed backward pass. Measured here:
//!
//! * float vs LUT convolution forward;
//! * LUT backward with STE vs difference-based gradient tables;
//! * gradient-LUT construction (STE vs difference-based vs raw);
//! * product-LUT extraction and exhaustive error metrics.
//!
//! Criterion is unavailable in the offline build environment, so this is
//! a plain `harness = false` binary: per benchmark it warms up, then
//! reports the median of repeated timed batches.
//!
//! Run with `cargo bench -p appmult-bench`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use appmult_mult::{ErrorMetrics, Multiplier, TruncatedMultiplier};
use appmult_nn::layers::{Conv2d, Conv2dSpec};
use appmult_nn::{Module, Tensor};
use appmult_retrain::{ApproxConv2d, GradientLut, GradientMode, QuantConfig};

/// Runs `f` repeatedly for ~`measure` after a warm-up, returning the
/// median per-iteration time over `samples` batches.
fn bench<F: FnMut()>(name: &str, mut f: F) {
    let warmup = Duration::from_millis(300);
    let measure = Duration::from_millis(1200);
    let samples = 12usize;

    // Warm-up and iteration-count calibration.
    let mut iters_per_batch = 1u64;
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < warmup {
        f();
        calls += 1;
    }
    if calls > 0 {
        let per_call = warmup.as_secs_f64() / calls as f64;
        let batch_target = measure.as_secs_f64() / samples as f64;
        iters_per_batch = ((batch_target / per_call).ceil() as u64).max(1);
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters_per_batch {
            f();
        }
        per_iter.push(t.elapsed().as_secs_f64() / iters_per_batch as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    println!(
        "{name:40} {:>12.3} us/iter  ({iters_per_batch} iters x {samples} batches)",
        median * 1e6
    );
}

fn ramp(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n).map(|i| ((i * 31) % 17) as f32 / 8.0 - 1.0).collect(),
        shape,
    )
}

fn conv_pair() -> (Conv2d, ApproxConv2d, ApproxConv2d) {
    let lut = Arc::new(TruncatedMultiplier::new(8, 8).to_lut());
    let ste = Arc::new(GradientLut::build(&lut, GradientMode::Ste));
    let diff = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(16)));
    let spec = Conv2dSpec::same(8, 16, 3);
    let float_conv = Conv2d::new(8, 16, 3, 1, 1, 1);
    let w = float_conv.weight().value.clone();
    let mk = |g: Arc<GradientLut>| {
        ApproxConv2d::with_params(
            spec,
            w.clone(),
            Tensor::zeros(&[16]),
            lut.clone(),
            g,
            QuantConfig::default(),
        )
    };
    (float_conv, mk(ste), mk(diff))
}

fn main() {
    println!("kernel micro-benchmarks (median per iteration)\n");

    let (mut float_conv, mut ste_conv, mut diff_conv) = conv_pair();
    let x = ramp(&[2, 8, 12, 12]);
    bench("conv_forward/float", || {
        black_box(float_conv.forward(black_box(&x), true));
    });
    bench("conv_forward/lut", || {
        black_box(ste_conv.forward(black_box(&x), true));
    });

    let g = ramp(&[2, 16, 12, 12]);
    float_conv.forward(&x, true);
    ste_conv.forward(&x, true);
    diff_conv.forward(&x, true);
    bench("conv_backward/float", || {
        black_box(float_conv.backward(black_box(&g)));
    });
    bench("conv_backward/lut_ste", || {
        black_box(ste_conv.backward(black_box(&g)));
    });
    bench("conv_backward/lut_diff", || {
        black_box(diff_conv.backward(black_box(&g)));
    });

    let lut = TruncatedMultiplier::new(8, 8).to_lut();
    bench("gradient_lut_build_8bit/ste", || {
        black_box(GradientLut::build(black_box(&lut), GradientMode::Ste));
    });
    bench("gradient_lut_build_8bit/diff_hws16", || {
        black_box(GradientLut::build(
            black_box(&lut),
            GradientMode::difference_based(16),
        ));
    });
    bench("gradient_lut_build_8bit/raw", || {
        black_box(GradientLut::build(
            black_box(&lut),
            GradientMode::least_squares(1),
        ));
    });

    let m = TruncatedMultiplier::new(8, 8);
    bench("multiplier_analysis_8bit/build_product_lut", || {
        black_box(m.to_lut());
    });
    bench("multiplier_analysis_8bit/exhaustive_error_metrics", || {
        black_box(ErrorMetrics::exhaustive(black_box(&lut)));
    });
}
