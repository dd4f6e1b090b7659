//! Differential conformance suite for the LUT-GEMM kernel engine.
//!
//! The tiled kernel in `appmult-kernels` promises bit-identity with the
//! naive reference loops for every shape, thread count, and gradient
//! mode. Its tile extents are fixed at `64 × 16 × 64`, so the suite
//! varies shapes × threads, two ways:
//!
//! * at the kernel level, with `appmult_rng::prop`-driven randomized
//!   (shape, seed) cases whose shapes cross every fixed extent — exact
//!   multiples, one past, two tiles past, and zero-sized batches — greedily
//!   shrunk to a minimal failing case;
//! * at the layer level, where `ApproxLinear`/`ApproxConv2d` outputs and
//!   gradients must agree across kernels for all five `GradientMode`s.
//!   Every layer test names both kernels explicitly, so the result does
//!   not depend on the process-wide default; the CI kernel-parity job
//!   runs this file at 1 and 4 threads.
//!
//! Comparisons are `to_bits`, never approximate: no case may diverge by
//! even one bit.

use std::sync::Arc;

use appmult::kernels::{backward_dw, backward_dx, forward_acc, GemmShape, Kernel};
use appmult::mult::{Multiplier, MultiplierLut, TruncatedMultiplier};
use appmult::nn::layers::Conv2dSpec;
use appmult::nn::{Module, Tensor};
use appmult::retrain::{ApproxConv2d, ApproxLinear, GradientLut, GradientMode, QuantConfig};
use appmult_pool::Pool;
use appmult_rng::{prop, Rng64};

/// One conformance case: `((m, j, k), seed)`.
type Case = ((usize, usize, usize), u64);

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Corner cases first (exactly one tile, one past every extent, exactly
/// two tiles, two tiles plus a remainder, zero batch), then seeded random
/// shapes that straddle the fixed `64 × 16 × 64` extents in every
/// dimension.
fn generate_case(rng: &mut Rng64, case: usize) -> Case {
    match case {
        0 => ((64, 16, 64), 0),
        1 => ((65, 17, 65), 1),
        2 => ((128, 32, 128), 2),
        3 => ((129, 33, 130), 3),
        4 => ((0, 17, 65), 4),
        _ => (
            (
                rng.below(141) as usize, // m may be 0
                rng.below(40) as usize + 1,
                rng.below(200) as usize + 1,
            ),
            rng.next_u64(),
        ),
    }
}

/// Greedy shrink proposals: halve or decrement each shape dimension
/// (floored so `j`/`k` stay ≥ 1, `m` may reach 0), and try the zero seed.
fn shrink_case(&((m, j, k), seed): &Case) -> Vec<Case> {
    let mut out = vec![
        ((m / 2, j, k), seed),
        ((m.saturating_sub(1), j, k), seed),
        ((m, (j / 2).max(1), k), seed),
        ((m, (j - 1).max(1), k), seed),
        ((m, j, (k / 2).max(1)), seed),
        ((m, j, (k - 1).max(1)), seed),
    ];
    if seed != 0 {
        out.push(((m, j, k), 0));
    }
    out
}

/// The conformance property: for the given case, the tiled kernel — run
/// chunk-wise under worker pools of 1 and 3 threads — must reproduce the
/// whole-buffer naive kernel bit for bit in forward, `dX`, and `dW`.
fn kernel_case_conforms(&((m, j, k), seed): &Case) -> bool {
    let bits = 6u32;
    let n = 1usize << bits;
    let mut rng = Rng64::seed_from_u64(seed);
    let table: Vec<u32> = (0..n * n).map(|_| rng.next_u32() >> 14).collect();
    let gw: Vec<f32> = (0..n * n).map(|_| rng.uniform_f32(-3.0, 3.0)).collect();
    let gx: Vec<f32> = (0..n * n).map(|_| rng.uniform_f32(-3.0, 3.0)).collect();
    let wq: Vec<u16> = (0..j * k).map(|_| rng.below(n as u64) as u16).collect();
    let xq: Vec<u16> = (0..m * k).map(|_| rng.below(n as u64) as u16).collect();
    let g: Vec<f32> = (0..m * j)
        .map(|_| {
            if rng.chance(0.15) {
                0.0
            } else {
                rng.uniform_f32(-1.0, 1.0)
            }
        })
        .collect();
    let shape = GemmShape { j, k, bits };
    let tiled = Kernel::Tiled;
    let (sw, zw, sx, zx) = (0.37f32, 3.0f32, 0.59f32, 2.0f32);

    let mut acc_ref = vec![0i64; m * j];
    forward_acc(Kernel::Naive, shape, &table, &wq, &xq, &mut acc_ref);
    let mut dx_ref = vec![0.0f32; m * k];
    backward_dx(Kernel::Naive, shape, &gx, &wq, &xq, &g, sw, zw, &mut dx_ref);
    let mut dw_ref = vec![0.0f32; j * k];
    backward_dw(
        Kernel::Naive,
        shape,
        &gw,
        &wq,
        0,
        &xq,
        &g,
        sx,
        zx,
        &mut dw_ref,
    );

    for threads in [1usize, 3] {
        let pool = Pool::new(threads);
        let mut acc = vec![0i64; m * j];
        pool.run_rows(&mut acc, j, |mi0, chunk| {
            let rows = chunk.len() / j;
            forward_acc(
                tiled,
                shape,
                &table,
                &wq,
                &xq[mi0 * k..(mi0 + rows) * k],
                chunk,
            );
        });
        if acc != acc_ref {
            return false;
        }
        let mut dx = vec![0.0f32; m * k];
        pool.run_rows(&mut dx, k, |mi0, chunk| {
            let rows = chunk.len() / k;
            backward_dx(
                tiled,
                shape,
                &gx,
                &wq,
                &xq[mi0 * k..(mi0 + rows) * k],
                &g[mi0 * j..(mi0 + rows) * j],
                sw,
                zw,
                chunk,
            );
        });
        if bits_of(&dx) != bits_of(&dx_ref) {
            return false;
        }
        let mut dw = vec![0.0f32; j * k];
        pool.run_rows(&mut dw, k, |ji0, chunk| {
            let rows = chunk.len() / k;
            backward_dw(
                tiled,
                shape,
                &gw,
                &wq[ji0 * k..(ji0 + rows) * k],
                ji0,
                &xq,
                &g,
                sx,
                zx,
                chunk,
            );
        });
        if bits_of(&dw) != bits_of(&dw_ref) {
            return false;
        }
    }
    true
}

#[test]
fn tiled_kernels_are_bit_identical_to_naive_across_random_cases() {
    prop::forall_with(
        "tiled LUT-GEMM kernels conform to naive",
        0xC0FFEE,
        48,
        generate_case,
        shrink_case,
        kernel_case_conforms,
    );
}

fn ramp(shape: &[usize], scale: f32) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| (((i * 37) % 29) as f32 / 29.0 - 0.45) * scale)
            .collect(),
        shape,
    )
}

fn all_modes(lut: &MultiplierLut) -> Vec<GradientMode> {
    let n = lut.entries().len();
    vec![
        GradientMode::Ste,
        GradientMode::difference_based(8),
        GradientMode::RawDifference,
        GradientMode::DifferenceEdgeClamped { hws: 8 },
        GradientMode::Custom {
            wrt_w: Arc::new((0..n).map(|i| (i % 7) as f32 * 0.25).collect()),
            wrt_x: Arc::new((0..n).map(|i| (i % 5) as f32 * 0.5).collect()),
        },
    ]
}

/// Forward output, input gradient, and weight gradient of a fresh
/// `ApproxLinear` under the given kernel.
fn linear_run(
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
    m: usize,
    j: usize,
    k: usize,
    kernel: Kernel,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut lin = ApproxLinear::with_params(
        ramp(&[j, k], 1.2),
        ramp(&[j], 0.2),
        lut.clone(),
        grads.clone(),
        QuantConfig::default(),
    );
    lin.set_kernel(kernel);
    let y = lin.forward(&ramp(&[m, k], 1.7), true);
    let dx = lin.backward(&ramp(&[m, j], 0.9));
    let mut dw = Vec::new();
    lin.visit_params(&mut |p| {
        if p.value.shape().len() == 2 {
            dw = bits_of(p.grad.as_slice());
        }
    });
    (bits_of(y.as_slice()), bits_of(dx.as_slice()), dw)
}

#[test]
fn layer_outputs_conform_across_kernels_and_gradient_modes() {
    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    for mode in all_modes(&lut) {
        let label = mode.label();
        let grads = Arc::new(GradientLut::build(&lut, mode));
        for (m, j, k) in [(7, 5, 11), (65, 17, 65)] {
            assert_eq!(
                linear_run(&lut, &grads, m, j, k, Kernel::Naive),
                linear_run(&lut, &grads, m, j, k, Kernel::Tiled),
                "linear mode={label} m={m} j={j} k={k}: tiled diverged from naive"
            );
        }
    }
}

#[test]
fn conv_layer_conforms_across_kernels() {
    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
    // (batch, in, out): the small case, then one whose im2col GEMM
    // (M = batch·25, J = out, K = in·9 = 75 × 17 × 72) crosses the
    // 64 × 16 × 64 tile extents in every dimension.
    let run = |(n, cin, cout): (usize, usize, usize), kernel: Kernel| {
        let mut conv = ApproxConv2d::with_params(
            Conv2dSpec::same(cin, cout, 3),
            ramp(&[cout, cin * 9], 0.8),
            ramp(&[cout], 0.1),
            lut.clone(),
            grads.clone(),
            QuantConfig::default(),
        );
        conv.set_kernel(kernel);
        let y = conv.forward(&ramp(&[n, cin, 5, 5], 1.0), true);
        let dx = conv.backward(&ramp(&[n, cout, 5, 5], 1.0));
        (bits_of(y.as_slice()), bits_of(dx.as_slice()))
    };
    for dims in [(2, 2, 3), (3, 8, 17)] {
        assert_eq!(
            run(dims, Kernel::Naive),
            run(dims, Kernel::Tiled),
            "conv (batch, in, out)={dims:?}: tiled diverged from naive"
        );
    }
}

#[test]
fn degenerate_layer_shapes_conform() {
    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::Ste));
    // (m, j, k) degenerate cases: single row/column/feature and a
    // zero-sized batch, each under naive and tiled.
    for (m, j, k) in [(1, 1, 1), (1, 4, 3), (5, 1, 3), (5, 4, 1), (0, 4, 3)] {
        assert_eq!(
            linear_run(&lut, &grads, m, j, k, Kernel::Naive),
            linear_run(&lut, &grads, m, j, k, Kernel::Tiled),
            "degenerate m={m} j={j} k={k}"
        );
    }
}

#[test]
fn shrinker_reports_a_minimal_triple() {
    // Plant an artificial divergence — "conformance fails whenever
    // m*j*k > 0 and k >= 3" — and check the harness shrinks the case to
    // the minimal failing triple instead of reporting a random large one.
    let planted = |c: &Case| {
        let ((m, j, k), _) = *c;
        !(m > 0 && j > 0 && k >= 3)
    };
    let err = prop::check_with(0xBAD5EED, 64, generate_case, shrink_case, planted)
        .expect_err("planted divergence must be caught");
    let ((m, j, k), seed) = err.value;
    assert_eq!((m, j, k), (1, 1, 3), "shape shrunk to minimal");
    assert_eq!(seed, 0, "seed shrunk to zero");
}
