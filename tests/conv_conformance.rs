//! Conformance of `ApproxConv2d` with the f32-im2col reference algorithm.
//!
//! The layer quantizes each input pixel once and gathers the codes into
//! patch rows. The reference here unfolds the f32 input with `im2col`
//! first and quantizes every patch element with `QuantParams::quantize` /
//! `in_range`, then runs the naive LUT-GEMM kernels. Quantization is
//! elementwise and padding maps to the code of 0.0, so both orders must
//! agree bit for bit: forward output, input gradient and weight gradient,
//! under both quantization schemes, both kernels, and 1 and 3 pool
//! threads, on random shapes with NaN, infinite and out-of-range inputs.
//!
//! This file holds a single test because it sets the process-wide pool
//! size, which the layers read.

use std::sync::Arc;

use appmult::kernels::{backward_dw, backward_dx, forward_acc, GemmShape, Kernel};
use appmult::mult::{Multiplier, MultiplierLut, SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult::nn::layers::{col2im, im2col, nchw_to_rows, rows_to_nchw, Conv2dSpec};
use appmult::nn::{Module, Tensor};
use appmult::retrain::{
    dequantize_dot, dequantize_dot_offset, ApproxConv2d, GradientLut, GradientMode, Observer,
    QuantConfig, QuantParams, QuantScheme,
};
use appmult_rng::{prop, Rng64};

/// One random layer-and-batch configuration.
#[derive(Debug, Clone, PartialEq)]
struct Case {
    n: usize,
    cin: usize,
    cout: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    seed: u64,
}

impl Case {
    fn spec(&self) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: self.cin,
            out_channels: self.cout,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    fn valid(&self) -> bool {
        self.cin > 0
            && self.cout > 0
            && self.kernel > 0
            && self.stride > 0
            && self.h + 2 * self.padding >= self.kernel
            && self.w + 2 * self.padding >= self.kernel
    }
}

/// Smallest odd size at least `lo`, plus a random even margin.
fn odd_size(rng: &mut Rng64, lo: usize) -> usize {
    (lo | 1) + 2 * rng.below(5) as usize
}

/// Corner cases first (a shape above the parallel floor, an empty batch,
/// a 1x1 input under a 5x5 kernel), then seeded random shapes.
fn generate(rng: &mut Rng64, case: usize) -> Case {
    let seed = rng.next_u64();
    match case {
        0 => Case {
            n: 3,
            cin: 3,
            cout: 4,
            h: 11,
            w: 11,
            kernel: 5,
            stride: 1,
            padding: 2,
            seed,
        },
        1 => Case {
            n: 0,
            cin: 2,
            cout: 3,
            h: 5,
            w: 7,
            kernel: 3,
            stride: 2,
            padding: 1,
            seed,
        },
        2 => Case {
            n: 2,
            cin: 1,
            cout: 2,
            h: 1,
            w: 1,
            kernel: 5,
            stride: 3,
            padding: 2,
            seed,
        },
        _ => {
            let kernel = 1 + rng.below(5) as usize;
            let padding = rng.below(3) as usize;
            let lo = kernel.saturating_sub(2 * padding).max(1);
            Case {
                n: rng.below(4) as usize,
                cin: 1 + rng.below(3) as usize,
                cout: 1 + rng.below(4) as usize,
                h: odd_size(rng, lo),
                w: odd_size(rng, lo),
                kernel,
                stride: 1 + rng.below(3) as usize,
                padding,
                seed,
            }
        }
    }
}

fn shrink(c: &Case) -> Vec<Case> {
    let dec = |v: usize| v.saturating_sub(1);
    let mut out = vec![
        Case {
            n: dec(c.n),
            ..c.clone()
        },
        Case {
            cin: dec(c.cin),
            ..c.clone()
        },
        Case {
            cout: dec(c.cout),
            ..c.clone()
        },
        Case {
            h: dec(c.h),
            ..c.clone()
        },
        Case {
            w: dec(c.w),
            ..c.clone()
        },
        Case {
            kernel: dec(c.kernel),
            ..c.clone()
        },
        Case {
            stride: dec(c.stride),
            ..c.clone()
        },
        Case {
            padding: dec(c.padding),
            ..c.clone()
        },
    ];
    if c.seed != 0 {
        out.push(Case {
            seed: 0,
            ..c.clone()
        });
    }
    out.retain(Case::valid);
    out
}

/// Mostly values inside the calibrated range, plus values far outside
/// it, NaN and both infinities.
fn hostile(rng: &mut Rng64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(20) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => rng.uniform_f32(-1e6, 1e6),
            _ => rng.uniform_f32(-3.0, 3.0),
        })
        .collect()
}

fn random(rng: &mut Rng64, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec((0..len).map(|_| rng.uniform_f32(lo, hi)).collect(), shape)
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn scheme_params(scheme: QuantScheme, lo: f32, hi: f32, bits: u32) -> QuantParams {
    match scheme {
        QuantScheme::Unsigned => QuantParams::from_range(lo, hi, bits),
        QuantScheme::SignedOffset => QuantParams::signed_symmetric(lo.abs().max(hi.abs()), bits),
    }
}

fn quantize_each(values: &[f32], p: &QuantParams) -> (Vec<u16>, Vec<bool>) {
    values
        .iter()
        .map(|&v| (p.quantize(v) as u16, p.in_range(v)))
        .unzip()
}

/// The operands of one case: weights, bias, a finite calibration batch,
/// the hostile test batch and the output gradient.
struct Operands {
    weight: Tensor,
    bias: Tensor,
    calibration: Tensor,
    x: Tensor,
    g: Tensor,
}

fn operands(c: &Case) -> Operands {
    let mut rng = Rng64::seed_from_u64(c.seed);
    let spec = c.spec();
    let (oh, ow) = spec.out_hw(c.h, c.w);
    let shape = [c.n, c.cin, c.h, c.w];
    Operands {
        weight: random(&mut rng, &[c.cout, spec.patch_len()], -0.8, 0.6),
        bias: random(&mut rng, &[c.cout], -0.2, 0.2),
        calibration: random(&mut rng, &[1, c.cin, c.h, c.w], -1.0, 1.5),
        x: Tensor::from_vec(hostile(&mut rng, shape.iter().product()), &shape),
        g: random(&mut rng, &[c.n, c.cout, oh, ow], -1.0, 1.0),
    }
}

/// `(forward, input gradient, weight gradient)` as bit patterns.
type Outputs = (Vec<u32>, Vec<u32>, Vec<u32>);

/// The seed algorithm: f32 im2col, per-element quantization, naive
/// single-threaded LUT-GEMM kernels, clip masks, col2im.
fn reference(
    c: &Case,
    ops: &Operands,
    scheme: QuantScheme,
    lut: &MultiplierLut,
    grads: &GradientLut,
) -> Outputs {
    let spec = c.spec();
    let bits = lut.bits();
    let (oh, ow) = spec.out_hw(c.h, c.w);
    let (m, j, k) = (c.n * oh * ow, c.cout, spec.patch_len());

    let mut observer = Observer::new(QuantConfig::default().ema_momentum);
    observer.observe(&ops.calibration);
    observer.observe(&ops.x);
    let (lo, hi) = observer.range().expect("calibrated");
    let xp = scheme_params(scheme, lo, hi, bits);
    let (wlo, whi) = ops.weight.min_max();
    let wp = scheme_params(scheme, wlo, whi, bits);

    let cols = im2col(&ops.x, &spec);
    let (xq, xclip) = quantize_each(cols.as_slice(), &xp);
    let (wq, wclip) = quantize_each(ops.weight.as_slice(), &wp);
    let shape = GemmShape { j, k, bits };

    let mut acc = vec![0i64; m * j];
    forward_acc(Kernel::Naive, shape, lut.entries(), &wq, &xq, &mut acc);
    let row_sums = |codes: &[u16], rows: usize| -> Vec<i64> {
        (0..rows)
            .map(|r| {
                codes[r * k..(r + 1) * k]
                    .iter()
                    .map(|&v| i64::from(v))
                    .sum()
            })
            .collect()
    };
    let (sum_w, sum_x) = (row_sums(&wq, j), row_sums(&xq, m));
    let bias = ops.bias.as_slice();
    let y: Vec<f32> = (0..m * j)
        .map(|i| {
            let (mi, ji) = (i / j, i % j);
            let dq = match scheme {
                QuantScheme::Unsigned => dequantize_dot(&wp, &xp, acc[i], sum_w[ji], sum_x[mi], k),
                QuantScheme::SignedOffset => dequantize_dot_offset(&wp, &xp, acc[i], k),
            };
            dq + bias[ji]
        })
        .collect();
    let y = rows_to_nchw(&Tensor::from_vec(y, &[m, j]), c.n, j, oh, ow);

    let (zw, zx) = match scheme {
        QuantScheme::Unsigned => (wp.zero_point as f32, xp.zero_point as f32),
        QuantScheme::SignedOffset => (0.0, 0.0),
    };
    let g = nchw_to_rows(&ops.g);
    let mut dx = vec![0.0f32; m * k];
    let gx = grads.wrt_x_table();
    backward_dx(
        Kernel::Naive,
        shape,
        gx,
        &wq,
        &xq,
        g.as_slice(),
        wp.scale,
        zw,
        &mut dx,
    );
    for (v, &keep) in dx.iter_mut().zip(&xclip) {
        if !keep {
            *v = 0.0;
        }
    }
    let dx = col2im(&Tensor::from_vec(dx, &[m, k]), &spec, c.n, c.h, c.w);
    let mut dw = vec![0.0f32; j * k];
    let gw = grads.wrt_w_table();
    backward_dw(
        Kernel::Naive,
        shape,
        gw,
        &wq,
        0,
        &xq,
        g.as_slice(),
        xp.scale,
        zx,
        &mut dw,
    );
    for (v, &keep) in dw.iter_mut().zip(&wclip) {
        if !keep {
            *v = 0.0;
        }
    }
    // The layer accumulates into a zeroed gradient, which turns -0.0
    // into +0.0; do the same.
    let mut wgrad = Tensor::zeros(&[j, k]);
    wgrad.add_scaled(&Tensor::from_vec(dw, &[j, k]), 1.0);
    (bits_of(&y), bits_of(&dx), bits_of(&wgrad))
}

fn layer_run(
    c: &Case,
    ops: &Operands,
    config: QuantConfig,
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
    kernel: Kernel,
) -> Outputs {
    let mut conv = ApproxConv2d::with_params(
        c.spec(),
        ops.weight.clone(),
        ops.bias.clone(),
        lut.clone(),
        grads.clone(),
        config,
    );
    conv.set_kernel(kernel);
    conv.forward(&ops.calibration, true);
    let y = conv.forward(&ops.x, true);
    let dx = conv.backward(&ops.g);
    let mut wgrad = Vec::new();
    conv.visit_params(&mut |p| {
        if p.value.shape().len() == 2 {
            wgrad = bits_of(&p.grad);
        }
    });
    (bits_of(&y), bits_of(&dx), wgrad)
}

#[test]
fn approx_conv_is_bit_identical_to_the_f32_im2col_reference() {
    let unsigned = Arc::new(TruncatedMultiplier::new(6, 4).to_lut());
    let signed =
        Arc::new(SignMagnitudeMultiplier::new(TruncatedMultiplier::new(6, 4)).to_offset_lut());
    let setups = [
        (
            QuantScheme::Unsigned,
            QuantConfig::default(),
            unsigned.clone(),
            Arc::new(GradientLut::build(
                &unsigned,
                GradientMode::difference_based(4),
            )),
        ),
        (
            QuantScheme::SignedOffset,
            QuantConfig::signed(),
            signed.clone(),
            Arc::new(GradientLut::build_signed(
                &signed,
                GradientMode::difference_based(4),
            )),
        ),
    ];
    let conforms = |c: &Case| {
        let ops = operands(c);
        setups.iter().all(|(scheme, config, lut, grads)| {
            let want = reference(c, &ops, *scheme, lut, grads);
            [1usize, 3].into_iter().all(|threads| {
                appmult_pool::set_global_threads(threads);
                [Kernel::Naive, Kernel::Tiled]
                    .into_iter()
                    .all(|kernel| layer_run(c, &ops, *config, lut, grads, kernel) == want)
            })
        })
    };
    prop::forall_with(
        "ApproxConv2d conforms to the f32-im2col reference",
        0x1C01,
        40,
        generate,
        shrink,
        conforms,
    );
    appmult_pool::set_global_threads(0);
}
