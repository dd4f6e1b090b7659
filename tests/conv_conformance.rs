//! Conformance of `ApproxConv2d` with the f32-im2col reference algorithm.
//!
//! The layer quantizes each input pixel once and gathers the codes into
//! patch rows. The reference here unfolds the f32 input with `im2col`
//! first and quantizes every patch element with `QuantParams::quantize` /
//! `in_range`, then runs the naive LUT-GEMM kernels. Quantization is
//! elementwise and padding maps to the code of 0.0, so both orders must
//! agree bit for bit: forward output (train and eval mode), input
//! gradient and weight gradient, under both quantization schemes, both
//! kernels, and 1 and 3 pool threads, on random shapes with NaN,
//! infinite and out-of-range inputs.
//!
//! A second test checks the patch-row geometry underneath, the slice-level
//! `im2col_gather` and `col2im_add`, against a tap-by-tap definition. Only
//! the layer test sets the process-wide pool size, which the layers read.

use std::sync::Arc;

use appmult::kernels::{backward_dw, backward_dx, forward_acc, GemmShape, Kernel};
use appmult::mult::{Multiplier, MultiplierLut, SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult::nn::layers::{
    col2im, col2im_add, im2col, im2col_gather, nchw_to_rows, rows_to_nchw, Conv2dSpec,
};
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
/// a 1x1 input under a 5x5 kernel, LeNet conv1 at a batch of 4, whose
/// per-image passes split 2 + 1 + 1 over 3 threads, and a padded conv
/// with 9 output channels whose 512 batch rows reach the forward
/// row-table rule for 6-bit codes exactly), then seeded random shapes.
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
        3 => Case {
            n: 4,
            cin: 3,
            cout: 6,
            h: 16,
            w: 16,
            kernel: 5,
            stride: 1,
            padding: 0,
            seed,
        },
        4 => Case {
            n: 2,
            cin: 2,
            cout: 9,
            h: 16,
            w: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
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

/// `(train-mode forward, eval-mode forward, input gradient, weight
/// gradient)` as bit patterns.
type Outputs = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

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
    // An eval-mode forward of the same batch leaves the observer as it
    // is, so it quantizes exactly as the train-mode one did.
    let y = bits_of(&y);
    (y.clone(), y, bits_of(&dx), bits_of(&wgrad))
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
    let y_eval = conv.forward(&ops.x, false);
    let mut wgrad = Vec::new();
    conv.visit_params(&mut |p| {
        if p.value.shape().len() == 2 {
            wgrad = bits_of(&p.grad);
        }
    });
    (bits_of(&y), bits_of(&y_eval), bits_of(&dx), wgrad)
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
            Arc::new(
                GradientLut::try_build_for(
                    &signed,
                    GradientMode::difference_based(4),
                    QuantScheme::SignedOffset,
                    appmult_pool::Pool::global(),
                )
                .expect("difference tables build"),
            ),
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
        42,
        generate,
        shrink,
        conforms,
    );
    appmult_pool::set_global_threads(0);
}

/// The input pixel patch tap `t` of patch row `r` reads, or `None` for a
/// padding tap: the definition `im2col_gather` and `col2im_add` share.
fn tap_pixel(
    spec: &Conv2dSpec,
    (c, h, w): (usize, usize, usize),
    r: usize,
    t: usize,
) -> Option<usize> {
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let (ni, oy, ox) = (r / (oh * ow), r / ow % oh, r % ow);
    let (ci, ky, kx) = (t / (k * k), t / k % k, t % k);
    let iy = (oy * spec.stride + ky).checked_sub(spec.padding)?;
    let ix = (ox * spec.stride + kx).checked_sub(spec.padding)?;
    (iy < h && ix < w).then(|| ((ni * c + ci) * h + iy) * w + ix)
}

#[test]
fn gather_and_fold_match_the_tap_by_tap_definition() {
    const PAD: u16 = 0;
    const SENTINEL: u16 = u16::MAX;
    let mut rng = Rng64::seed_from_u64(0x6E0);
    for kernel in 1..=7 {
        for stride in 1..=3 {
            for padding in 0..=3 {
                let spec = Conv2dSpec {
                    in_channels: 2,
                    out_channels: 1,
                    kernel,
                    stride,
                    padding,
                };
                // Non-square images down to the smallest valid extent, a
                // zero batch, and an image of no rows when the padding
                // alone covers the kernel.
                let lo = kernel.saturating_sub(2 * padding).max(1);
                let mut shapes = vec![(2, lo, lo + 3), (1, lo + 4, lo + 1), (0, lo + 2, lo)];
                if 2 * padding >= kernel {
                    shapes.push((1, 0, 3));
                }
                for (n, h, w) in shapes {
                    let c = spec.in_channels;
                    let (oh, ow) = spec.out_hw(h, w);
                    let (rows, patch) = (n * oh * ow, spec.patch_len());
                    let shape = [n, c, h, w];
                    let case = format!("{spec:?} on {shape:?}");

                    let codes: Vec<u16> = (0..n * c * h * w).map(|i| 1 + i as u16).collect();
                    let mut gathered = vec![SENTINEL; rows * patch];
                    im2col_gather(&codes, &shape, &spec, PAD, &mut gathered);
                    for (i, &got) in gathered.iter().enumerate() {
                        let want = tap_pixel(&spec, (c, h, w), i / patch, i % patch)
                            .map_or(PAD, |p| codes[p]);
                        assert_eq!(got, want, "gather tap {i} of {case}");
                    }

                    // Taps and a starting image with exact zeros of both
                    // signs, so a fold that skips or reorders an addition
                    // (or drops the start value) changes some bit.
                    let value = |rng: &mut Rng64| match rng.below(4) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.uniform_f32(-1.0, 1.0),
                    };
                    let cols: Vec<f32> = (0..rows * patch).map(|_| value(&mut rng)).collect();
                    let start: Vec<f32> = (0..n * c * h * w).map(|_| value(&mut rng)).collect();
                    let mut want = start.clone();
                    for (i, &g) in cols.iter().enumerate() {
                        if let Some(p) = tap_pixel(&spec, (c, h, w), i / patch, i % patch) {
                            want[p] += g;
                        }
                    }
                    let mut got = start;
                    col2im_add(&cols, &shape, &spec, &mut got);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "fold of {case}");
                }
            }
        }
    }
}
