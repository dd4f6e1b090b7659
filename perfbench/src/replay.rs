//! Per-layer replay: one standalone conv layer per model instance, timed
//! phase by phase from outside.
//!
//! The phases call the same public functions, through `Pool::run_rows`,
//! in the same order and with the same serial floor as `ApproxConv2d`
//! does. Each replay is checked bit for bit against a standalone
//! `ApproxConv2d` built with the same weights, so the copy cannot drift
//! from the layer it times.

use std::sync::Arc;
use std::time::Instant;

use appmult_kernels::{backward_dw, backward_dx, forward_acc, GemmShape, Kernel};
use appmult_mult::MultiplierLut;
use appmult_nn::layers::{col2im, im2col, nchw_to_rows, rows_to_nchw};
use appmult_nn::{Module, Tensor};
use appmult_pool::Pool;
use appmult_retrain::{dequantize_dot, ApproxConv2d, GradientLut, QuantConfig, QuantParams};
use appmult_rng::Rng64;

use crate::arch::ConvInstance;
use crate::stats::digest_f32;
use crate::trace::Tracer;

/// The serial floor of the conv layer's GEMM dispatch, in MACs (the
/// private `PAR_FLOOR_MACS` of `appmult-retrain`).
const PAR_FLOOR_MACS: usize = 1 << 16;

fn par_floor_elems(reduction: usize) -> usize {
    PAR_FLOOR_MACS / reduction.max(1)
}

/// Seeded operands of one conv instance.
pub struct Operands {
    pub inst: ConvInstance,
    pub x: Tensor,
    pub grad_out: Tensor,
    pub weight: Tensor,
}

impl Operands {
    pub fn new(inst: &ConvInstance, batch: usize, seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let (c, h, w) = inst.in_chw;
        let (oh, ow) = inst.out_hw();
        let j = inst.spec.out_channels;
        let k = inst.spec.patch_len();
        let mut normal = |n: usize, scale: f32| -> Vec<f32> {
            (0..n).map(|_| rng.normal_f32() * scale).collect()
        };
        let x = Tensor::from_vec(normal(batch * c * h * w, 1.0), &[batch, c, h, w]);
        let grad_out = Tensor::from_vec(normal(batch * j * oh * ow, 0.01), &[batch, j, oh, ow]);
        let weight = Tensor::from_vec(normal(j * k, (2.0 / k as f32).sqrt()), &[j, k]);
        Self {
            inst: inst.clone(),
            x,
            grad_out,
            weight,
        }
    }
}

/// Milliseconds spent in each replayed phase of one instance.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseMs {
    pub im2col: f64,
    pub quantize: f64,
    pub gemm: f64,
    pub dx: f64,
    pub dw: f64,
    pub col2im: f64,
}

/// Digests of the replay's outputs: forward output, input gradient and
/// weight gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigests {
    pub y: u64,
    pub dx: u64,
    pub dw: u64,
}

fn quantize_slice(values: &[f32], params: &QuantParams) -> (Vec<u16>, Vec<bool>) {
    let mut q = Vec::with_capacity(values.len());
    let mut clip = Vec::with_capacity(values.len());
    for &v in values {
        q.push(params.quantize(v) as u16);
        clip.push(params.in_range(v));
    }
    (q, clip)
}

/// Replays one forward + backward of the instance with `kernel` on
/// `pool`, recording phase spans under `prefix` (the instance name for
/// the default configuration).
#[allow(clippy::too_many_lines)]
pub fn replay(
    ops: &Operands,
    lut: &MultiplierLut,
    grads: &GradientLut,
    kernel: Kernel,
    pool: Pool,
    prefix: &str,
    tracer: &mut Tracer,
) -> (PhaseMs, OutputDigests) {
    let spec = &ops.inst.spec;
    let bits = lut.bits();
    let (n, h, w) = (ops.x.shape()[0], ops.x.shape()[2], ops.x.shape()[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let (m, j, k) = (n * oh * ow, spec.out_channels, spec.patch_len());
    let shape = GemmShape { j, k, bits };
    let mut ms = PhaseMs::default();
    let mut phases: Vec<(&str, Instant, Instant)> = Vec::with_capacity(6);
    let inst_start = Instant::now();

    // Forward: im2col, then quantize activations and weights (Eq. 7).
    let t = Instant::now();
    let cols = im2col(&ops.x, spec);
    phases.push(("forward.im2col", t, Instant::now()));

    let t = Instant::now();
    let (xlo, xhi) = ops.x.min_max();
    let xp = QuantParams::from_range(xlo, xhi, bits);
    let (wlo, whi) = ops.weight.min_max();
    let wp = QuantParams::from_range(wlo, whi, bits);
    let (xq, xclip) = quantize_slice(cols.as_slice(), &xp);
    let (wq, wclip) = quantize_slice(ops.weight.as_slice(), &wp);
    phases.push(("forward.quantize", t, Instant::now()));

    // Forward LUT-GEMM plus dequantization (Eq. 8), rows split over the pool.
    let t = Instant::now();
    let table = lut.entries();
    let sum_w: Vec<i64> = wq
        .chunks(k)
        .map(|row| row.iter().map(|&v| i64::from(v)).sum())
        .collect();
    let sum_x: Vec<i64> = xq
        .chunks(k)
        .map(|row| row.iter().map(|&v| i64::from(v)).sum())
        .collect();
    let mut out = vec![0.0f32; m * j];
    pool.with_min_elems(par_floor_elems(k))
        .run_rows(&mut out, j, |mi0, chunk| {
            let rows = chunk.len() / j;
            let mut acc = vec![0i64; chunk.len()];
            forward_acc(
                kernel,
                shape,
                table,
                &wq,
                &xq[mi0 * k..(mi0 + rows) * k],
                &mut acc,
            );
            for (r, (out_row, acc_row)) in chunk.chunks_mut(j).zip(acc.chunks(j)).enumerate() {
                for (ji, (o, &a)) in out_row.iter_mut().zip(acc_row).enumerate() {
                    *o = dequantize_dot(&wp, &xp, a, sum_w[ji], sum_x[mi0 + r], k);
                }
            }
        });
    phases.push(("forward.gemm", t, Instant::now()));
    let y = rows_to_nchw(&Tensor::from_vec(out, &[m, j]), n, j, oh, ow);

    // Backward (Eq. 9): dX over batch rows, dW over output channels.
    let g_rows = nchw_to_rows(&ops.grad_out);
    let gd = g_rows.as_slice();
    let (zw, zx) = (wp.zero_point as f32, xp.zero_point as f32);
    let gx_table = grads.wrt_x_table().as_slice();
    let gw_table = grads.wrt_w_table().as_slice();

    let t = Instant::now();
    let mut dx = vec![0.0f32; m * k];
    pool.with_min_elems(par_floor_elems(j))
        .run_rows(&mut dx, k, |mi0, chunk| {
            let rows = chunk.len() / k;
            backward_dx(
                kernel,
                shape,
                gx_table,
                &wq,
                &xq[mi0 * k..(mi0 + rows) * k],
                &gd[mi0 * j..(mi0 + rows) * j],
                wp.scale,
                zw,
                chunk,
            );
            for (r, dx_row) in chunk.chunks_mut(k).enumerate() {
                let keep = &xclip[(mi0 + r) * k..(mi0 + r + 1) * k];
                for (v, &keep) in dx_row.iter_mut().zip(keep) {
                    if !keep {
                        *v = 0.0;
                    }
                }
            }
        });
    phases.push(("backward.dx", t, Instant::now()));

    let t = Instant::now();
    let mut dw = vec![0.0f32; j * k];
    pool.with_min_elems(par_floor_elems(m))
        .run_rows(&mut dw, k, |ji0, chunk| {
            let rows = chunk.len() / k;
            backward_dw(
                kernel,
                shape,
                gw_table,
                &wq[ji0 * k..(ji0 + rows) * k],
                ji0,
                &xq,
                gd,
                xp.scale,
                zx,
                chunk,
            );
            for (r, dw_row) in chunk.chunks_mut(k).enumerate() {
                let keep = &wclip[(ji0 + r) * k..(ji0 + r + 1) * k];
                for (v, &keep) in dw_row.iter_mut().zip(keep) {
                    if !keep {
                        *v = 0.0;
                    }
                }
            }
        });
    phases.push(("backward.dw", t, Instant::now()));

    let t = Instant::now();
    let dx_nchw = col2im(&Tensor::from_vec(dx, &[m, k]), spec, n, h, w);
    phases.push(("backward.col2im", t, Instant::now()));

    let parent = tracer.record(prefix, inst_start, Instant::now(), None, None);
    for &(name, start, end) in &phases {
        let d = (end - start).as_secs_f64() * 1e3;
        match name {
            "forward.im2col" => ms.im2col = d,
            "forward.quantize" => ms.quantize = d,
            "forward.gemm" => ms.gemm = d,
            "backward.dx" => ms.dx = d,
            "backward.dw" => ms.dw = d,
            _ => ms.col2im = d,
        }
        tracer.record(&format!("{prefix}/{name}"), start, end, parent, None);
    }
    let digests = OutputDigests {
        y: digest_f32(y.as_slice()),
        dx: digest_f32(dx_nchw.as_slice()),
        dw: digest_f32(&dw),
    };
    (ms, digests)
}

/// A standalone `ApproxConv2d` holding the instance's weights.
pub fn standalone_layer(
    ops: &Operands,
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
) -> ApproxConv2d {
    ApproxConv2d::with_params(
        ops.inst.spec,
        ops.weight.clone(),
        Tensor::zeros(&[ops.inst.spec.out_channels]),
        Arc::clone(lut),
        Arc::clone(grads),
        QuantConfig::default(),
    )
}

/// Runs a fresh standalone layer's first forward (train mode, so the
/// observer sees exactly this batch) and backward; returns their times in
/// milliseconds and the output digests the replay must reproduce.
pub fn layer_pass(
    ops: &Operands,
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
    prefix: &str,
    tracer: &mut Tracer,
) -> (f64, f64, OutputDigests) {
    let mut layer = standalone_layer(ops, lut, grads);
    let t0 = Instant::now();
    let y = layer.forward(&ops.x, true);
    let t1 = Instant::now();
    let dx = layer.backward(&ops.grad_out);
    let t2 = Instant::now();
    tracer.record(&format!("{prefix}/layer.forward"), t0, t1, None, None);
    tracer.record(&format!("{prefix}/layer.backward"), t1, t2, None, None);
    let mut dw = 0;
    let mut first = true;
    layer.visit_params(&mut |p| {
        if std::mem::take(&mut first) {
            dw = digest_f32(p.grad.as_slice());
        }
    });
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    (
        ms(t0, t1),
        ms(t1, t2),
        OutputDigests {
            y: digest_f32(y.as_slice()),
            dx: digest_f32(dx.as_slice()),
            dw,
        },
    )
}
