//! LUT-based approximate layers (the Fig. 4 dataflow).
//!
//! Forward: fake-quantize weights and activations (Eq. 7), evaluate the
//! AppMult through its product LUT, dequantize (Eq. 8). Backward: chain
//! rule of Eq. 9 with `dAM/dW`, `dAM/dX` served from a [`GradientLut`]
//! and the clipped straight-through estimator for `Q'`.

use std::sync::Arc;

use appmult_kernels::{backward_dw, backward_dx, ForwardPlan, GemmShape, Kernel, M_TILE};
use appmult_mult::MultiplierLut;
use appmult_nn::layers::{col2im_add, im2col_gather, nchw_to_rows, rows_to_nchw, Conv2dSpec};
use appmult_nn::{Module, Parameter, Tensor};
use appmult_pool::Pool;

use crate::gradient::GradientLut;
use crate::quant::{dequantize_dot, dequantize_dot_offset, Observer, QuantParams, QuantScheme};

/// Quantizer configuration shared by the approximate layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// EMA momentum of the activation range observer.
    pub ema_momentum: f32,
    /// Code mapping: the paper's unsigned affine scheme, or signed
    /// offset-binary codes for `SignMagnitudeMultiplier` offset LUTs.
    pub scheme: QuantScheme,
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self {
            ema_momentum: 0.05,
            scheme: QuantScheme::Unsigned,
        }
    }
}

impl QuantConfig {
    /// Default configuration on the signed offset-binary scheme.
    pub fn signed() -> Self {
        Self {
            scheme: QuantScheme::SignedOffset,
            ..Self::default()
        }
    }
}

/// Quantizer parameters for a `[lo, hi]` range under the given scheme:
/// asymmetric affine for unsigned codes, symmetric (pinned zero point
/// `2^(B-1)`) over the magnitude reach for signed offset-binary codes.
fn scheme_params(scheme: QuantScheme, lo: f32, hi: f32, bits: u32) -> QuantParams {
    match scheme {
        QuantScheme::Unsigned => QuantParams::from_range(lo, hi, bits),
        QuantScheme::SignedOffset => QuantParams::signed_symmetric(lo.abs().max(hi.abs()), bits),
    }
}

/// Activation quantizer for one forward pass. Train-mode batches, and the
/// first batch an uncalibrated layer sees, are folded into the EMA
/// observer first. An empty batch quantizes nothing, so on an
/// uncalibrated layer it takes the `[0, 0]` range and leaves the observer
/// uncalibrated.
fn activation_params(
    observer: &mut Observer,
    input: &Tensor,
    train: bool,
    scheme: QuantScheme,
    bits: u32,
) -> QuantParams {
    if train || observer.range().is_none() {
        let rejected_before = observer.rejected();
        observer.observe(input);
        let rejected = observer.rejected() - rejected_before;
        if rejected > 0 {
            appmult_obs::global().counter_add("observer.rejections", rejected as u64);
        }
    }
    let (lo, hi) = match observer.range() {
        Some(range) => range,
        None if input.is_empty() => (0.0, 0.0),
        None => panic!("observer has seen no data"),
    };
    scheme_params(scheme, lo, hi, bits)
}

/// Shared quantized-GEMM state cached between forward and backward.
#[derive(Debug, Default)]
struct GemmCache {
    wq: Vec<u16>,     // [J, K] quantized weights
    xq: Vec<u16>,     // [M, K] quantized activations
    wclip: Vec<bool>, // Q'(w) != 0
    xclip: Vec<bool>, // Q'(x) != 0 per layer input element (per NCHW pixel for the conv)
    wq_params: Option<QuantParams>,
    xq_params: Option<QuantParams>,
    scheme: QuantScheme,
    m: usize,
    j: usize,
    k: usize,
    sum_w: Vec<i64>, // per-row code sums, memoized across unchanged weights
    sum_w_builds: u64,
}

impl GemmCache {
    /// Refreshes the cache for a new forward pass. The per-row weight code
    /// sums used by dequantization are memoized: when the quantized weights
    /// and their params are unchanged since the previous batch (the common
    /// case in eval loops), `sum_w` is carried over instead of being
    /// recomputed; any requantization invalidates it.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &mut self,
        wq: Vec<u16>,
        xq: Vec<u16>,
        wclip: Vec<bool>,
        xclip: Vec<bool>,
        wq_params: QuantParams,
        xq_params: QuantParams,
        scheme: QuantScheme,
        m: usize,
        j: usize,
        k: usize,
    ) {
        let weights_unchanged = self.wq_params == Some(wq_params)
            && self.j == j
            && self.k == k
            && self.wq == wq
            && !self.sum_w.is_empty();
        if !weights_unchanged {
            self.sum_w = (0..j)
                .map(|ji| wq[ji * k..(ji + 1) * k].iter().map(|&v| i64::from(v)).sum())
                .collect();
            self.sum_w_builds += 1;
        }
        self.wq = wq;
        self.xq = xq;
        self.wclip = wclip;
        self.xclip = xclip;
        self.wq_params = Some(wq_params);
        self.xq_params = Some(xq_params);
        self.scheme = scheme;
        self.m = m;
        self.j = j;
        self.k = k;
    }

    /// Whether a forward pass has populated the cache (valid even for
    /// zero-sized batches, where `m == 0`).
    fn populated(&self) -> bool {
        self.xq_params.is_some()
    }
    /// Normalized histograms of the weight and activation codes seen by
    /// the most recent forward pass, each with `2^B` bins.
    fn operand_histograms(&self, bits: u32) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.m == 0 {
            return None;
        }
        let n = 1usize << bits;
        let mut wh = vec![0.0f64; n];
        let mut xh = vec![0.0f64; n];
        for &c in &self.wq {
            wh[c as usize] += 1.0;
        }
        for &c in &self.xq {
            xh[c as usize] += 1.0;
        }
        let wn = self.wq.len() as f64;
        let xn = self.xq.len() as f64;
        for v in &mut wh {
            *v /= wn;
        }
        for v in &mut xh {
            *v /= xn;
        }
        Some((wh, xh))
    }
}

/// Minimum multiply-accumulate count below which a LUT-GEMM dispatch runs
/// serially instead of fanning out across pool workers; above it, the
/// least work per pool block. A dispatch that a helper joins (two blocks
/// that each wait for the other to start) costs about 7 µs on a 2-vCPU
/// x86 host; at roughly a nanosecond per table-gather MAC, the floor's
/// 64k MACs are ~65 µs of work, of which that dispatch is about 11%.
/// (perfbench's `pool.dispatch_us` no longer shows this cost: its two
/// one-element rows finish on the caller before a helper wakes.)
/// perfbench's replay mirrors this value. Serial and parallel paths are
/// bit-identical, so the floor is purely a scheduling decision.
const PAR_FLOOR_MACS: usize = 1 << 16;

/// Where a layer's dispatches run: on `pool`, under a work-size floor in
/// the dispatched buffer's own units, so a dispatch over (or feeding, or
/// folding) a GEMM below `floor_macs` runs serially and a larger one splits
/// into blocks of at least that much work.
#[derive(Debug, Clone, Copy)]
struct Sched {
    pool: Pool,
    floor_macs: usize,
}

impl Sched {
    /// The global pool under the [`PAR_FLOOR_MACS`] floor.
    fn global() -> Self {
        Self {
            pool: Pool::global(),
            floor_macs: PAR_FLOOR_MACS,
        }
    }

    /// The pool for a dispatch tied to a GEMM whose output elements take
    /// `reduction` MACs each, over a buffer of which one unit stands for
    /// `per_unit` of those output elements (1 for the GEMM's own output,
    /// an image's share for a per-image pass). The glue that feeds or
    /// folds a GEMM asks with that GEMM's shape, so it goes parallel
    /// exactly when the GEMM does.
    fn pool(&self, reduction: usize, per_unit: usize) -> Pool {
        let floor = (self.floor_macs / reduction.max(1)).div_ceil(per_unit.max(1));
        self.pool.with_min_elems(floor)
    }

    /// The pool for the forward GEMM of `j` outputs per batch row and `k`
    /// MACs each: the GEMM floor, raised to one kernel M tile of rows so
    /// that each block's hoisted LUT rows serve at least one full tile.
    fn forward_pool(&self, j: usize, k: usize) -> Pool {
        let pool = self.pool(k, 1);
        if self.floor_macs == 0 {
            return pool;
        }
        pool.with_min_elems(pool.min_elems().max(M_TILE * j))
    }
}

/// Splits `data` into `n` consecutive equal slices, one per image (all
/// empty when `data` is).
fn per_image<T>(mut data: &mut [T], n: usize) -> Vec<&mut [T]> {
    let len = data.len().checked_div(n).unwrap_or(0);
    (0..n)
        .map(|_| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(len);
            data = tail;
            head
        })
        .collect()
}

/// Clipped-STE mask: zeroes every gradient whose operand Q' clipped.
fn mask_clipped(grad: &mut [f32], keep: &[bool]) {
    for (v, &keep) in grad.iter_mut().zip(keep) {
        if !keep {
            *v = 0.0;
        }
    }
}

/// Quantizes a slice, returning codes and clip mask.
fn quantize_slice(values: &[f32], params: &QuantParams) -> (Vec<u16>, Vec<bool>) {
    let mut q = Vec::with_capacity(values.len());
    let mut clip = Vec::with_capacity(values.len());
    for &v in values {
        let (code, keep) = params.quantize_clip(v);
        q.push(code as u16);
        clip.push(keep);
    }
    (q, clip)
}

/// LUT forward pass: `out[m][j] = DQ(sum_k AM(Wq[j][k], Xq[m][k])) + bias[j]`.
///
/// Output rows are independent, so the batch dimension `M` is partitioned
/// across the pool's workers and each worker runs the selected
/// `appmult-kernels` engine over its chunk (tiles compose with worker
/// chunks). The LUT accumulator is an exact `i64`, so the tiled kernel's
/// re-association is bit-safe and the result is bit-identical for any
/// kernel and thread count.
fn gemm_forward(
    cache: &GemmCache,
    lut: &MultiplierLut,
    bias: &[f32],
    sched: Sched,
    kernel: Kernel,
) -> Tensor {
    let obs = appmult_obs::global();
    let _span = obs.span("gemm_forward");
    let (m, j, k) = (cache.m, cache.j, cache.k);
    // Nominal product-table lookups, then `J` per nonzero activation code:
    // the lookups a code-0 column of zeros leaves to be made.
    obs.counter_add("lut.lookups", (m * j * k) as u64);
    if obs.is_enabled() {
        let live = cache.xq.iter().filter(|&&x| x != 0).count();
        obs.counter_add("lut.live_lookups", (j * live) as u64);
    }
    let table = lut.entries();
    let shape = GemmShape {
        j,
        k,
        bits: lut.bits(),
    };
    let wq_params = cache.wq_params.expect("cache populated");
    let xq_params = cache.xq_params.expect("cache populated");
    let sum_w = &cache.sum_w;
    // One plan for the whole batch, shared by every block: above the
    // kernel's shape rule it holds the row table, built here once.
    let plan = ForwardPlan::new(kernel, shape, table, &cache.wq, m);
    // A row's code sum fits `u32` (which vectorizes, unlike an `i64`
    // fold) whenever `K` of the largest `u16` codes do.
    let narrow_sum_x = k as u64 * u64::from(u16::MAX) <= u64::from(u32::MAX);
    let mut out = vec![0.0f32; m * j];
    // Per output element this GEMM performs `k` MACs.
    sched
        .forward_pool(j, k)
        .run_rows(&mut out, j, |mi0, chunk| {
            let rows = chunk.len() / j;
            let xq = &cache.xq[mi0 * k..(mi0 + rows) * k];
            let mut acc = vec![0i64; chunk.len()];
            plan.run(xq, &mut acc);
            for (r, (out_row, acc_row)) in chunk.chunks_mut(j).zip(acc.chunks(j)).enumerate() {
                let row = &xq[r * k..(r + 1) * k];
                let sum_x = if narrow_sum_x {
                    i64::from(row.iter().map(|&v| u32::from(v)).sum::<u32>())
                } else {
                    row.iter().map(|&v| i64::from(v)).sum()
                };
                for (ji, (o, &a)) in out_row.iter_mut().zip(acc_row).enumerate() {
                    *o = match cache.scheme {
                        QuantScheme::Unsigned => {
                            dequantize_dot(&wq_params, &xq_params, a, sum_w[ji], sum_x, k)
                        }
                        // Offset LUT entries already fold in the operand zero
                        // points; only the per-term 2^(2B-1) offset remains.
                        QuantScheme::SignedOffset => {
                            dequantize_dot_offset(&wq_params, &xq_params, a, k)
                        }
                    } + bias[ji];
                }
            }
        });
    Tensor::from_vec(out, &[m, j])
}

/// LUT backward pass (Eq. 9) for `g = dL/d(out)`: runs the `dW` half and
/// returns it with the `dX` half, which each layer runs in its own
/// partition ([`DxPass`]).
///
/// The `dW` half is partitioned over the output-channel dimension `J`
/// (each worker owns whole `dw` rows and accumulates over `M` in
/// ascending order); the `dX` half accumulates each element over `J` in
/// ascending order within its batch row. Each worker runs the selected
/// `appmult-kernels` engine over its chunk; the tiled kernels preserve the
/// naive per-output addition order exactly, so no atomic float
/// accumulation is needed and the tensors are bit-identical to a serial
/// naive run for any kernel and thread count.
fn gemm_backward<'a>(
    cache: &'a GemmCache,
    grads: &'a GradientLut,
    g: &'a Tensor,
    sched: Sched,
    kernel: Kernel,
) -> (Tensor, DxPass<'a>) {
    let obs = appmult_obs::global();
    let _span = obs.span("gemm_backward");
    let (m, j, k) = (cache.m, cache.j, cache.k);
    assert_eq!(g.shape(), &[m, j], "output gradient shape mismatch");
    // Nominal Eq. 9 table lookups (`dW` and `dX` halves), then the ones
    // made: both halves skip a zero output gradient for its whole K row.
    obs.counter_add("gradlut.lookups", 2 * (m * j * k) as u64);
    if obs.is_enabled() {
        let live = g.as_slice().iter().filter(|&&v| v != 0.0).count();
        obs.counter_add("gradlut.live_lookups", 2 * (live * k) as u64);
    }
    let shape = GemmShape {
        j,
        k,
        bits: grads.bits(),
    };
    let wq_params = cache.wq_params.expect("cache populated");
    let xq_params = cache.xq_params.expect("cache populated");
    // Eq. 9's `- Z` terms correct for the affine zero points of unsigned
    // codes. Signed gradient tables are built in *value* space (the STE
    // tables subtract 2^(B-1); the difference family differentiates the
    // stored row, where the additive offsets cancel), so no zero-point
    // correction applies there.
    let (zw, zx) = match cache.scheme {
        QuantScheme::Unsigned => (wq_params.zero_point as f32, xq_params.zero_point as f32),
        QuantScheme::SignedOffset => (0.0, 0.0),
    };
    let gd = g.as_slice();

    let mut dw = vec![0.0f32; j * k];
    // Per dw element: `m` gradient-table MACs.
    sched.pool(m, 1).run_rows(&mut dw, k, |ji0, chunk| {
        let rows = chunk.len() / k;
        // dL/dw = dL/dy * s_x * (dAM/dW - Z_x), gated by Q'(w).
        backward_dw(
            kernel,
            shape,
            grads.wrt_w_table().as_slice(),
            &cache.wq[ji0 * k..(ji0 + rows) * k],
            ji0,
            &cache.xq,
            gd,
            xq_params.scale,
            zx,
            chunk,
        );
        mask_clipped(chunk, &cache.wclip[ji0 * k..(ji0 + rows) * k]);
    });

    let dx = DxPass {
        cache,
        kernel,
        shape,
        table: grads.wrt_x_table().as_slice(),
        g: gd,
        scale: wq_params.scale,
        zero: zw,
    };
    (Tensor::from_vec(dw, &[j, k]), dx)
}

/// The `dX` half of one Eq. 9 backward pass, `dL/dx = dL/dy * s_w *
/// (dAM/dX - Z_w)` per `[M, K]` operand element, gated by Q'(x). The conv
/// folds it into its input gradient one image at a time; the linear layer
/// partitions it by batch rows.
struct DxPass<'a> {
    cache: &'a GemmCache,
    kernel: Kernel,
    shape: GemmShape,
    table: &'a [f32],
    g: &'a [f32],
    scale: f32,
    zero: f32,
}

impl DxPass<'_> {
    /// Adds the unmasked `dX` of the whole `[K]` batch rows `mi0..` into
    /// `dx`. A row's sums do not depend on which rows share the call.
    fn add_rows(&self, mi0: usize, dx: &mut [f32]) {
        let (j, k) = (self.shape.j, self.shape.k);
        let rows = dx.len() / k.max(1);
        backward_dx(
            self.kernel,
            self.shape,
            self.table,
            &self.cache.wq,
            &self.cache.xq[mi0 * k..(mi0 + rows) * k],
            &self.g[mi0 * j..(mi0 + rows) * j],
            self.scale,
            self.zero,
            dx,
        );
    }

    /// The masked `[M, K]` `dX`, row-partitioned over the batch: the
    /// linear layer's input gradient, whose input elements are the GEMM
    /// operand's.
    fn rows(&self, sched: Sched) -> Tensor {
        let (m, j, k) = (self.cache.m, self.shape.j, self.shape.k);
        let mut dx = vec![0.0f32; m * k];
        // Per dx element: `j` gradient-table MACs.
        sched.pool(j, 1).run_rows(&mut dx, k, |mi0, chunk| {
            self.add_rows(mi0, chunk);
            mask_clipped(chunk, &self.cache.xclip[mi0 * k..mi0 * k + chunk.len()]);
        });
        Tensor::from_vec(dx, &[m, k])
    }
}

/// Eq. 7 for the conv, one image per pool row: quantizes each input pixel
/// once into a per-chunk scratch buffer, keeping its clip flag, then
/// gathers the codes straight into that image's `[OH * OW, K]` rows of
/// `xq`. Padding taps take the code of 0.0, exactly what quantizing a
/// zero-padded patch gives. Returns `xq` and the per-pixel flags.
fn gather_codes(
    input: &Tensor,
    spec: &Conv2dSpec,
    params: &QuantParams,
    pool: Pool,
) -> (Vec<u16>, Vec<bool>) {
    let s = input.shape();
    let (n, image) = (s[0], [1, s[1], s[2], s[3]]);
    let (oh, ow) = spec.out_hw(s[2], s[3]);
    let plane = s[1] * s[2] * s[3];
    let pad = params.quantize_clip(0.0).0 as u16;
    let mut xq = vec![0u16; n * oh * ow * spec.patch_len()];
    let mut xclip = vec![false; n * plane];
    let mut slots: Vec<_> = per_image(&mut xq, n)
        .into_iter()
        .zip(per_image(&mut xclip, n))
        .collect();
    let pixels = input.as_slice();
    pool.run_rows(&mut slots, 1, |n0, chunk| {
        let mut codes = vec![0u16; plane];
        for (ni, (rows, clip)) in (n0..).zip(chunk) {
            let src = &pixels[ni * plane..(ni + 1) * plane];
            for ((code, keep), &v) in codes.iter_mut().zip(clip.iter_mut()).zip(src) {
                let (q, kept) = params.quantize_clip(v);
                (*code, *keep) = (q as u16, kept);
            }
            im2col_gather(&codes, &image, spec, pad, rows);
        }
    });
    (xq, xclip)
}

/// The conv's input gradient, one image per pool row: runs the image's
/// `dX` rows into a per-chunk `[OH * OW, K]` scratch buffer, folds that
/// into the image with col2im, and masks the pixels Q' clipped. Every
/// patch tap of a pixel carries the pixel's flag, so zeroing the summed
/// pixel gives the same `+0.0` as zeroing each tap before the sum.
fn conv_input_grad(
    dx: &DxPass,
    spec: &Conv2dSpec,
    (n, h, w): (usize, usize, usize),
    pool: Pool,
) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    let image = [1, spec.in_channels, h, w];
    let plane = spec.in_channels * h * w;
    let mut grad = vec![0.0f32; n * plane];
    let mut images = per_image(&mut grad, n);
    pool.run_rows(&mut images, 1, |n0, chunk| {
        let mut cols = vec![0.0f32; oh * ow * spec.patch_len()];
        for (ni, out) in (n0..).zip(chunk) {
            cols.fill(0.0);
            dx.add_rows(ni * oh * ow, &mut cols);
            col2im_add(&cols, &image, spec, out);
            mask_clipped(out, &dx.cache.xclip[ni * plane..(ni + 1) * plane]);
        }
    });
    Tensor::from_vec(grad, &[n, spec.in_channels, h, w])
}

/// A 2-D convolution whose multiplications go through an AppMult LUT and
/// whose backward pass uses a [`GradientLut`] — the layer at the heart of
/// the retraining framework (Fig. 4).
///
/// The float master weights live in a [`Parameter`] and are fake-quantized
/// on every forward pass; activation ranges are tracked by an EMA observer
/// (calibrated on the first batch even in eval mode, so a freshly converted
/// model can be evaluated before retraining, as in Table II's "initial
/// accuracy" column).
///
/// # Example
///
/// ```
/// use appmult_mult::{zoo, Multiplier};
/// use appmult_retrain::{ApproxConv2d, GradientLut, GradientMode, QuantConfig};
/// use appmult_nn::{Module, Tensor};
/// use std::sync::Arc;
///
/// let lut = Arc::new(zoo::mul7u_rm6().to_lut());
/// let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(2)));
/// let mut conv = ApproxConv2d::new(3, 8, 3, 1, 1, 7, lut, grads, QuantConfig::default());
/// let y = conv.forward(&Tensor::zeros(&[1, 3, 8, 8]), true);
/// assert_eq!(y.shape(), &[1, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct ApproxConv2d {
    spec: Conv2dSpec,
    weight: Parameter,
    bias: Parameter,
    lut: Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
    observer: Observer,
    scheme: QuantScheme,
    cache: GemmCache,
    kernel: Kernel,
    input_hw: (usize, usize, usize),
}

impl ApproxConv2d {
    /// Creates the layer with Kaiming-initialized weights.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
        lut: Arc<MultiplierLut>,
        grads: Arc<GradientLut>,
        config: QuantConfig,
    ) -> Self {
        let spec = Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        };
        let fan_in = spec.patch_len();
        let weight = appmult_nn::init::kaiming_normal(&[out_channels, fan_in], fan_in, seed);
        Self::with_params(
            spec,
            weight,
            Tensor::zeros(&[out_channels]),
            lut,
            grads,
            config,
        )
    }

    /// Wraps existing float weights (e.g. from a pretrained accurate model,
    /// the Fig. 1 flow) in an approximate layer.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has a zero kernel or stride, if the weight/bias
    /// shapes do not match `spec`, if the product and gradient LUT bit
    /// widths disagree, or if the gradient tables fail
    /// [`GradientLut::validate`] (a NaN/Inf entry would silently corrupt
    /// every gradient flowing through the layer).
    pub fn with_params(
        spec: Conv2dSpec,
        weight: Tensor,
        bias: Tensor,
        lut: Arc<MultiplierLut>,
        grads: Arc<GradientLut>,
        config: QuantConfig,
    ) -> Self {
        assert!(
            spec.kernel > 0 && spec.stride > 0,
            "conv kernel and stride must be positive: {spec:?}"
        );
        assert_eq!(
            weight.shape(),
            &[spec.out_channels, spec.patch_len()],
            "weight shape mismatch"
        );
        assert_eq!(bias.shape(), &[spec.out_channels], "bias shape mismatch");
        assert_eq!(lut.bits(), grads.bits(), "LUT bit widths disagree");
        if let Err(e) = grads.validate() {
            panic!("gradient LUT rejected: {e}");
        }
        Self {
            spec,
            weight: Parameter::new(weight, true),
            bias: Parameter::new(bias, false),
            lut,
            grads,
            observer: Observer::new(config.ema_momentum),
            scheme: config.scheme,
            cache: GemmCache::default(),
            kernel: Kernel::global(),
            input_hw: (0, 0, 0),
        }
    }

    /// The GEMM kernel this layer runs ([`Kernel::global`] at
    /// construction).
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Overrides the GEMM kernel for this layer (e.g. to cross-check
    /// tiled vs naive in tests).
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// The shape specification.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The product LUT driving the forward pass.
    pub fn lut(&self) -> &Arc<MultiplierLut> {
        &self.lut
    }

    /// Normalized weight/activation code histograms from the most recent
    /// forward pass (for distribution-aware multiplier analysis via
    /// `ErrorMetrics::with_marginals`). `None` before the first forward.
    pub fn operand_histograms(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        self.cache.operand_histograms(self.lut.bits())
    }

    /// Number of batches the activation observer rejected for non-finite
    /// extrema (see [`Observer::rejected`]).
    pub fn observer_rejections(&self) -> usize {
        self.observer.rejected()
    }

    /// How many times the memoized per-row weight code sums have been
    /// rebuilt (once per weight requantization; stays flat across eval
    /// batches with unchanged weights).
    pub fn sum_w_rebuilds(&self) -> u64 {
        self.cache.sum_w_builds
    }
}

impl ApproxConv2d {
    /// [`Module::forward`], with every dispatch scheduled by `sched`.
    fn forward_on(&mut self, input: &Tensor, train: bool, sched: Sched) -> Tensor {
        let _span = appmult_obs::global().span("conv2d.forward");
        let s = input.shape();
        assert_eq!(s.len(), 4, "expected NCHW input");
        assert_eq!(s[1], self.spec.in_channels, "channel mismatch");
        let (n, h, w) = (s[0], s[2], s[3]);
        let (oh, ow) = self.spec.out_hw(h, w);
        let bits = self.lut.bits();

        let xq_params = activation_params(&mut self.observer, input, train, self.scheme, bits);
        let (wlo, whi) = self.weight.value.min_max();
        let wq_params = scheme_params(self.scheme, wlo, whi, bits);

        let (m, j, k) = (n * oh * ow, self.spec.out_channels, self.spec.patch_len());
        // The image pass feeds the forward GEMM, `oh * ow * j` outputs of
        // `k` MACs per image.
        let pool = sched.pool(k, oh * ow * j);
        let (xq, xclip) = gather_codes(input, &self.spec, &xq_params, pool);
        let (wq, wclip) = quantize_slice(self.weight.value.as_slice(), &wq_params);
        self.cache.update(
            wq,
            xq,
            wclip,
            xclip,
            wq_params,
            xq_params,
            self.scheme,
            m,
            j,
            k,
        );
        self.input_hw = (n, h, w);
        let rows = gemm_forward(
            &self.cache,
            &self.lut,
            self.bias.value.as_slice(),
            sched,
            self.kernel,
        );
        rows_to_nchw(&rows, n, j, oh, ow)
    }

    /// [`Module::backward`], with every dispatch scheduled by `sched`.
    fn backward_on(&mut self, grad_out: &Tensor, sched: Sched) -> Tensor {
        let _span = appmult_obs::global().span("conv2d.backward");
        assert!(self.cache.populated(), "backward before forward");
        let (j, k) = (self.cache.j, self.cache.k);
        let (_, h, w) = self.input_hw;
        let (oh, ow) = self.spec.out_hw(h, w);
        let g_rows = nchw_to_rows(grad_out);
        let (dw, dx) = gemm_backward(&self.cache, &self.grads, &g_rows, sched, self.kernel);
        // The image pass folds the `[M, K]` dX GEMM, `oh * ow * k` elements
        // of `j` MACs per image.
        let pool = sched.pool(j, oh * ow * k);
        let grad_in = conv_input_grad(&dx, &self.spec, self.input_hw, pool);
        self.weight.grad.add_scaled(&dw, 1.0);
        let db = self.bias.grad.as_mut_slice();
        for row in g_rows.as_slice().chunks(j) {
            for (d, g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        grad_in
    }
}

impl Module for ApproxConv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_on(input, train, Sched::global())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_on(grad_out, Sched::global())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

/// A fully connected layer with AppMult LUT forward and gradient-LUT
/// backward, mirroring [`ApproxConv2d`] for `[N, in]` batches.
#[derive(Debug)]
pub struct ApproxLinear {
    weight: Parameter, // [out, in]
    bias: Parameter,
    lut: Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
    observer: Observer,
    scheme: QuantScheme,
    cache: GemmCache,
    kernel: Kernel,
}

impl ApproxLinear {
    /// Creates the layer with fan-in uniform initialization.
    pub fn new(
        in_features: usize,
        out_features: usize,
        seed: u64,
        lut: Arc<MultiplierLut>,
        grads: Arc<GradientLut>,
        config: QuantConfig,
    ) -> Self {
        let weight =
            appmult_nn::init::uniform_fan_in(&[out_features, in_features], in_features, seed);
        Self::with_params(weight, Tensor::zeros(&[out_features]), lut, grads, config)
    }

    /// Wraps existing float weights.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 2, `bias` does not match its first
    /// dimension, the LUT bit widths disagree, or the gradient tables fail
    /// [`GradientLut::validate`].
    pub fn with_params(
        weight: Tensor,
        bias: Tensor,
        lut: Arc<MultiplierLut>,
        grads: Arc<GradientLut>,
        config: QuantConfig,
    ) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be [out, in]");
        assert_eq!(bias.shape(), &[weight.shape()[0]], "bias shape mismatch");
        assert_eq!(lut.bits(), grads.bits(), "LUT bit widths disagree");
        if let Err(e) = grads.validate() {
            panic!("gradient LUT rejected: {e}");
        }
        Self {
            weight: Parameter::new(weight, true),
            bias: Parameter::new(bias, false),
            lut,
            grads,
            observer: Observer::new(config.ema_momentum),
            scheme: config.scheme,
            cache: GemmCache::default(),
            kernel: Kernel::global(),
        }
    }

    /// The GEMM kernel this layer runs ([`Kernel::global`] at
    /// construction).
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Overrides the GEMM kernel for this layer (e.g. to cross-check
    /// tiled vs naive in tests).
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Normalized weight/activation code histograms from the most recent
    /// forward pass. `None` before the first forward.
    pub fn operand_histograms(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        self.cache.operand_histograms(self.lut.bits())
    }

    /// Number of batches the activation observer rejected for non-finite
    /// extrema (see [`Observer::rejected`]).
    pub fn observer_rejections(&self) -> usize {
        self.observer.rejected()
    }

    /// How many times the memoized per-row weight code sums have been
    /// rebuilt (once per weight requantization; stays flat across eval
    /// batches with unchanged weights).
    pub fn sum_w_rebuilds(&self) -> u64 {
        self.cache.sum_w_builds
    }
}

impl Module for ApproxLinear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let _span = appmult_obs::global().span("linear.forward");
        assert_eq!(input.shape().len(), 2, "expected [N, in] input");
        assert_eq!(input.shape()[1], self.in_features(), "feature mismatch");
        let bits = self.lut.bits();
        let xq_params = activation_params(&mut self.observer, input, train, self.scheme, bits);
        let (wlo, whi) = self.weight.value.min_max();
        let wq_params = scheme_params(self.scheme, wlo, whi, bits);
        let (xq, xclip) = quantize_slice(input.as_slice(), &xq_params);
        let (wq, wclip) = quantize_slice(self.weight.value.as_slice(), &wq_params);
        self.cache.update(
            wq,
            xq,
            wclip,
            xclip,
            wq_params,
            xq_params,
            self.scheme,
            input.shape()[0],
            self.out_features(),
            self.in_features(),
        );
        gemm_forward(
            &self.cache,
            &self.lut,
            self.bias.value.as_slice(),
            Sched::global(),
            self.kernel,
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _span = appmult_obs::global().span("linear.backward");
        assert!(self.cache.populated(), "backward before forward");
        let sched = Sched::global();
        let (dw, dx) = gemm_backward(&self.cache, &self.grads, grad_out, sched, self.kernel);
        let dx = dx.rows(sched);
        self.weight.grad.add_scaled(&dw, 1.0);
        let jdim = self.out_features();
        {
            let db = self.bias.grad.as_mut_slice();
            for row in grad_out.as_slice().chunks(jdim) {
                for (d, g) in db.iter_mut().zip(row) {
                    *d += g;
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientMode;
    use appmult_mult::{ExactMultiplier, Multiplier, TruncatedMultiplier};
    use appmult_nn::layers::{Conv2d, Linear};

    fn exact8() -> (Arc<MultiplierLut>, Arc<GradientLut>) {
        let lut = Arc::new(ExactMultiplier::new(8).to_lut());
        let grads = Arc::new(GradientLut::build(&lut, GradientMode::Ste));
        (lut, grads)
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

    #[test]
    fn exact_lut_conv_tracks_float_conv() {
        // With the exact multiplier and 8-bit quantization, the approximate
        // conv must match an identically-weighted float conv to within
        // quantization error.
        let (lut, grads) = exact8();
        let mut float_conv = Conv2d::new(2, 3, 3, 1, 1, 11);
        let weight = float_conv.weight().value.clone();
        let spec = *float_conv.spec();
        let mut approx = ApproxConv2d::with_params(
            spec,
            weight,
            Tensor::zeros(&[3]),
            lut,
            grads,
            QuantConfig::default(),
        );
        let x = ramp(&[1, 2, 6, 6], 1.0);
        let yf = float_conv.forward(&x, true);
        let ya = approx.forward(&x, true);
        let (_, hi) = yf.min_max();
        for (a, b) in ya.as_slice().iter().zip(yf.as_slice()) {
            assert!(
                (a - b).abs() < 0.05 * hi.abs().max(1.0),
                "approx {a} vs float {b}"
            );
        }
    }

    #[test]
    fn exact_lut_linear_tracks_float_linear() {
        let (lut, grads) = exact8();
        let mut fl = Linear::new(6, 4, 3);
        let mut approx = ApproxLinear::with_params(
            Tensor::zeros(&[4, 6]),
            Tensor::zeros(&[4]),
            lut,
            grads,
            QuantConfig::default(),
        );
        // Copy the float layer's weights into the approximate layer.
        let mut weights = vec![];
        fl.visit_params(&mut |p| weights.push(p.value.clone()));
        approx.visit_params(&mut |p| {
            p.value = weights.remove(0);
        });
        let x = ramp(&[3, 6], 2.0);
        let yf = fl.forward(&x, true);
        let ya = approx.forward(&x, true);
        for (a, b) in ya.as_slice().iter().zip(yf.as_slice()) {
            assert!((a - b).abs() < 0.05, "approx {a} vs float {b}");
        }
    }

    #[test]
    fn ste_backward_matches_fakequant_reference() {
        // With STE gradients, dL/dw reduces to sum_m g * x_hat where x_hat
        // is the dequantized activation. Verify against a direct evaluation.
        let (lut, grads) = exact8();
        let mut approx = ApproxLinear::with_params(
            ramp(&[2, 3], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::default(),
        );
        let x = ramp(&[4, 3], 1.5);
        approx.forward(&x, true);
        let g = ramp(&[4, 2], 0.7);
        approx.backward(&g);

        // Reference: dW[j][k] = sum_m g[m][j] * xhat[m][k]
        let xq = approx.cache.xq_params.expect("populated");
        let mut expect = vec![0.0f32; 2 * 3];
        for m in 0..4 {
            for j in 0..2 {
                for k in 0..3 {
                    let code = approx.cache.xq[m * 3 + k];
                    expect[j * 3 + k] += g.at(&[m, j]) * xq.dequantize(code.into());
                }
            }
        }
        // Clip mask (all in range here).
        let mut got = vec![];
        approx.visit_params(&mut |p| got.push(p.grad.clone()));
        for (a, b) in got[0].as_slice().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn clipped_values_get_zero_weight_gradient() {
        let (lut, grads) = exact8();
        // One weight far outside any reasonable range... weights define the
        // range themselves, so clip via activations instead: feed a batch
        // with a huge outlier after calibrating on a small batch.
        let mut approx = ApproxLinear::with_params(
            ramp(&[2, 3], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig {
                ema_momentum: 0.01,
                ..QuantConfig::default()
            },
        );
        let small = ramp(&[4, 3], 0.5);
        approx.forward(&small, true); // calibrate on small range
        let mut big = small.clone();
        big.as_mut_slice()[0] = 100.0; // way outside the EMA range
        approx.forward(&big, true);
        let g = Tensor::full(&[4, 2], 1.0);
        let dx = approx.backward(&g);
        assert_eq!(dx.as_slice()[0], 0.0, "clipped activation gradient");
        assert!(
            dx.as_slice()[1] != 0.0,
            "in-range activations keep gradient"
        );
    }

    #[test]
    fn gradient_lut_swap_changes_backward_only() {
        let lut = Arc::new(TruncatedMultiplier::new(8, 8).to_lut());
        let ste = Arc::new(GradientLut::build(&lut, GradientMode::Ste));
        let diff = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(16)));
        let x = ramp(&[2, 2, 5, 5], 1.0);
        let g = ramp(&[2, 3, 5, 5], 1.0);

        let run = |grads: Arc<GradientLut>| {
            let mut conv = ApproxConv2d::with_params(
                Conv2dSpec::same(2, 3, 3),
                ramp(&[3, 18], 0.8),
                Tensor::zeros(&[3]),
                lut.clone(),
                grads,
                QuantConfig::default(),
            );
            let y = conv.forward(&x, true);
            let dx = conv.backward(&g);
            (y, dx)
        };
        let (y1, dx1) = run(ste);
        let (y2, dx2) = run(diff);
        assert_eq!(y1, y2, "forward must not depend on the gradient mode");
        assert_ne!(dx1, dx2, "backward must depend on the gradient mode");
    }

    #[test]
    fn approx_linear_gradcheck_under_every_gradient_mode() {
        // Finite differences cannot see through the quantized LUT (the
        // float function is piecewise constant), so — as in the conv
        // gradcheck below — each mode's backward pass is checked against a
        // direct evaluation of the Eq. 9 sums using that mode's own
        // gradient tables, clip masks included.
        let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
        let n = lut.entries().len();
        let custom = GradientMode::Custom {
            wrt_w: Arc::new((0..n).map(|i| (i % 7) as f32 * 0.25).collect()),
            wrt_x: Arc::new((0..n).map(|i| (i % 5) as f32 * 0.5).collect()),
        };
        let marg: Vec<f64> = {
            let n = 1usize << lut.bits();
            let total = (n * (n + 1) / 2) as f64;
            (0..n).map(|i| (i + 1) as f64 / total).collect()
        };
        let modes = [
            GradientMode::Ste,
            GradientMode::difference_based(8),
            GradientMode::least_squares(1),
            GradientMode::difference_kernel(8, crate::SmoothingKernel::Triangular),
            GradientMode::difference_kernel(8, crate::SmoothingKernel::Gaussian),
            GradientMode::least_squares(4),
            GradientMode::marginal_weighted(8, marg.clone(), marg),
            GradientMode::Surrogate,
            custom,
        ];
        let (m, j, k) = (2usize, 3usize, 4usize);
        // Eq. 9 must hold per gradient mode *and* per kernel engine: a
        // fresh layer is gradchecked under both the naive and the tiled
        // backward kernels.
        let kernels = [Kernel::Naive, Kernel::Tiled];
        for (mode, kernel) in modes
            .iter()
            .flat_map(|mo| kernels.iter().map(move |ke| (mo.clone(), *ke)))
        {
            let label = format!("{}/{}", mode.key(), kernel.label());
            let grads = Arc::new(GradientLut::build(&lut, mode));
            let mut layer = ApproxLinear::with_params(
                ramp(&[j, k], 1.1),
                Tensor::zeros(&[j]),
                lut.clone(),
                grads.clone(),
                QuantConfig::default(),
            );
            layer.set_kernel(kernel);
            let x = ramp(&[m, k], 1.6);
            layer.forward(&x, true);
            let g = ramp(&[m, j], 0.9);
            let dx = layer.backward(&g);

            let c = &layer.cache;
            let wqp = c.wq_params.expect("populated");
            let xqp = c.xq_params.expect("populated");
            // dX: dL/dx[mi][kk] = sum_j g * s_w * (gX(w, x) - Z_w), gated
            // by the Q'(x) clip mask.
            for mi in 0..m {
                for kk in 0..k {
                    let mut expect = 0.0f32;
                    for ji in 0..j {
                        let iw = u32::from(c.wq[ji * k + kk]);
                        let ix = u32::from(c.xq[mi * k + kk]);
                        expect += g.at(&[mi, ji])
                            * wqp.scale
                            * (grads.wrt_x(iw, ix) - wqp.zero_point as f32);
                    }
                    if !c.xclip[mi * k + kk] {
                        expect = 0.0;
                    }
                    let got = dx.at(&[mi, kk]);
                    assert!(
                        (got - expect).abs() < 1e-4,
                        "{label}: dX[{mi},{kk}] = {got} vs {expect}"
                    );
                }
            }
            // dW: dL/dw[ji][kk] = sum_m g * s_x * (gW(w, x) - Z_x), gated
            // by the Q'(w) clip mask.
            for ji in 0..j {
                for kk in 0..k {
                    let mut expect = 0.0f32;
                    for mi in 0..m {
                        let iw = u32::from(c.wq[ji * k + kk]);
                        let ix = u32::from(c.xq[mi * k + kk]);
                        expect += g.at(&[mi, ji])
                            * xqp.scale
                            * (grads.wrt_w(iw, ix) - xqp.zero_point as f32);
                    }
                    if !c.wclip[ji * k + kk] {
                        expect = 0.0;
                    }
                    let got = layer.weight.grad.at(&[ji, kk]);
                    assert!(
                        (got - expect).abs() < 1e-4,
                        "{label}: dW[{ji},{kk}] = {got} vs {expect}"
                    );
                }
            }
        }
    }

    fn signed_exact8() -> Arc<MultiplierLut> {
        use appmult_mult::SignMagnitudeMultiplier;
        Arc::new(SignMagnitudeMultiplier::new(ExactMultiplier::new(8)).to_offset_lut())
    }

    fn signed_grads(lut: &MultiplierLut, mode: GradientMode) -> GradientLut {
        GradientLut::try_build_for(lut, mode, QuantScheme::SignedOffset, Pool::global())
            .expect("built-in estimators build")
    }

    #[test]
    fn signed_exact_lut_linear_tracks_float_linear() {
        // The signed offset path with the exact multiplier must reproduce a
        // float linear layer to within quantization error — including
        // negative weights and activations, which the unsigned scheme only
        // reaches through its affine zero point.
        let lut = signed_exact8();
        let grads = Arc::new(signed_grads(&lut, GradientMode::Ste));
        let mut fl = Linear::new(6, 4, 3);
        let mut approx = ApproxLinear::with_params(
            Tensor::zeros(&[4, 6]),
            Tensor::zeros(&[4]),
            lut,
            grads,
            QuantConfig::signed(),
        );
        let mut weights = vec![];
        fl.visit_params(&mut |p| weights.push(p.value.clone()));
        approx.visit_params(&mut |p| {
            p.value = weights.remove(0);
        });
        let x = ramp(&[3, 6], 2.0); // spans negative and positive values
        let yf = fl.forward(&x, true);
        let ya = approx.forward(&x, true);
        for (a, b) in ya.as_slice().iter().zip(yf.as_slice()) {
            assert!((a - b).abs() < 0.05, "approx {a} vs float {b}");
        }
    }

    #[test]
    fn signed_exact_lut_conv_tracks_float_conv() {
        let lut = signed_exact8();
        let grads = Arc::new(signed_grads(&lut, GradientMode::Ste));
        let mut float_conv = Conv2d::new(2, 3, 3, 1, 1, 11);
        let weight = float_conv.weight().value.clone();
        let spec = *float_conv.spec();
        let mut approx = ApproxConv2d::with_params(
            spec,
            weight,
            Tensor::zeros(&[3]),
            lut,
            grads,
            QuantConfig::signed(),
        );
        let x = ramp(&[1, 2, 6, 6], 1.0);
        let yf = float_conv.forward(&x, true);
        let ya = approx.forward(&x, true);
        let (_, hi) = yf.min_max();
        for (a, b) in ya.as_slice().iter().zip(yf.as_slice()) {
            assert!(
                (a - b).abs() < 0.05 * hi.abs().max(1.0),
                "approx {a} vs float {b}"
            );
        }
    }

    #[test]
    fn approx_linear_signed_gradcheck_under_every_gradient_mode() {
        // The signed mirror of the sweep above: offset-binary codes from a
        // sign-magnitude truncated multiplier, gradient tables built under
        // the SignedOffset scheme, and the Eq. 9 sums evaluated with *no*
        // zero-point correction (the offsets are folded into the tables).
        use appmult_mult::SignMagnitudeMultiplier;
        let lut =
            Arc::new(SignMagnitudeMultiplier::new(TruncatedMultiplier::new(8, 6)).to_offset_lut());
        let marg: Vec<f64> = {
            let n = 1usize << lut.bits();
            let total = (n * (n + 1) / 2) as f64;
            (0..n).map(|i| (i + 1) as f64 / total).collect()
        };
        let modes = [
            GradientMode::Ste,
            GradientMode::difference_based(8),
            GradientMode::least_squares(1),
            GradientMode::difference_kernel(8, crate::SmoothingKernel::Triangular),
            GradientMode::difference_kernel(8, crate::SmoothingKernel::Gaussian),
            GradientMode::least_squares(4),
            GradientMode::marginal_weighted(8, marg.clone(), marg),
            GradientMode::Surrogate,
        ];
        let (m, j, k) = (2usize, 3usize, 4usize);
        let kernels = [Kernel::Naive, Kernel::Tiled];
        for (mode, kernel) in modes
            .iter()
            .flat_map(|mo| kernels.iter().map(move |ke| (mo.clone(), *ke)))
        {
            let label = format!("signed {}/{}", mode.key(), kernel.label());
            let grads = Arc::new(signed_grads(&lut, mode));
            let mut layer = ApproxLinear::with_params(
                ramp(&[j, k], 1.1),
                Tensor::zeros(&[j]),
                lut.clone(),
                grads.clone(),
                QuantConfig::signed(),
            );
            layer.set_kernel(kernel);
            let x = ramp(&[m, k], 1.6);
            layer.forward(&x, true);
            let g = ramp(&[m, j], 0.9);
            let dx = layer.backward(&g);

            let c = &layer.cache;
            let wqp = c.wq_params.expect("populated");
            let xqp = c.xq_params.expect("populated");
            assert_eq!(wqp.zero_point, 128, "{label}: signed weight zero point");
            assert_eq!(xqp.zero_point, 128, "{label}: signed activation zero point");
            // dX: dL/dx[mi][kk] = sum_j g * s_w * gX(w, x), gated by Q'(x).
            for mi in 0..m {
                for kk in 0..k {
                    let mut expect = 0.0f32;
                    for ji in 0..j {
                        let iw = u32::from(c.wq[ji * k + kk]);
                        let ix = u32::from(c.xq[mi * k + kk]);
                        expect += g.at(&[mi, ji]) * wqp.scale * grads.wrt_x(iw, ix);
                    }
                    if !c.xclip[mi * k + kk] {
                        expect = 0.0;
                    }
                    let got = dx.at(&[mi, kk]);
                    assert!(
                        (got - expect).abs() < 1e-4,
                        "{label}: dX[{mi},{kk}] = {got} vs {expect}"
                    );
                }
            }
            // dW: dL/dw[ji][kk] = sum_m g * s_x * gW(w, x), gated by Q'(w).
            for ji in 0..j {
                for kk in 0..k {
                    let mut expect = 0.0f32;
                    for mi in 0..m {
                        let iw = u32::from(c.wq[ji * k + kk]);
                        let ix = u32::from(c.xq[mi * k + kk]);
                        expect += g.at(&[mi, ji]) * xqp.scale * grads.wrt_w(iw, ix);
                    }
                    if !c.wclip[ji * k + kk] {
                        expect = 0.0;
                    }
                    let got = layer.weight.grad.at(&[ji, kk]);
                    assert!(
                        (got - expect).abs() < 1e-4,
                        "{label}: dW[{ji},{kk}] = {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_ste_backward_matches_fakequant_reference() {
        // Under signed STE, dL/dw reduces to sum_m g * s_x (X - 128) =
        // sum_m g * xhat — the same fake-quant reference as the unsigned
        // test, reached through an entirely different dequantization.
        let lut = signed_exact8();
        let grads = Arc::new(signed_grads(&lut, GradientMode::Ste));
        let mut approx = ApproxLinear::with_params(
            ramp(&[2, 3], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::signed(),
        );
        let x = ramp(&[4, 3], 1.5);
        approx.forward(&x, true);
        let g = ramp(&[4, 2], 0.7);
        approx.backward(&g);

        let xq = approx.cache.xq_params.expect("populated");
        let mut expect = vec![0.0f32; 2 * 3];
        for m in 0..4 {
            for j in 0..2 {
                for k in 0..3 {
                    let code = approx.cache.xq[m * 3 + k];
                    expect[j * 3 + k] += g.at(&[m, j]) * xq.dequantize(code.into());
                }
            }
        }
        let mut got = vec![];
        approx.visit_params(&mut |p| got.push(p.grad.clone()));
        for (a, b) in got[0].as_slice().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn approx_conv_gradcheck_against_its_own_surrogate() {
        // The backward pass implements Eq. 9 exactly for the LUT gradients;
        // with the exact multiplier + STE this is the fake-quant gradient,
        // which matches finite differences of the float function away from
        // rounding boundaries only in expectation. Here we check the
        // *implementation* instead: dL/dx from backward equals the direct
        // evaluation of the Eq. 9 sum.
        let (lut, grads) = exact8();
        for kernel in [Kernel::Naive, Kernel::Tiled] {
            let mut conv = ApproxConv2d::with_params(
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 2,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                },
                ramp(&[2, 1], 1.0),
                Tensor::zeros(&[2]),
                lut.clone(),
                grads.clone(),
                QuantConfig::default(),
            );
            conv.set_kernel(kernel);
            let x = ramp(&[1, 1, 2, 2], 1.0);
            conv.forward(&x, true);
            let g = ramp(&[1, 2, 2, 2], 1.0);
            let dx = conv.backward(&g);

            // Direct Eq. 9 for a 1x1 conv: dx[m] = sum_j g[m][j] * s_w *
            // (gX(W[j], X[m]) - Z_w) (all values in range here).
            let c = &conv.cache;
            let wqp = c.wq_params.expect("populated");
            let g_rows = nchw_to_rows(&g);
            for m in 0..4 {
                let mut expect = 0.0f32;
                for j in 0..2 {
                    let idx_w = c.wq[j] as u32;
                    let idx_x = c.xq[m] as u32;
                    expect += g_rows.at(&[m, j])
                        * wqp.scale
                        * (grads.wrt_x(idx_w, idx_x) - wqp.zero_point as f32);
                }
                let got = dx.as_slice()[m];
                assert!(
                    (got - expect).abs() < 1e-5,
                    "{}: m={m}: {got} vs {expect}",
                    kernel.label()
                );
            }
        }
    }

    #[test]
    fn operand_histograms_are_distributions() {
        let (lut, grads) = exact8();
        let mut approx = ApproxLinear::with_params(
            ramp(&[2, 3], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::default(),
        );
        assert!(approx.operand_histograms().is_none());
        approx.forward(&ramp(&[4, 3], 1.5), true);
        let (wh, xh) = approx.operand_histograms().expect("after forward");
        assert_eq!(wh.len(), 256);
        assert_eq!(xh.len(), 256);
        assert!((wh.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((xh.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Feed the marginals into the distribution-aware metrics.
        let metrics = appmult_mult::ErrorMetrics::with_marginals(approx.lut.as_ref(), &wh, &xh);
        assert_eq!(metrics.max_ed, 0, "exact multiplier has no error");
    }

    /// `pool` with no work-size floor, so even tiny shapes fan out.
    fn unfloored(pool: Pool) -> Sched {
        Sched {
            pool,
            floor_macs: 0,
        }
    }

    /// `pool` under the production work-size floor.
    fn floored(pool: Pool) -> Sched {
        Sched {
            pool,
            floor_macs: PAR_FLOOR_MACS,
        }
    }

    fn bits_of(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs one forward to populate the cache, then evaluates both GEMM
    /// kernels serially and with `threads` workers scheduled by `sched`,
    /// asserting bit-identical outputs (`f32::to_bits`, not approximate
    /// equality).
    fn assert_gemm_parity(m: usize, j: usize, k: usize, threads: usize, sched: fn(Pool) -> Sched) {
        let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
        let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
        let mut layer = ApproxLinear::with_params(
            ramp(&[j, k], 1.2),
            ramp(&[j], 0.2),
            lut.clone(),
            grads.clone(),
            QuantConfig::default(),
        );
        let x = ramp(&[m, k], 1.7);
        layer.forward(&x, true);

        let (serial, pool) = (sched(Pool::serial()), sched(Pool::new(threads)));
        let bias = layer.bias.value.as_slice();
        let g = ramp(&[m, j], 0.9);
        // Serial naive is the reference; every (kernel, pool) combination
        // must reproduce it bit for bit.
        let y_ref = gemm_forward(&layer.cache, &lut, bias, serial, Kernel::Naive);
        let (dw_ref, dx_ref) = gemm_backward(&layer.cache, &grads, &g, serial, Kernel::Naive);
        let dx_ref = dx_ref.rows(serial);
        for kernel in [Kernel::Naive, Kernel::Tiled] {
            let y = gemm_forward(&layer.cache, &lut, bias, pool, kernel);
            assert_eq!(
                bits_of(&y_ref),
                bits_of(&y),
                "forward m={m} j={j} k={k} threads={threads} kernel={}",
                kernel.label()
            );
            let (dw, dx) = gemm_backward(&layer.cache, &grads, &g, pool, kernel);
            let dx = dx.rows(pool);
            assert_eq!(
                bits_of(&dw_ref),
                bits_of(&dw),
                "dW m={m} j={j} k={k} threads={threads} kernel={}",
                kernel.label()
            );
            assert_eq!(
                bits_of(&dx_ref),
                bits_of(&dx),
                "dX m={m} j={j} k={k} threads={threads} kernel={}",
                kernel.label()
            );
        }
    }

    #[test]
    fn zero_sized_batch_flows_through_forward_and_backward() {
        // A legitimate m = 0 batch must round-trip both layers under both
        // kernels without tripping the populated-cache guard.
        let (lut, grads) = exact8();
        for kernel in [Kernel::Naive, Kernel::Tiled] {
            let mut lin = ApproxLinear::with_params(
                ramp(&[3, 4], 1.0),
                Tensor::zeros(&[3]),
                lut.clone(),
                grads.clone(),
                QuantConfig::default(),
            );
            lin.set_kernel(kernel);
            let y = lin.forward(&Tensor::zeros(&[0, 4]), true);
            assert_eq!(y.shape(), &[0, 3]);
            let dx = lin.backward(&Tensor::zeros(&[0, 3]));
            assert_eq!(dx.shape(), &[0, 4]);
            assert!(
                lin.weight.grad.as_slice().iter().all(|&v| v == 0.0),
                "no batch rows, no weight gradient"
            );

            let mut conv = ApproxConv2d::with_params(
                Conv2dSpec::same(1, 2, 3),
                ramp(&[2, 9], 1.0),
                Tensor::zeros(&[2]),
                lut.clone(),
                grads.clone(),
                QuantConfig::default(),
            );
            conv.set_kernel(kernel);
            let y = conv.forward(&Tensor::zeros(&[0, 1, 4, 4]), true);
            assert_eq!(y.shape(), &[0, 2, 4, 4]);
            let dx = conv.backward(&Tensor::zeros(&[0, 2, 4, 4]));
            assert_eq!(dx.shape(), &[0, 1, 4, 4]);
        }
    }

    #[test]
    fn empty_train_batches_leave_the_observer_range_alone() {
        // A zero-sized batch has no extrema: folding min_max's (0, 0)
        // placeholder would shrink a calibrated range, or pin a fresh one
        // to (0, 0) and clip every later activation.
        let (lut, grads) = exact8();
        let mut lin = ApproxLinear::with_params(
            ramp(&[3, 4], 1.0),
            Tensor::zeros(&[3]),
            lut.clone(),
            grads.clone(),
            QuantConfig::default(),
        );
        let mut conv = ApproxConv2d::with_params(
            Conv2dSpec::same(1, 2, 3),
            ramp(&[2, 9], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::default(),
        );
        lin.forward(&Tensor::zeros(&[0, 4]), true);
        conv.forward(&Tensor::zeros(&[0, 1, 4, 4]), true);
        assert_eq!(lin.observer.range(), None, "linear: fresh range not pinned");
        assert_eq!(conv.observer.range(), None, "conv: fresh range not pinned");

        lin.forward(&ramp(&[3, 4], 1.5), true);
        conv.forward(&ramp(&[2, 1, 4, 4], 1.5), true);
        let (lin_range, conv_range) = (lin.observer.range(), conv.observer.range());
        assert!(lin_range.is_some() && conv_range.is_some());
        lin.forward(&Tensor::zeros(&[0, 4]), true);
        conv.forward(&Tensor::zeros(&[0, 1, 4, 4]), true);
        assert_eq!(lin.observer.range(), lin_range, "linear: range moved");
        assert_eq!(conv.observer.range(), conv_range, "conv: range moved");
        assert_eq!(lin.observer_rejections(), 0);
        assert_eq!(conv.observer_rejections(), 0);
    }

    #[test]
    fn sum_w_is_memoized_across_unchanged_weights() {
        let (lut, grads) = exact8();
        let mut lin = ApproxLinear::with_params(
            ramp(&[2, 3], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::default(),
        );
        assert_eq!(lin.sum_w_rebuilds(), 0);
        let x1 = ramp(&[4, 3], 1.5);
        let y1 = lin.forward(&x1, false);
        assert_eq!(lin.sum_w_rebuilds(), 1, "first forward builds the sums");
        // Eval loop: same weights, different batches — sums are reused.
        lin.forward(&ramp(&[5, 3], 0.7), false);
        let y1_again = lin.forward(&x1, false);
        assert_eq!(lin.sum_w_rebuilds(), 1, "unchanged weights reuse the sums");
        assert_eq!(y1, y1_again, "memoization must not change outputs");
        // A weight update requantizes and invalidates the memo.
        lin.weight.value.as_mut_slice()[0] += 0.5;
        lin.forward(&x1, false);
        assert_eq!(lin.sum_w_rebuilds(), 2, "changed weights rebuild the sums");
    }

    #[test]
    fn parallel_gemm_is_bit_identical_to_serial() {
        // Shapes deliberately not divisible by the worker counts, single-row
        // and single-column degenerate cases, and one shape one past the
        // tiled kernel's 64 × 16 × 64 extents in every dimension.
        for &(m, j, k) in &[
            (5usize, 3usize, 7usize),
            (1, 1, 1),
            (17, 5, 11),
            (4, 2, 1),
            (1, 8, 3),
            (65, 17, 65),
        ] {
            for threads in [1usize, 2, 3, 4, 8] {
                assert_gemm_parity(m, j, k, threads, unfloored);
            }
        }
    }

    #[test]
    fn conv_image_partition_is_bit_identical_to_serial() {
        // The conv's glue runs one image per pool row: the quantize-gather
        // in forward, the dX -> col2im fold in backward. With no floor,
        // every worker count must reproduce the serial naive run bit for
        // bit, on padded and strided specs with clipped (NaN, huge)
        // pixels, including batches smaller than the worker count.
        let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
        let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
        let spec = |in_channels, out_channels, kernel, stride, padding| Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        };
        for spec in [
            spec(2, 3, 3, 1, 1),
            spec(3, 2, 3, 2, 2),
            spec(1, 4, 2, 3, 0),
        ] {
            for n in [0usize, 1, 2, 7] {
                let (h, w) = (7, 6);
                let (oh, ow) = spec.out_hw(h, w);
                let mut x = ramp(&[n, spec.in_channels, h, w], 2.0);
                for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                    match i % 13 {
                        3 => *v = f32::NAN,
                        8 => *v = 1e6,
                        _ => {}
                    }
                }
                let g = ramp(&[n, spec.out_channels, oh, ow], 0.9);
                let run = |sched: Sched, kernel: Kernel| {
                    let mut conv = ApproxConv2d::with_params(
                        spec,
                        ramp(&[spec.out_channels, spec.patch_len()], 1.1),
                        ramp(&[spec.out_channels], 0.2),
                        lut.clone(),
                        grads.clone(),
                        QuantConfig::default(),
                    );
                    conv.set_kernel(kernel);
                    conv.forward_on(&ramp(&[1, spec.in_channels, h, w], 1.0), true, sched);
                    let y = conv.forward_on(&x, true, sched);
                    let dx = conv.backward_on(&g, sched);
                    (bits_of(&y), bits_of(&dx), bits_of(&conv.weight.grad))
                };
                let want = run(unfloored(Pool::serial()), Kernel::Naive);
                for threads in [1usize, 2, 3, 5] {
                    for kernel in [Kernel::Naive, Kernel::Tiled] {
                        assert!(
                            run(unfloored(Pool::new(threads)), kernel) == want,
                            "{spec:?} n={n} threads={threads} kernel={}",
                            kernel.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn production_floor_blocks_are_bit_identical_to_serial() {
        // Under the real PAR_FLOOR_MACS scheduling every dispatch splits
        // into floor-sized blocks that threads claim on demand. LeNet
        // conv1 on perfbench's 16x16 input (M = 144 per image) splits its
        // forward into 16 blocks at two workers; the VGG-S stage-3 shape
        // (4x4, M = 16 per image) runs its batch-1 forward serially, below
        // one kernel M tile, while its dW still splits. Forward output,
        // input gradient and dW must match the serial run bit for bit.
        let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
        let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
        let lenet_conv1 = Conv2dSpec {
            in_channels: 3,
            out_channels: 6,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        for (spec, hw) in [(lenet_conv1, 16), (Conv2dSpec::same(16, 32, 3), 4)] {
            let (oh, ow) = spec.out_hw(hw, hw);
            for n in [1usize, 7, 32] {
                let mut x = ramp(&[n, spec.in_channels, hw, hw], 2.0);
                for v in x.as_mut_slice().iter_mut().step_by(17) {
                    *v = 1e6;
                }
                let g = ramp(&[n, spec.out_channels, oh, ow], 0.9);
                let run = |sched: Sched| {
                    let mut conv = ApproxConv2d::with_params(
                        spec,
                        ramp(&[spec.out_channels, spec.patch_len()], 1.1),
                        ramp(&[spec.out_channels], 0.2),
                        lut.clone(),
                        grads.clone(),
                        QuantConfig::default(),
                    );
                    conv.set_kernel(Kernel::Tiled);
                    conv.forward_on(&ramp(&[1, spec.in_channels, hw, hw], 1.0), true, sched);
                    let y = conv.forward_on(&x, true, sched);
                    let dx = conv.backward_on(&g, sched);
                    (bits_of(&y), bits_of(&dx), bits_of(&conv.weight.grad))
                };
                let want = run(floored(Pool::serial()));
                for threads in [2usize, 3, 5] {
                    assert!(
                        run(floored(Pool::new(threads))) == want,
                        "{spec:?} {hw}x{hw} n={n} threads={threads}"
                    );
                }
            }
        }
        // LeNet-sized fully connected shapes through the linear layer's
        // GEMMs.
        for (j, k) in [(120usize, 400usize), (84, 120)] {
            for m in [1usize, 7, 32] {
                for threads in [2usize, 3, 5] {
                    assert_gemm_parity(m, j, k, threads, floored);
                }
            }
        }
    }

    #[test]
    fn parallel_gemm_parity_on_random_shapes() {
        let mut rng = appmult_rng::Rng64::seed_from_u64(0x6E44);
        for _ in 0..12 {
            let m = 1 + rng.below(24) as usize;
            let j = 1 + rng.below(9) as usize;
            let k = 1 + rng.below(13) as usize;
            let threads = 1 + rng.below(6) as usize;
            assert_gemm_parity(m, j, k, threads, unfloored);
        }
    }

    #[test]
    #[should_panic(expected = "gradient LUT rejected")]
    fn poisoned_gradient_lut_is_rejected_at_construction() {
        let lut = Arc::new(ExactMultiplier::new(4).to_lut());
        let mut bad = vec![1.0f32; 256];
        bad[5] = f32::INFINITY;
        let grads = Arc::new(GradientLut::build(
            &lut,
            GradientMode::Custom {
                wrt_w: Arc::new(bad),
                wrt_x: Arc::new(vec![1.0; 256]),
            },
        ));
        let _ = ApproxLinear::new(3, 2, 1, lut, grads, QuantConfig::default());
    }

    #[test]
    #[should_panic(expected = "kernel and stride must be positive")]
    fn zero_stride_conv_is_rejected_at_construction() {
        let (lut, grads) = exact8();
        let _ = ApproxConv2d::new(2, 3, 3, 0, 1, 7, lut, grads, QuantConfig::default());
    }

    #[test]
    fn eval_mode_calibrates_once_then_freezes() {
        let (lut, grads) = exact8();
        let mut approx = ApproxLinear::with_params(
            ramp(&[2, 3], 1.0),
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::default(),
        );
        // First eval forward calibrates (initial-accuracy use case).
        approx.forward(&ramp(&[2, 3], 1.0), false);
        let r1 = approx.observer.range().expect("calibrated");
        // Subsequent eval forwards do not move the range.
        approx.forward(&ramp(&[2, 3], 10.0), false);
        assert_eq!(approx.observer.range().expect("still calibrated"), r1);
        // A train forward does.
        approx.forward(&ramp(&[2, 3], 10.0), true);
        assert_ne!(approx.observer.range().expect("updated"), r1);
    }
}
