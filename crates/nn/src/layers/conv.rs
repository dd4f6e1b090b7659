//! 2-D convolution via im2col, plus the shared im2col/col2im kernels.
//!
//! The im2col representation is the backbone of the whole workspace. The
//! slice-level [`im2col_gather`] and [`col2im_add`] work on any batch
//! size, so the approximate LUT-based convolution in `appmult-retrain`
//! runs them one image at a time on its pool workers: it gathers each
//! image's quantized codes into that image's patch rows, and folds each
//! image's patch-row gradients back as soon as its `dX` rows are computed.
//! [`im2col`] and [`col2im`] are the whole-batch tensor forms.

use crate::init::kaiming_normal;
use crate::module::{Module, Parameter};
use crate::tensor::Tensor;

/// Static shape description of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// A stride-1 convolution with "same" padding for odd kernels.
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output spatial size for an input of `h x w`.
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or the configuration yields an empty
    /// output.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(self.stride > 0, "convolution stride is zero in {self:?}");
        let oh = (h + 2 * self.padding)
            .checked_sub(self.kernel)
            .map(|v| v / self.stride + 1);
        let ow = (w + 2 * self.padding)
            .checked_sub(self.kernel)
            .map(|v| v / self.stride + 1);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => (oh, ow),
            _ => panic!("convolution output is empty for input {h}x{w} with {self:?}"),
        }
    }

    /// Length of one im2col row: `Cin * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Unfolds an NCHW batch into patch rows.
///
/// Output shape `[N * OH * OW, Cin * k * k]`; row `(n * OH + oh) * OW + ow`
/// holds the receptive field of output pixel `(n, oh, ow)` with channel as
/// the slowest axis. Out-of-bounds (padding) taps are zero.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its channel count mismatches `spec`.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "expected NCHW input");
    let (oh, ow) = spec.out_hw(s[2], s[3]);
    let mut cols = vec![0.0; s[0] * oh * ow * spec.patch_len()];
    im2col_gather(input.as_slice(), s, spec, 0.0, &mut cols);
    Tensor::from_vec(cols, &[s[0] * oh * ow, spec.patch_len()])
}

/// The gather behind [`im2col`], over any element type: unfolds the
/// NCHW buffer `data` of the given `shape` into the row-major
/// `[N * OH * OW, Cin * k * k]` patch rows `out`, writing `pad` into
/// padding taps. Every element of `out` is written exactly once.
///
/// Gathering commutes with any elementwise map `f`: gathering `f(x)` with
/// pad `f(0.0)` equals mapping `f` over `im2col(x)`. The approximate conv
/// relies on this to quantize each input pixel once and gather the codes.
///
/// Each image is copied into a plane with a border of `pad` (under zero
/// padding the image is the plane), so every `(channel, kernel row)` run
/// of a patch row is one fixed-width copy from the plane.
///
/// # Panics
///
/// Panics if `shape` is not rank 4, its channel count mismatches `spec`,
/// or `data` / `out` do not hold the input / patch-row element counts.
pub fn im2col_gather<T: Copy>(
    data: &[T],
    shape: &[usize],
    spec: &Conv2dSpec,
    pad: T,
    out: &mut [T],
) {
    let (n, geo) = Plane::new(data.len(), shape, spec);
    let (image_len, rows_len) = (geo.image_len(), geo.rows_len());
    assert_eq!(out.len(), n * rows_len, "patch rows do not match shape");
    if out.is_empty() {
        return;
    }
    let mut plane = geo.scratch(pad);
    for (ni, rows) in out.chunks_exact_mut(rows_len).enumerate() {
        let image = &data[ni * image_len..(ni + 1) * image_len];
        let src = if spec.padding > 0 {
            geo.copy_in(image, &mut plane);
            &plane
        } else {
            image
        };
        match geo.k {
            1 => geo.gather::<T, 1>(src, rows),
            3 => geo.gather::<T, 3>(src, rows),
            5 => geo.gather::<T, 5>(src, rows),
            _ => geo.gather::<T, 0>(src, rows),
        }
    }
}

/// Folds patch-row gradients back into an NCHW gradient (the adjoint of
/// [`im2col`]): overlapping taps accumulate.
///
/// # Panics
///
/// Panics if `cols` does not have the shape `im2col` would produce for an
/// `[n, spec.in_channels, h, w]` input.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(
        cols.shape(),
        &[n * oh * ow, spec.patch_len()],
        "col gradient shape mismatch"
    );
    let shape = [n, spec.in_channels, h, w];
    let mut out = vec![0.0f32; shape.iter().product()];
    col2im_add(cols.as_slice(), &shape, spec, &mut out);
    Tensor::from_vec(out, &shape)
}

/// The fold behind [`col2im`]: adds the `[N * OH * OW, Cin * k * k]`
/// patch-row gradients `cols` into the NCHW buffer `out` of the given
/// `shape`, dropping padding taps. Each input pixel receives its taps in
/// ascending patch-row order.
///
/// Each image is copied into the interior of a plane whose border
/// catches the padding taps (under zero padding the image is the plane),
/// every `(channel, kernel row)` run of a patch row is one fixed-width
/// add into the plane, and the interior is copied back.
///
/// # Panics
///
/// Panics if `shape` is not rank 4, its channel count mismatches `spec`,
/// or `out` / `cols` do not hold the input / patch-row element counts.
pub fn col2im_add(cols: &[f32], shape: &[usize], spec: &Conv2dSpec, out: &mut [f32]) {
    let (n, geo) = Plane::new(out.len(), shape, spec);
    let (image_len, rows_len) = (geo.image_len(), geo.rows_len());
    assert_eq!(cols.len(), n * rows_len, "patch rows do not match shape");
    if cols.is_empty() {
        return;
    }
    let mut plane = geo.scratch(0.0);
    for (ni, rows) in cols.chunks_exact(rows_len).enumerate() {
        let image = &mut out[ni * image_len..(ni + 1) * image_len];
        let dst = if spec.padding > 0 {
            geo.copy_in(image, &mut plane);
            &mut plane
        } else {
            &mut *image
        };
        match geo.k {
            1 => geo.fold::<1>(rows, dst),
            3 => geo.fold::<3>(rows, dst),
            5 => geo.fold::<5>(rows, dst),
            _ => geo.fold::<0>(rows, dst),
        }
        if spec.padding > 0 {
            geo.copy_out(&plane, image);
        }
    }
}

/// One image's padded plane, `C × (H + 2P) × (W + 2P)`, as the gather and
/// the fold walk it. Patch row `(oy, ox)` has its top-left tap at plane
/// offset `(oy · (W + 2P) + ox) · stride`, and its `(channel, kernel
/// row)` run `t` starts `runs[t]` past that, so a row is `C · k` runs of
/// `k` taps with no bounds logic: padding taps fall on the border.
struct Plane {
    c: usize,
    h: usize,
    w: usize,
    padding: usize,
    /// Padded row length `W + 2P`.
    pw: usize,
    k: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    /// `(ci · (H + 2P) + ky) · (W + 2P)` for every `(ci, ky)`.
    runs: Vec<usize>,
}

impl Plane {
    /// Checks an NCHW `shape` against `spec` and a buffer of `len`
    /// elements, returning the batch size and one image's plane.
    fn new(len: usize, shape: &[usize], spec: &Conv2dSpec) -> (usize, Self) {
        assert_eq!(shape.len(), 4, "expected NCHW input");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, spec.in_channels, "channel mismatch");
        assert_eq!(len, n * c * h * w, "data does not match shape");
        let (oh, ow) = spec.out_hw(h, w);
        let (k, padding) = (spec.kernel, spec.padding);
        let (ph, pw) = (h + 2 * padding, w + 2 * padding);
        let mut runs = Vec::with_capacity(c * k);
        for ci in 0..c {
            for ky in 0..k {
                runs.push((ci * ph + ky) * pw);
            }
        }
        let plane = Self {
            c,
            h,
            w,
            padding,
            pw,
            k,
            stride: spec.stride,
            oh,
            ow,
            runs,
        };
        (n, plane)
    }

    fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// One image's patch-row elements, `OH · OW · C · k · k`.
    fn rows_len(&self) -> usize {
        self.oh * self.ow * self.runs.len() * self.k
    }

    /// A plane buffer whose border holds `border`, or none under zero
    /// padding, where the image itself is the plane.
    fn scratch<T: Copy>(&self, border: T) -> Vec<T> {
        if self.padding == 0 {
            return Vec::new();
        }
        vec![border; self.c * (self.h + 2 * self.padding) * self.pw]
    }

    /// Copies `image` into the plane's interior, leaving the border as is.
    fn copy_in<T: Copy>(&self, image: &[T], plane: &mut [T]) {
        self.each_image_row(|y, at| plane[at..at + self.w].copy_from_slice(&image[y..y + self.w]));
    }

    /// Copies the plane's interior back into `image`.
    fn copy_out(&self, plane: &[f32], image: &mut [f32]) {
        self.each_image_row(|y, at| image[y..y + self.w].copy_from_slice(&plane[at..at + self.w]));
    }

    /// Calls `f(image offset, plane offset)` for each image row `(ci, y)`.
    fn each_image_row(&self, mut f: impl FnMut(usize, usize)) {
        let ph = self.h + 2 * self.padding;
        for ci in 0..self.c {
            for y in 0..self.h {
                f(
                    (ci * self.h + y) * self.w,
                    (ci * ph + y + self.padding) * self.pw + self.padding,
                );
            }
        }
    }

    /// Plane offset of each patch row's top-left tap, in row order.
    fn origins(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.oh)
            .flat_map(move |oy| (0..self.ow).map(move |ox| (oy * self.pw + ox) * self.stride))
    }

    /// Copies one image's patch rows out of `plane`. The run width is `K`,
    /// fixed at compile time, or `self.k` when `K` is 0.
    fn gather<T: Copy, const K: usize>(&self, plane: &[T], rows: &mut [T]) {
        let k = if K == 0 { self.k } else { K };
        for (row, origin) in rows
            .chunks_exact_mut(self.runs.len() * k)
            .zip(self.origins())
        {
            for (taps, &run) in row.chunks_exact_mut(k).zip(&self.runs) {
                taps.copy_from_slice(&plane[origin + run..origin + run + k]);
            }
        }
    }

    /// Adds one image's patch rows into `plane`, rows in ascending order,
    /// with the run width of [`gather`](Self::gather).
    fn fold<const K: usize>(&self, rows: &[f32], plane: &mut [f32]) {
        let k = if K == 0 { self.k } else { K };
        for (row, origin) in rows.chunks_exact(self.runs.len() * k).zip(self.origins()) {
            for (taps, &run) in row.chunks_exact(k).zip(&self.runs) {
                let dst = &mut plane[origin + run..origin + run + k];
                for (o, &g) in dst.iter_mut().zip(taps) {
                    *o += g;
                }
            }
        }
    }
}

/// Reinterprets `[N * OH * OW, Cout]` rows as an `[N, Cout, OH, OW]` tensor.
pub fn rows_to_nchw(rows: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(rows.shape(), &[n * oh * ow, c], "row shape mismatch");
    let mut out = vec![0.0f32; n * c * oh * ow];
    let data = rows.as_slice();
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * c;
                for ci in 0..c {
                    out[((ni * c + ci) * oh + oy) * ow + ox] = data[row + ci];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Inverse of [`rows_to_nchw`].
pub fn nchw_to_rows(t: &Tensor) -> Tensor {
    let s = t.shape();
    assert_eq!(s.len(), 4, "expected NCHW tensor");
    let (n, c, oh, ow) = (s[0], s[1], s[2], s[3]);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let data = t.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    out[(((ni * oh + oy) * ow + ox) * c) + ci] =
                        data[((ni * c + ci) * oh + oy) * ow + ox];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, c])
}

/// A standard (accurate, floating-point) 2-D convolution layer.
///
/// # Example
///
/// ```
/// use appmult_nn::{layers::Conv2d, Module, Tensor};
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 7);
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, true);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Parameter,
    bias: Parameter,
    cols: Option<Tensor>,
    input_hw: (usize, usize, usize), // (n, h, w) of the cached forward
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let spec = Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        };
        Self::with_spec(spec, seed)
    }

    /// Creates a convolution from a [`Conv2dSpec`].
    pub fn with_spec(spec: Conv2dSpec, seed: u64) -> Self {
        let fan_in = spec.patch_len();
        let weight = kaiming_normal(&[spec.out_channels, fan_in], fan_in, seed);
        Self {
            spec,
            weight: Parameter::new(weight, true),
            bias: Parameter::new(Tensor::zeros(&[spec.out_channels]), false),
            cols: None,
            input_hw: (0, 0, 0),
        }
    }

    /// The shape specification.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The weight parameter viewed as `[Cout, Cin * k * k]`.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Accumulates `dW = g^T @ cols` and `db` (the column sums of `g`) for
    /// the NCHW output gradient; returns `g` as `[M, Cout]` rows.
    fn add_param_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let cols = self.cols.as_ref().expect("backward before forward");
        let g_rows = nchw_to_rows(grad_out); // [M, Cout]
        let dw = g_rows.transpose2d().matmul(cols); // [Cout, K]
        self.weight.grad.add_scaled(&dw, 1.0);
        let db = self.bias.grad.as_mut_slice();
        for row in g_rows.as_slice().chunks(self.spec.out_channels) {
            for (d, g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        g_rows
    }
}

impl Module for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let s = input.shape();
        let (n, h, w) = (s[0], s[2], s[3]);
        let (oh, ow) = self.spec.out_hw(h, w);
        let cols = im2col(input, &self.spec);
        let wt = self.weight.value.transpose2d();
        let mut rows = cols.matmul(&wt);
        // Broadcast bias over rows.
        let c = self.spec.out_channels;
        let b = self.bias.value.as_slice().to_vec();
        for row in rows.as_mut_slice().chunks_mut(c) {
            for (v, bv) in row.iter_mut().zip(&b) {
                *v += bv;
            }
        }
        self.cols = Some(cols);
        self.input_hw = (n, h, w);
        rows_to_nchw(&rows, n, c, oh, ow)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_rows = self.add_param_grads(grad_out);
        // dX = col2im(g @ W).
        let (n, h, w) = self.input_hw;
        let dcols = g_rows.matmul(&self.weight.value); // [M, K]
        col2im(&dcols, &self.spec, n, h, w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.add_param_grads(grad_out);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (definition-level) convolution for cross-checking.
    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = spec.out_hw(h, w);
        let k = spec.kernel;
        let co = spec.out_channels;
        let mut out = Tensor::zeros(&[n, co, oh, ow]);
        for ni in 0..n {
            for o in 0..co {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.as_slice()[o];
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let wv = weight.at(&[o, ci * k * k + ky * k + kx]);
                                    acc += wv * input.at(&[ni, ci, iy as usize, ix as usize]);
                                }
                            }
                        }
                        out.set(&[ni, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn ramp(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            (0..n)
                .map(|i| ((i * 7919) % 23) as f32 / 23.0 - 0.4)
                .collect(),
            shape,
        )
    }

    #[test]
    fn forward_matches_naive_convolution() {
        for (stride, padding) in [(1, 1), (2, 1), (1, 0), (2, 0)] {
            let mut conv = Conv2d::new(3, 4, 3, stride, padding, 11);
            let x = ramp(&[2, 3, 7, 7]);
            let got = conv.forward(&x, true);
            let want = naive_conv(&x, &conv.weight.value, &conv.bias.value, conv.spec());
            assert_eq!(got.shape(), want.shape(), "s={stride} p={padding}");
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-4, "s={stride} p={padding}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y (adjointness).
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let x = ramp(&[1, 2, 5, 5]);
        let cols = im2col(&x, &spec);
        let y = ramp(&[cols.shape()[0], cols.shape()[1]]);
        let lhs = cols.dot(&y);
        let back = col2im(&y, &spec, 1, 5, 5);
        let rhs = x.dot(&back);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_matches_the_tap_by_tap_fold_bit_for_bit() {
        // The definition: every in-bounds tap of every patch row adds into
        // its pixel, rows in ascending order. The run-sliced fold must keep
        // each pixel's addition order, per image or per batch.
        for (kernel, stride, padding) in [(3, 1, 1), (3, 2, 2), (2, 3, 0), (5, 1, 0)] {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels: 1,
                kernel,
                stride,
                padding,
            };
            let (n, c, h, w) = (3, 2, 7, 6);
            let (oh, ow) = spec.out_hw(h, w);
            let cols = ramp(&[n * oh * ow, spec.patch_len()]);
            let mut want = vec![0.0f32; n * c * h * w];
            for (r, row) in cols.as_slice().chunks(spec.patch_len()).enumerate() {
                let (ni, oy, ox) = (r / (oh * ow), r / ow % oh, r % ow);
                for (t, &v) in row.iter().enumerate() {
                    let (ci, ky, kx) = (t / (kernel * kernel), t / kernel % kernel, t % kernel);
                    let iy = (oy * stride + ky).checked_sub(padding);
                    let ix = (ox * stride + kx).checked_sub(padding);
                    if let (Some(iy), Some(ix)) = (iy, ix) {
                        if iy < h && ix < w {
                            want[((ni * c + ci) * h + iy) * w + ix] += v;
                        }
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let got = col2im(&cols, &spec, n, h, w);
            assert_eq!(bits(got.as_slice()), bits(&want), "{spec:?}");
            let (rows, plane) = (oh * ow * spec.patch_len(), c * h * w);
            let mut per_image = vec![0.0f32; n * plane];
            for ni in 0..n {
                col2im_add(
                    &cols.as_slice()[ni * rows..(ni + 1) * rows],
                    &[1, c, h, w],
                    &spec,
                    &mut per_image[ni * plane..(ni + 1) * plane],
                );
            }
            assert_eq!(bits(&per_image), bits(&want), "{spec:?} per image");
        }
    }

    #[test]
    fn rows_nchw_round_trip() {
        let t = ramp(&[2, 3, 4, 5]);
        let rows = nchw_to_rows(&t);
        let back = rows_to_nchw(&rows, 2, 3, 4, 5);
        assert_eq!(back, t);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 5);
        let x = ramp(&[2, 2, 5, 5]);
        let report = crate::gradcheck::check_module(&mut conv, &x, 99, 1e-2);
        assert!(
            report.max_rel_err < 0.02,
            "gradcheck failed: {}",
            report.summary()
        );
    }

    #[test]
    fn strided_gradients_pass_finite_difference_check() {
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, 6);
        let x = ramp(&[1, 2, 6, 6]);
        let report = crate::gradcheck::check_module(&mut conv, &x, 100, 1e-2);
        assert!(
            report.max_rel_err < 0.02,
            "gradcheck failed: {}",
            report.summary()
        );
    }

    #[test]
    #[should_panic(expected = "stride is zero")]
    fn zero_stride_panics_with_its_own_message() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 0,
            padding: 1,
        };
        spec.out_hw(5, 5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_output_panics() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        spec.out_hw(3, 3);
    }
}
