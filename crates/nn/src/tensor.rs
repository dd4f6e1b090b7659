//! Dense f32 tensors in row-major (C) order.

use std::fmt;

/// A dense, contiguous, row-major f32 tensor.
///
/// Layout convention for images is NCHW. The type is deliberately small:
/// layers do their own indexing arithmetic, which keeps hot loops free of
/// abstraction overhead.
///
/// # Example
///
/// ```
/// use appmult_nn::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.matmul(&t.transpose2d()).shape(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Wraps a data vector with a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The shape (dimension sizes).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let o = self.offset(index);
        self.data[o] = value;
    }

    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (d, (&i, &s)) in index.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of range for dim {d} (size {s})");
            off = off * s + i;
        }
        off
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place element-wise update.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Element-wise multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "length mismatch in dot");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// 2-D matrix multiplication: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions {k} and {k2} differ");
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the inner loop streaming over `other` rows.
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            data: out,
            shape: vec![m, n],
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2d needs rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            data: out,
            shape: vec![n, m],
        }
    }

    /// Minimum and maximum element, skipping NaN: `(0.0, 0.0)` for an
    /// empty tensor, `(inf, -inf)` for one of only NaN. Where `-0.0` and
    /// `+0.0` tie for an extreme, either may be returned.
    ///
    /// One pass for each extreme, over eight independent lanes of
    /// compare-and-select: a NaN compares false and leaves its lane as it
    /// was, so each lane step is one vector `min` or `max` rather than a
    /// NaN-aware scalar chain. (Both selects in one pass did not vectorize,
    /// and ran 3x slower than two passes on 24,576 values.)
    pub fn min_max(&self) -> (f32, f32) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        (
            lane_extreme(&self.data, f32::INFINITY, |v, lo| v < lo),
            lane_extreme(&self.data, f32::NEG_INFINITY, |v, hi| v > hi),
        )
    }
}

/// The extreme of `data` under `beats(v, best)`, starting from `init`,
/// over eight lanes reduced at the end; a value that does not beat a lane
/// (NaN beats none) leaves it as it was.
#[inline]
fn lane_extreme(data: &[f32], init: f32, beats: impl Fn(f32, f32) -> bool) -> f32 {
    const LANES: usize = 8;
    let mut best = [init; LANES];
    let mut chunks = data.chunks_exact(LANES);
    for chunk in &mut chunks {
        for t in 0..LANES {
            best[t] = if beats(chunk[t], best[t]) {
                chunk[t]
            } else {
                best[t]
            };
        }
    }
    for (t, &v) in chunks.remainder().iter().enumerate() {
        best[t] = if beats(v, best[t]) { v } else { best[t] };
    }
    best.into_iter()
        .fold(init, |acc, v| if beats(v, acc) { v } else { acc })
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elems)", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.as_slice()[23], 7.5);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let id = Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        assert_eq!(a.transpose2d().transpose2d(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[4]);
        let b = a.reshape(&[2, 2]);
        assert_eq!(b.at(&[1, 0]), 3.0);
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]);
        let b = Tensor::from_vec(vec![3., 5.], &[2]);
        assert_eq!(a.add(&b).as_slice(), &[4., 7.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4.]);
        assert_eq!(a.dot(&b), 13.0);
        assert_eq!(b.sum(), 8.0);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.as_slice(), &[2.5, 4.5]);
    }

    #[test]
    fn min_max_scans_all() {
        let a = Tensor::from_vec(vec![3., -1., 7., 0.], &[4]);
        assert_eq!(a.min_max(), (-1.0, 7.0));
        assert_eq!(Tensor::zeros(&[0]).min_max(), (0.0, 0.0));
    }

    #[test]
    fn min_max_skips_nan_and_pins_the_special_values() {
        let mm = |v: &[f32]| {
            let (lo, hi) = Tensor::from_vec(v.to_vec(), &[v.len()]).min_max();
            (lo.to_bits(), hi.to_bits())
        };
        let bits = |lo: f32, hi: f32| (lo.to_bits(), hi.to_bits());
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        // Every length up to three chunks of lanes, the extremes in every
        // position, NaN in the rest: NaN is skipped wherever it sits.
        for len in 1..=24 {
            for at_lo in 0..len {
                for at_hi in (0..len).filter(|&i| i != at_lo) {
                    let mut v = vec![nan; len];
                    (v[at_lo], v[at_hi]) = (-2.5, 4.0);
                    assert_eq!(mm(&v), bits(-2.5, 4.0), "len {len} lo@{at_lo} hi@{at_hi}");
                }
            }
            assert_eq!(mm(&vec![nan; len]), bits(inf, -inf), "all NaN, len {len}");
            let mut v = vec![1.0; len + 1];
            (v[len / 2], v[len]) = (-inf, inf);
            assert_eq!(mm(&v), bits(-inf, inf), "infinities, len {}", len + 1);
        }
        assert_eq!(mm(&[nan, -inf, nan]), bits(-inf, -inf));
        assert_eq!(mm(&[inf, nan]), bits(inf, inf));
        // A single sign of zero is returned as it is; a tie of both signs
        // returns a zero.
        assert_eq!(mm(&[0.0; 11]), bits(0.0, 0.0));
        assert_eq!(mm(&[-0.0; 11]), bits(-0.0, -0.0));
        assert_eq!(mm(&[-0.0, 3.0, nan]), bits(-0.0, 3.0));
        assert_eq!(mm(&[-3.0, 0.0, nan]), bits(-3.0, 0.0));
        let mixed: Vec<f32> = (0..19)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect();
        let (lo, hi) = Tensor::from_vec(mixed, &[19]).min_max();
        assert!(lo == 0.0 && hi == 0.0, "({lo}, {hi})");
        assert_eq!(Tensor::zeros(&[0, 3]).min_max(), (0.0, 0.0));
    }

    #[test]
    fn min_max_agrees_with_the_serial_scan() {
        // Away from a tie of both zeros, the lanes give the serial
        // `f32::min` / `f32::max` chain bit for bit.
        let mut rng = appmult_rng::Rng64::seed_from_u64(0x3A3);
        for len in [1usize, 7, 8, 9, 63, 64, 65, 1000, 24_576] {
            let v: Vec<f32> = (0..len)
                .map(|_| match rng.below(50) {
                    0 => f32::NAN,
                    1 => f32::from_bits(rng.next_u32() & 0x807f_ffff),
                    _ => rng.uniform_f32(-7.0, 9.0),
                })
                .collect();
            let serial = v
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &x| {
                    (l.min(x), h.max(x))
                });
            let got = Tensor::from_vec(v, &[len]).min_max();
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (serial.0.to_bits(), serial.1.to_bits()),
                "len {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates() {
        Tensor::from_vec(vec![1., 2., 3.], &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexing_validates() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }
}
