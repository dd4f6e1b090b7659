//! Spatial pooling layers.

use crate::module::{Module, Parameter};
use crate::tensor::Tensor;

/// Max pooling with a square window.
///
/// # Example
///
/// ```
/// use appmult_nn::{layers::MaxPool2d, Module, Tensor};
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]), true);
/// assert_eq!(y.shape(), &[1, 3, 4, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0);
        Self {
            kernel,
            stride,
            argmax: vec![],
            in_shape: vec![],
        }
    }
}

impl Module for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "expected NCHW input");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert!(
            h >= self.kernel && w >= self.kernel,
            "input smaller than window"
        );
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let data = input.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Seeded with the window's own first tap, so a
                        // window with no tap above -inf (all -inf or NaN)
                        // outputs that tap and routes its gradient there.
                        let first = base + oy * self.stride * w + ox * self.stride;
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = first;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let idx = first + ky * w + kx;
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = ((ni * c + ci) * oh + oy) * ow + ox;
                        out[o] = data[best_idx];
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        self.argmax = argmax;
        self.in_shape = s.to_vec();
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward");
        let mut dx = Tensor::zeros(&self.in_shape);
        let g = grad_out.as_slice();
        assert_eq!(g.len(), self.argmax.len(), "gradient shape mismatch");
        let d = dx.as_mut_slice();
        for (gi, &src) in g.iter().zip(&self.argmax) {
            d[src] += gi;
        }
        dx
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
///
/// Used as the classifier head of the ResNet models.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "expected NCHW input");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let data = input.as_slice();
        let mut out = vec![0.0f32; n * c];
        let inv = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                out[ni * c + ci] = data[base..base + h * w].iter().sum::<f32>() * inv;
            }
        }
        self.in_shape = s.to_vec();
        Tensor::from_vec(out, &[n, c])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward");
        let (n, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        assert_eq!(grad_out.shape(), &[n, c], "gradient shape mismatch");
        let inv = 1.0 / (h * w) as f32;
        let g = grad_out.as_slice();
        let mut dx = vec![0.0f32; n * c * h * w];
        for ni in 0..n {
            for ci in 0..c {
                let gv = g[ni * c + ci] * inv;
                let base = (ni * c + ci) * h * w;
                for v in &mut dx[base..base + h * w] {
                    *v = gv;
                }
            }
        }
        Tensor::from_vec(dx, &self.in_shape)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                0., 0., 1., 0., //
                9., 0., 0., 2.,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4., 8., 9., 2.]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]);
        pool.forward(&x, true);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0., 0., 0., 5.]);
    }

    #[test]
    fn maxpool_window_without_a_finite_maximum_keeps_its_gradient() {
        // Image 1's only window has no tap above -inf. Its output and its
        // gradient belong to its own first tap, never to image 0's.
        for fill in [f32::NEG_INFINITY, f32::NAN] {
            let mut pool = MaxPool2d::new(2, 2);
            let mut data = vec![1., 2., 3., 4.];
            data.extend([fill; 4]);
            let y = pool.forward(&Tensor::from_vec(data, &[2, 1, 2, 2]), true);
            assert_eq!(y.as_slice()[0], 4.0);
            assert_eq!(y.as_slice()[1].to_bits(), fill.to_bits(), "fill {fill}");
            let dx = pool.backward(&Tensor::from_vec(vec![10., 7.], &[2, 1, 1, 1]));
            assert_eq!(
                dx.as_slice(),
                &[0., 0., 0., 10., 7., 0., 0., 0.],
                "fill {fill}"
            );
        }
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut pool = MaxPool2d::new(2, 2);
        // Distinct values avoid tie-breaking kinks.
        let x = Tensor::from_vec(
            (0..32)
                .map(|i| ((i * 37) % 32) as f32 * 0.37 - 3.0)
                .collect(),
            &[1, 2, 4, 4],
        );
        let report = crate::gradcheck::check_module(&mut pool, &x, 5, 1e-3);
        assert!(report.max_rel_err < 0.01, "{}", report.summary());
    }

    #[test]
    fn global_avg_pool_averages() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1., 3., 5., 7.], &[1, 1, 2, 2]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = pool.backward(&Tensor::from_vec(vec![8.0], &[1, 1]));
        assert_eq!(dx.as_slice(), &[2., 2., 2., 2.]);
    }

    #[test]
    fn global_avg_pool_gradcheck() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..18).map(|i| i as f32 * 0.2).collect(), &[2, 3, 1, 3]);
        let report = crate::gradcheck::check_module(&mut pool, &x, 6, 1e-3);
        assert!(report.max_rel_err < 0.01, "{}", report.summary());
    }

    #[test]
    fn overlapping_windows_accumulate_gradient() {
        let mut pool = MaxPool2d::new(2, 1);
        // Max at a single cell shared by all windows.
        let x = Tensor::from_vec(vec![0., 0., 0., 0., 9., 0., 0., 0., 0.], &[1, 1, 3, 3]);
        pool.forward(&x, true);
        let dx = pool.backward(&Tensor::full(&[1, 1, 2, 2], 1.0));
        assert_eq!(dx.at(&[0, 0, 1, 1]), 4.0);
    }
}
