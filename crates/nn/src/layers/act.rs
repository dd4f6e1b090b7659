//! Activation functions.

use crate::module::{Module, Parameter};
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
///
/// # Example
///
/// ```
/// use appmult_nn::{layers::Relu, Module, Tensor};
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]), true);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
    shape: Vec<usize>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.mask = input.as_slice().iter().map(|&v| v > 0.0).collect();
        self.shape = input.shape().to_vec();
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.shape(), &self.shape[..], "gradient shape mismatch");
        let data = grad_out
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, &self.shape)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_masks_negative_inputs() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]);
        relu.forward(&x, true);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        // Note x == 0 gets zero gradient (subgradient convention).
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn gradcheck_away_from_kink() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, -0.4, 0.7, 2.0], &[4]);
        let report = crate::gradcheck::check_module(&mut relu, &x, 3, 1e-3);
        assert!(report.max_rel_err < 0.01, "{}", report.summary());
    }

    #[test]
    fn has_no_params() {
        let mut relu = Relu::new();
        assert_eq!(relu.num_params(), 0);
    }
}
