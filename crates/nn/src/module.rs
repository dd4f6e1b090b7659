//! The [`Module`] trait and trainable [`Parameter`]s.

use crate::tensor::Tensor;

/// A trainable tensor together with its accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass(es).
    pub grad: Tensor,
    /// Whether this parameter is a weight (true) rather than a bias or norm
    /// scale (false); the serving registry counts weight elements with it
    /// for a model's scheduling cost.
    pub decay: bool,
}

impl Parameter {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad, decay }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.shape());
    }
}

/// A differentiable network component with explicit forward/backward passes.
///
/// The contract mirrors classic define-by-layer frameworks:
///
/// 1. `forward` consumes an input batch and caches whatever the backward
///    pass will need;
/// 2. `backward` consumes `dL/d(output)` for the *most recent* forward call,
///    accumulates parameter gradients into [`Parameter::grad`], and returns
///    `dL/d(input)`;
/// 3. `visit_params` exposes parameters in a deterministic order (optimizers
///    key their per-parameter state on this order).
///
/// `Send` is a supertrait so that built models can be handed to worker
/// threads (the `appmult-serve` engine moves whole [`Sequential`] stacks
/// into its batch workers); every layer is plain owned data, so this costs
/// implementations nothing.
///
/// [`Sequential`]: crate::layers::Sequential
pub trait Module: Send {
    /// Runs the layer on `input`. `train` selects training-time behaviour
    /// (batch statistics, dropout masks, quantizer calibration).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out = dL/d(output)` from the most recent
    /// `forward`, returning `dL/d(input)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` or with a
    /// gradient whose shape does not match the cached activation.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter));

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalar values.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }
}

impl Module for Box<dyn Module> {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        (**self).forward(input, train)
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        (**self).backward(grad_out)
    }
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        (**self).visit_params(visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_starts_with_zero_grad() {
        let p = Parameter::new(Tensor::full(&[3], 1.5), true);
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0, 0.0]);
        assert!(p.decay);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Parameter::new(Tensor::zeros(&[2]), false);
        p.grad = Tensor::full(&[2], 3.0);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
