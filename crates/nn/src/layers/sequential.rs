//! Layer composition.

use crate::module::{Module, Parameter};
use crate::tensor::Tensor;

/// A chain of modules executed in order.
///
/// # Example
///
/// ```
/// use appmult_nn::{layers::{Linear, Relu, Sequential}, Module, Tensor};
///
/// let mut net = Sequential::new()
///     .push(Linear::new(4, 8, 0))
///     .push(Relu::new())
///     .push(Linear::new(8, 2, 1));
/// assert_eq!(net.len(), 3);
/// let y = net.forward(&Tensor::zeros(&[5, 4]), true);
/// assert_eq!(y.shape(), &[5, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
    reads_data: bool,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty chain that is a whole network: its input is the
    /// data batch, whose gradient nothing reads.
    ///
    /// Its [`Module::backward`] runs [`Module::backward_params`], so the
    /// first layer skips its input gradient (a stem convolution's `dX`
    /// GEMM and col2im), and returns a 0-element tensor. Every parameter
    /// gradient is bit-identical to an unmarked chain's. The return value
    /// is empty rather than zeros of the input's shape, so a caller that
    /// wants an input gradient fails on its shape instead of reading
    /// zeros; such a caller builds its chain with [`Sequential::new`].
    ///
    /// ```
    /// use appmult_nn::{layers::{Linear, Sequential}, Module, Tensor};
    ///
    /// let mut net = Sequential::network().push(Linear::new(4, 2, 0));
    /// let y = net.forward(&Tensor::zeros(&[3, 4]), true);
    /// assert!(net.backward(&Tensor::full(y.shape(), 1.0)).is_empty());
    /// ```
    pub fn network() -> Self {
        Self {
            layers: Vec::new(),
            reads_data: true,
        }
    }

    /// Appends a layer (builder style).
    pub fn push<M: Module + 'static>(mut self, layer: M) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Module>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The chain's layers, in order.
    pub fn into_layers(self) -> Vec<Box<dyn Module>> {
        self.layers
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Module for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        if self.reads_data {
            self.backward_params(grad_out);
            return Tensor::zeros(&[0]);
        }
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};

    #[test]
    fn composes_forward_and_backward() {
        let mut net = Sequential::new()
            .push(Linear::new(3, 4, 1))
            .push(Relu::new())
            .push(Linear::new(4, 2, 2));
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]);
        let report = crate::gradcheck::check_module(&mut net, &x, 30, 1e-2);
        assert!(report.max_rel_err < 0.02, "{}", report.summary());
    }

    #[test]
    fn param_visitation_is_stable() {
        let mut net = Sequential::new()
            .push(Linear::new(2, 2, 1))
            .push(Linear::new(2, 2, 2));
        let mut shapes1 = vec![];
        net.visit_params(&mut |p| shapes1.push(p.value.shape().to_vec()));
        let mut shapes2 = vec![];
        net.visit_params(&mut |p| shapes2.push(p.value.shape().to_vec()));
        assert_eq!(shapes1, shapes2);
        assert_eq!(shapes1.len(), 4); // 2 weights + 2 biases
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::from_vec(vec![1., 2.], &[2]);
        assert_eq!(net.forward(&x, true), x);
        assert_eq!(net.backward(&x), x);
    }
}
