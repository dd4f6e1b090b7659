//! Optimizers and learning-rate schedules.

use crate::module::Module;
use crate::tensor::Tensor;

/// A gradient-descent optimizer over a module's parameters.
///
/// State is keyed on the deterministic parameter visitation order of
/// [`Module::visit_params`]; using one optimizer across structurally
/// different modules is a logic error and panics on shape mismatch.
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients.
    fn step(&mut self, module: &mut dyn Module);

    /// Changes the learning rate (used by schedules between epochs).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// Adam (Kingma & Ba) — the optimizer used in the paper's retraining setup.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![],
            v: vec![],
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let m_state = &mut self.m;
        let v_state = &mut self.v;
        let mut idx = 0usize;
        module.visit_params(&mut |p| {
            if m_state.len() == idx {
                m_state.push(Tensor::zeros(p.value.shape()));
                v_state.push(Tensor::zeros(p.value.shape()));
            }
            assert_eq!(
                m_state[idx].shape(),
                p.value.shape(),
                "optimizer state shape mismatch at parameter {idx}"
            );
            let g = p.grad.as_slice();
            let w = p.value.as_mut_slice();
            let m = m_state[idx].as_mut_slice();
            let v = v_state[idx].as_mut_slice();
            for k in 0..w.len() {
                m[k] = b1 * m[k] + (1.0 - b1) * g[k];
                v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k];
                let mhat = m[k] / bias1;
                let vhat = v[k] / bias2;
                w[k] -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// A piecewise-constant learning-rate schedule over epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSchedule {
    /// `(first_epoch, lr)` pairs, sorted by epoch; epoch numbering is 1-based.
    steps: Vec<(usize, f32)>,
}

impl StepSchedule {
    /// Builds a schedule from `(first_epoch, lr)` milestones.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or not sorted by epoch.
    pub fn new(steps: Vec<(usize, f32)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one milestone");
        assert!(
            steps.windows(2).all(|w| w[0].0 < w[1].0),
            "milestones must be strictly increasing"
        );
        Self { steps }
    }

    /// The paper's default: 0.001 for epochs 1-10, 0.0005 for 11-20,
    /// 0.00025 for 21-30 (Sec. V-A).
    pub fn paper_default() -> Self {
        Self::new(vec![(1, 1e-3), (11, 5e-4), (21, 2.5e-4)])
    }

    /// Learning rate for a 1-based epoch index.
    pub fn lr_for_epoch(&self, epoch: usize) -> f32 {
        let mut lr = self.steps[0].1;
        for &(e, v) in &self.steps {
            if epoch >= e {
                lr = v;
            }
        }
        lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::loss::softmax_cross_entropy;
    use crate::Tensor;

    fn fit_linear<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut net = Linear::new(2, 2, 12);
        let x = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1., -1., 0.], &[4, 2]);
        let labels = [0usize, 1, 1, 0];
        let mut loss = f32::MAX;
        for _ in 0..steps {
            let logits = net.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(&grad);
            opt.step(&mut net);
            net.zero_grad();
            loss = l;
        }
        loss
    }

    #[test]
    fn adam_descends() {
        let mut adam = Adam::new(0.05);
        assert!(fit_linear(&mut adam, 150) < 0.05);
    }

    #[test]
    fn paper_schedule_matches_section_5() {
        let s = StepSchedule::paper_default();
        assert_eq!(s.lr_for_epoch(1), 1e-3);
        assert_eq!(s.lr_for_epoch(10), 1e-3);
        assert_eq!(s.lr_for_epoch(11), 5e-4);
        assert_eq!(s.lr_for_epoch(20), 5e-4);
        assert_eq!(s.lr_for_epoch(21), 2.5e-4);
        assert_eq!(s.lr_for_epoch(30), 2.5e-4);
    }

    #[test]
    fn lr_is_settable() {
        let mut adam = Adam::new(0.1);
        adam.set_lr(0.01);
        assert_eq!(adam.lr(), 0.01);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_rejects_unsorted() {
        StepSchedule::new(vec![(5, 0.1), (2, 0.2)]);
    }
}
