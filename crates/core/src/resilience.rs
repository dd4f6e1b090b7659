//! Resilient-retraining policy: NaN guards and divergence rollback.
//!
//! Retraining against defective hardware (a faulted circuit's product
//! table, or a table with flipped bits; see `MultiplierLut` in
//! `appmult-mult`) routinely produces wild products, which turn into
//! non-finite losses and exploding gradients. [`ResiliencePolicy`] hardens
//! the [`crate::retrain`] loop against this:
//!
//! * **Gradient scrubbing** — after every backward pass, non-finite
//!   gradient entries are zeroed and the global gradient norm is clipped,
//!   so a single poisoned batch cannot destroy the weights.
//! * **Divergence rollback** — the best-loss parameters are checkpointed
//!   in memory (via `appmult-nn`'s serializer); when an epoch's loss is
//!   non-finite, contains non-finite batches, or exceeds
//!   `divergence_factor x` the best loss for `divergence_patience`
//!   consecutive epochs, the model is rolled back to that checkpoint and
//!   the learning rate is scaled down by `lr_backoff`.
//!
//! The policy is opt-in (`RetrainConfig::resilience` defaults to `None`),
//! and a disabled policy leaves the legacy loop numerics bit-for-bit
//! unchanged.

use appmult_nn::serialize::{load_params, save_params};
use appmult_nn::Module;

/// Configuration of the NaN-guard and rollback behaviour of the retraining
/// loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Clip the global gradient L2 norm to this value after scrubbing
    /// (`None` disables clipping).
    pub max_grad_norm: Option<f32>,
    /// An epoch whose loss exceeds `divergence_factor * best_loss` counts
    /// as bad; see [`ResiliencePolicy::divergence_patience`].
    pub divergence_factor: f64,
    /// Number of consecutive bad epochs that triggers a rollback. A
    /// non-finite epoch loss triggers one immediately, regardless.
    pub divergence_patience: usize,
    /// Learning-rate multiplier applied at every rollback (compounding).
    pub lr_backoff: f32,
    /// Rollback budget for the whole run; once exhausted, training
    /// continues with scrubbing only.
    pub max_rollbacks: usize,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            max_grad_norm: Some(100.0),
            divergence_factor: 4.0,
            divergence_patience: 2,
            lr_backoff: 0.5,
            max_rollbacks: 3,
        }
    }
}

/// Zeroes non-finite gradient entries and clips the global gradient norm.
/// Returns the number of entries scrubbed.
pub(crate) fn scrub_and_clip(model: &mut dyn Module, max_grad_norm: Option<f32>) -> usize {
    let obs = appmult_obs::global();
    let mut scrubbed = 0usize;
    let mut sq_sum = 0f64;
    model.visit_params(&mut |p| {
        for g in p.grad.as_mut_slice() {
            if g.is_finite() {
                sq_sum += f64::from(*g) * f64::from(*g);
            } else {
                *g = 0.0;
                scrubbed += 1;
            }
        }
    });
    if let Some(max) = max_grad_norm {
        let norm = sq_sum.sqrt();
        if norm > f64::from(max) {
            let scale = (f64::from(max) / norm) as f32;
            model.visit_params(&mut |p| {
                for g in p.grad.as_mut_slice() {
                    *g *= scale;
                }
            });
            obs.counter_add("resilience.norm_clips", 1);
        }
    }
    if scrubbed > 0 {
        obs.counter_add("resilience.scrubbed_grads", scrubbed as u64);
    }
    scrubbed
}

/// Tracks loss trajectory, the in-memory best checkpoint, and the rollback
/// budget of one retraining run.
#[derive(Debug)]
pub(crate) struct RollbackGuard {
    policy: ResiliencePolicy,
    best_loss: f64,
    best_checkpoint: Vec<u8>,
    consecutive_bad: usize,
    rollbacks_used: usize,
    /// Compounded learning-rate multiplier from past rollbacks.
    pub lr_scale: f32,
}

impl RollbackGuard {
    /// Captures the initial parameters so even a first-epoch divergence has
    /// somewhere safe to return to.
    pub fn new(policy: ResiliencePolicy, model: &mut dyn Module) -> Self {
        Self {
            best_loss: f64::INFINITY,
            best_checkpoint: checkpoint(model),
            consecutive_bad: 0,
            rollbacks_used: 0,
            lr_scale: 1.0,
            policy,
        }
    }

    /// Number of entries scrubbed from the model's current gradients.
    pub fn scrub(&self, model: &mut dyn Module) -> usize {
        scrub_and_clip(model, self.policy.max_grad_norm)
    }

    /// Observes one finished epoch. `epoch_loss` is the mean loss over the
    /// finite batches; `had_nonfinite` reports whether any batch loss was
    /// non-finite. Returns the number of rollbacks performed (0 or 1).
    pub fn observe_epoch(
        &mut self,
        model: &mut dyn Module,
        epoch_loss: f64,
        had_nonfinite: bool,
    ) -> usize {
        let hard = had_nonfinite || !epoch_loss.is_finite();
        let soft = if hard {
            false
        } else if self.best_loss.is_finite()
            && epoch_loss > self.policy.divergence_factor * self.best_loss
        {
            self.consecutive_bad += 1;
            self.consecutive_bad >= self.policy.divergence_patience
        } else {
            self.consecutive_bad = 0;
            false
        };

        if (hard || soft) && self.rollbacks_used < self.policy.max_rollbacks {
            load_params(model, self.best_checkpoint.as_slice())
                .expect("in-memory checkpoint round-trip");
            self.lr_scale *= self.policy.lr_backoff;
            self.rollbacks_used += 1;
            self.consecutive_bad = 0;
            let obs = appmult_obs::global();
            obs.counter_add("resilience.rollbacks", 1);
            obs.event(
                "rollback",
                &[
                    ("epoch_loss", epoch_loss.into()),
                    ("best_loss", self.best_loss.into()),
                    ("hard", hard.into()),
                    ("lr_scale", self.lr_scale.into()),
                    ("rollbacks_used", self.rollbacks_used.into()),
                ],
            );
            return 1;
        }
        if !hard && epoch_loss < self.best_loss {
            self.best_loss = epoch_loss;
            self.best_checkpoint = checkpoint(model);
        }
        0
    }
}

fn checkpoint(model: &mut dyn Module) -> Vec<u8> {
    let mut buf = Vec::new();
    save_params(model, &mut buf).expect("in-memory serialization cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_nn::layers::{Linear, Sequential};
    use appmult_nn::optim::{Adam, Optimizer};
    use appmult_nn::Tensor;

    fn model() -> Sequential {
        Sequential::new().push(Linear::new(3, 2, 7))
    }

    fn params_of(m: &mut Sequential) -> Vec<Tensor> {
        let mut v = vec![];
        m.visit_params(&mut |p| v.push(p.value.clone()));
        v
    }

    fn poison_grads(m: &mut Sequential) {
        m.visit_params(&mut |p| {
            let s = p.grad.as_mut_slice();
            s[0] = f32::NAN;
            s[1] = f32::INFINITY;
            for g in s.iter_mut().skip(2) {
                *g = 1.0;
            }
        });
    }

    #[test]
    fn scrubbing_zeroes_nonfinite_and_counts_them() {
        let mut m = model();
        poison_grads(&mut m);
        let scrubbed = scrub_and_clip(&mut m, None);
        assert_eq!(scrubbed, 4); // 2 poisoned entries in each of 2 params
        m.visit_params(&mut |p| {
            assert!(p.grad.as_slice().iter().all(|g| g.is_finite()));
        });
    }

    #[test]
    fn clipping_bounds_the_global_norm() {
        let mut m = model();
        m.visit_params(&mut |p| p.grad.map_inplace(|_| 10.0));
        scrub_and_clip(&mut m, Some(1.0));
        let mut sq = 0f64;
        m.visit_params(&mut |p| {
            sq += p
                .grad
                .as_slice()
                .iter()
                .map(|&g| f64::from(g) * f64::from(g))
                .sum::<f64>();
        });
        assert!((sq.sqrt() - 1.0).abs() < 1e-4, "norm {}", sq.sqrt());
    }

    #[test]
    fn clipping_leaves_small_gradients_alone() {
        let mut m = model();
        m.visit_params(&mut |p| p.grad.map_inplace(|_| 0.01));
        let before: Vec<Tensor> = {
            let mut v = vec![];
            m.visit_params(&mut |p| v.push(p.grad.clone()));
            v
        };
        scrub_and_clip(&mut m, Some(100.0));
        let mut after = vec![];
        m.visit_params(&mut |p| after.push(p.grad.clone()));
        assert_eq!(before, after);
    }

    #[test]
    fn nonfinite_epoch_rolls_back_to_best() {
        let mut m = model();
        let mut guard = RollbackGuard::new(ResiliencePolicy::default(), &mut m);
        // Epoch 1: healthy, becomes the best checkpoint.
        assert_eq!(guard.observe_epoch(&mut m, 1.0, false), 0);
        let best = params_of(&mut m);
        // The model then drifts and the next epoch is poisoned.
        m.visit_params(&mut |p| p.value.map_inplace(|v| v + 5.0));
        assert_eq!(guard.observe_epoch(&mut m, f64::NAN, true), 1);
        assert_eq!(params_of(&mut m), best, "weights restored from checkpoint");
        assert!((guard.lr_scale - 0.5).abs() < 1e-6);
    }

    #[test]
    fn soft_divergence_needs_patience() {
        let mut m = model();
        let policy = ResiliencePolicy {
            divergence_factor: 2.0,
            divergence_patience: 2,
            ..ResiliencePolicy::default()
        };
        let mut guard = RollbackGuard::new(policy, &mut m);
        assert_eq!(guard.observe_epoch(&mut m, 1.0, false), 0);
        // One bad epoch: tolerated. Two in a row: rollback.
        assert_eq!(guard.observe_epoch(&mut m, 5.0, false), 0);
        assert_eq!(guard.observe_epoch(&mut m, 5.0, false), 1);
        // A recovery epoch resets the streak.
        assert_eq!(guard.observe_epoch(&mut m, 1.5, false), 0);
        assert_eq!(guard.observe_epoch(&mut m, 5.0, false), 0);
    }

    /// Fills every gradient with a deterministic ramp so optimizer steps
    /// are reproducible across the actual and reference runs.
    fn set_ramp_grads(m: &mut Sequential, scale: f32) {
        m.visit_params(&mut |p| {
            for (i, g) in p.grad.as_mut_slice().iter_mut().enumerate() {
                *g = scale * (i as f32 + 1.0);
            }
        });
    }

    /// A rollback restores parameters bit-for-bit while the optimizer keeps
    /// its accumulated state (the Adam moments). The first step after
    /// a rollback must therefore equal a step taken from (checkpoint
    /// parameters, the optimizer state at divergence time) — verified here
    /// against a hand-built reference for Adam.
    fn rollback_round_trips_optimizer_state<O: Optimizer + Clone>(mut opt: O) {
        let mut m = model();
        let mut guard = RollbackGuard::new(ResiliencePolicy::default(), &mut m);

        // Warm the optimizer state with a few deterministic steps.
        for step in 0..3 {
            set_ramp_grads(&mut m, 0.1 * (step + 1) as f32);
            opt.step(&mut m);
        }
        // A healthy epoch captures the checkpoint.
        assert_eq!(guard.observe_epoch(&mut m, 1.0, false), 0);
        let checkpoint_params = params_of(&mut m);

        // Further steps drift the weights and advance the optimizer state.
        for step in 0..3 {
            set_ramp_grads(&mut m, 0.2 * (step + 1) as f32);
            opt.step(&mut m);
        }
        let opt_at_divergence = opt.clone();

        // The poisoned epoch rolls the parameters back through the
        // serializer round trip...
        assert_eq!(guard.observe_epoch(&mut m, f64::NAN, true), 1);
        assert_eq!(
            params_of(&mut m),
            checkpoint_params,
            "rollback must restore parameters bit-for-bit"
        );

        // ...and the next step must match the reference exactly.
        let mut reference = model();
        let mut it = checkpoint_params.into_iter();
        reference.visit_params(&mut |p| p.value = it.next().expect("same architecture"));
        let mut ref_opt = opt_at_divergence;
        set_ramp_grads(&mut m, 0.3);
        set_ramp_grads(&mut reference, 0.3);
        opt.step(&mut m);
        ref_opt.step(&mut reference);
        assert_eq!(
            params_of(&mut m),
            params_of(&mut reference),
            "post-rollback step must be reproducible from (checkpoint, state)"
        );
    }

    #[test]
    fn adam_state_round_trips_through_a_rollback() {
        rollback_round_trips_optimizer_state(Adam::new(0.01));
    }

    #[test]
    fn rollback_budget_is_respected() {
        let mut m = model();
        let policy = ResiliencePolicy {
            max_rollbacks: 2,
            ..ResiliencePolicy::default()
        };
        let mut guard = RollbackGuard::new(policy, &mut m);
        let mut total = 0;
        for _ in 0..5 {
            total += guard.observe_epoch(&mut m, f64::INFINITY, true);
        }
        assert_eq!(total, 2);
        assert!((guard.lr_scale - 0.25).abs() < 1e-6);
    }
}
