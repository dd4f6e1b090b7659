//! The AppMult-aware retraining loop (Sec. IV / V-A).

use appmult_nn::loss::softmax_cross_entropy;
use appmult_nn::metrics::{top_k_accuracy, RunningMean};
use appmult_nn::optim::{Optimizer, StepSchedule};
use appmult_nn::{Module, Tensor};
use appmult_obs::ObsSink;

use crate::resilience::{ResiliencePolicy, RollbackGuard};

/// One pre-assembled mini-batch: NCHW images and integer labels.
pub type Batch = (Tensor, Vec<usize>);

/// Retraining configuration.
///
/// The defaults follow the paper's setup: Adam (supplied by the caller),
/// 30 epochs, and the step learning-rate schedule of Sec. V-A.
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Learning-rate schedule, indexed by 1-based epoch.
    pub schedule: StepSchedule,
    /// Evaluate on the test set every `eval_every` epochs (always on the
    /// final epoch).
    pub eval_every: usize,
    /// NaN-guard / divergence-rollback policy. `None` (the default) keeps
    /// the legacy loop numerics untouched; set it when retraining against
    /// defective hardware (see the `appmult-mult` fault models).
    pub resilience: Option<ResiliencePolicy>,
    /// Observability sink for the loop's spans, metrics, and per-epoch
    /// events. Defaults to the no-op null sink; gradient-norm and
    /// weight-update statistics (which cost an extra pass over the
    /// parameters) are only computed when the sink records.
    pub obs: ObsSink,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            schedule: StepSchedule::paper_default(),
            eval_every: 1,
            resilience: None,
            obs: ObsSink::null(),
        }
    }
}

impl RetrainConfig {
    /// A scaled-down configuration for CPU-sized experiments.
    pub fn quick(epochs: usize) -> Self {
        Self {
            epochs,
            schedule: StepSchedule::new(vec![(1, 1e-3)]),
            eval_every: 1,
            resilience: None,
            obs: ObsSink::null(),
        }
    }
}

/// Per-epoch statistics of a retraining run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// 1-based epoch index.
    pub epoch: usize,
    /// Learning rate used this epoch.
    pub lr: f32,
    /// Mean training loss.
    pub train_loss: f64,
    /// Top-1 test accuracy (NaN-free; `None` on non-eval epochs).
    pub test_top1: Option<f64>,
    /// Top-5 test accuracy.
    pub test_top5: Option<f64>,
    /// Non-finite gradient entries zeroed this epoch (0 without a
    /// [`ResiliencePolicy`]).
    pub scrubbed_grads: usize,
    /// Rollbacks to the best checkpoint performed at the end of this epoch
    /// (0 or 1; always 0 without a [`ResiliencePolicy`]).
    pub rollbacks: usize,
}

/// Full history of a retraining run.
#[derive(Debug, Clone, Default)]
pub struct RetrainHistory {
    /// Per-epoch records in order.
    pub epochs: Vec<EpochStats>,
}

impl RetrainHistory {
    /// Final top-1 test accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded no evaluation.
    pub fn final_top1(&self) -> f64 {
        self.epochs
            .iter()
            .rev()
            .find_map(|e| e.test_top1)
            .expect("no evaluation was recorded")
    }

    /// Final top-5 test accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded no evaluation.
    pub fn final_top5(&self) -> f64 {
        self.epochs
            .iter()
            .rev()
            .find_map(|e| e.test_top5)
            .expect("no evaluation was recorded")
    }

    /// Final training loss.
    pub fn final_train_loss(&self) -> f64 {
        self.epochs.last().map(|e| e.train_loss).unwrap_or(f64::NAN)
    }

    /// Total rollbacks performed across the run.
    pub fn total_rollbacks(&self) -> usize {
        self.epochs.iter().map(|e| e.rollbacks).sum()
    }

    /// Total non-finite gradient entries scrubbed across the run.
    pub fn total_scrubbed_grads(&self) -> usize {
        self.epochs.iter().map(|e| e.scrubbed_grads).sum()
    }
}

/// Evaluates top-1/top-5 accuracy of `model` over `batches` in eval mode.
pub fn evaluate(model: &mut dyn Module, batches: &[Batch]) -> (f64, f64) {
    let mut top1 = RunningMean::new();
    let mut top5 = RunningMean::new();
    for (x, labels) in batches {
        let logits = model.forward(x, false);
        top1.add(top_k_accuracy(&logits, labels, 1), labels.len() as u64);
        top5.add(top_k_accuracy(&logits, labels, 5), labels.len() as u64);
    }
    (top1.mean(), top5.mean())
}

/// Runs AppMult-aware retraining: for each epoch, sets the scheduled
/// learning rate, iterates the training batches (forward through the
/// AppMult LUTs, backward through the gradient LUTs), and evaluates.
///
/// The caller owns the model (with approximate layers already installed),
/// the optimizer, and the batched data; this keeps the loop reusable for
/// STE-vs-ours comparisons on identical initial conditions.
///
/// With [`RetrainConfig::resilience`] set, each batch's gradients are
/// scrubbed of non-finite entries and norm-clipped before the optimizer
/// step, non-finite batch losses are excluded from the epoch mean, and
/// diverged epochs roll the model back to the best in-memory checkpoint
/// with a compounding learning-rate backoff. The optimizer's internal
/// state (the Adam moments) is intentionally *not* rolled back —
/// it decays on its own and rebuilding it would require optimizer
/// cooperation.
///
/// # Panics
///
/// Panics if `train` is empty.
pub fn retrain(
    model: &mut dyn Module,
    optimizer: &mut dyn Optimizer,
    config: &RetrainConfig,
    train: &[Batch],
    test: &[Batch],
) -> RetrainHistory {
    assert!(!train.is_empty(), "no training batches");
    let obs = &config.obs;
    let _run_span = obs.span("retrain");
    let mut history = RetrainHistory::default();
    let mut guard = config
        .resilience
        .clone()
        .map(|policy| RollbackGuard::new(policy, model));
    for epoch in 1..=config.epochs {
        let _epoch_span = obs.span("epoch");
        let lr_scale = guard.as_ref().map_or(1.0, |g| g.lr_scale);
        let lr = config.schedule.lr_for_epoch(epoch) * lr_scale;
        optimizer.set_lr(lr);
        obs.gauge_set("lr", f64::from(lr));
        let mut loss_mean = RunningMean::new();
        let mut grad_norm_mean = RunningMean::new();
        let mut scrubbed_grads = 0usize;
        let mut nonfinite_batches = 0usize;
        // Deterministic batch-order shuffle that varies per epoch.
        let order = shuffled_order(train.len(), epoch as u64);
        for &bi in &order {
            let _batch_span = obs.span("batch");
            let (x, labels) = &train[bi];
            let logits = model.forward(x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, labels);
            model.backward_params(&grad);
            if let Some(g) = &guard {
                scrubbed_grads += g.scrub(model);
            }
            // Gradient statistics cost a pass over the parameters, so they
            // are gated on a recording sink rather than free-running.
            let pre_step = if obs.is_enabled() {
                let norm = gradient_norm(model);
                obs.observe("grad_norm", norm);
                if norm.is_finite() {
                    grad_norm_mean.add(norm, 1);
                }
                Some(flat_params(model))
            } else {
                None
            };
            optimizer.step(model);
            if let Some(pre) = pre_step {
                obs.observe("weight_update_magnitude", update_magnitude(model, &pre));
            }
            model.zero_grad();
            if guard.is_some() && !loss.is_finite() {
                nonfinite_batches += 1;
            } else {
                loss_mean.add(f64::from(loss), labels.len() as u64);
            }
        }
        let train_loss = loss_mean.mean();
        let rollbacks = guard.as_mut().map_or(0, |g| {
            g.observe_epoch(model, train_loss, nonfinite_batches > 0)
        });
        let evaluate_now =
            !test.is_empty() && (epoch % config.eval_every == 0 || epoch == config.epochs);
        let (t1, t5) = if evaluate_now {
            let _eval_span = obs.span("eval");
            let (a, b) = evaluate(model, test);
            (Some(a), Some(b))
        } else {
            (None, None)
        };
        if obs.is_enabled() {
            let mut fields: Vec<(&str, appmult_obs::Value)> = vec![
                ("epoch", epoch.into()),
                ("lr", lr.into()),
                ("train_loss", train_loss.into()),
                ("grad_norm", grad_norm_mean.mean().into()),
                ("scrubbed_grads", scrubbed_grads.into()),
                ("rollbacks", rollbacks.into()),
            ];
            if let Some(t1) = t1 {
                fields.push(("test_top1", t1.into()));
            }
            if let Some(t5) = t5 {
                fields.push(("test_top5", t5.into()));
            }
            obs.event("epoch", &fields);
        }
        history.epochs.push(EpochStats {
            epoch,
            lr,
            train_loss,
            test_top1: t1,
            test_top5: t5,
            scrubbed_grads,
            rollbacks,
        });
    }
    history
}

/// Global L2 norm of the model's current gradients (finite entries only,
/// matching the resilience scrubber's definition).
fn gradient_norm(model: &mut dyn Module) -> f64 {
    let mut sq_sum = 0f64;
    model.visit_params(&mut |p| {
        for g in p.grad.as_slice() {
            if g.is_finite() {
                sq_sum += f64::from(*g) * f64::from(*g);
            }
        }
    });
    sq_sum.sqrt()
}

/// Flat copy of every parameter value, for update-magnitude deltas.
fn flat_params(model: &mut dyn Module) -> Vec<f32> {
    let mut flat = Vec::new();
    model.visit_params(&mut |p| flat.extend_from_slice(p.value.as_slice()));
    flat
}

/// L2 norm of the parameter change relative to the `pre` snapshot.
fn update_magnitude(model: &mut dyn Module, pre: &[f32]) -> f64 {
    let mut sq_sum = 0f64;
    let mut idx = 0usize;
    model.visit_params(&mut |p| {
        for v in p.value.as_slice() {
            let d = f64::from(v - pre[idx]);
            if d.is_finite() {
                sq_sum += d * d;
            }
            idx += 1;
        }
    });
    sq_sum.sqrt()
}

/// Deterministic permutation of `0..len` derived from `seed`
/// (splitmix-style Fisher-Yates).
fn shuffled_order(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        state ^= state >> 30;
        state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state ^= state >> 27;
        state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
        state ^= state >> 31;
        state
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_nn::layers::{Flatten, Linear, Sequential};
    use appmult_nn::optim::Adam;

    fn two_blob_batches(n_batches: usize, seed: u64) -> Vec<Batch> {
        // Two linearly separable 1x2x2 "image" classes.
        let mut out = vec![];
        let mut s = seed;
        for _ in 0..n_batches {
            let mut data = vec![];
            let mut labels = vec![];
            for k in 0..8 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = ((s >> 33) as f32 / 2.0_f32.powi(31)) * 0.2;
                let class = k % 2;
                let base = if class == 0 { 0.8 } else { -0.8 };
                data.extend_from_slice(&[base + noise, -base, base, -base - noise]);
                labels.push(class);
            }
            out.push((Tensor::from_vec(data, &[8, 1, 2, 2]), labels));
        }
        out
    }

    fn tiny_model(seed: u64) -> Sequential {
        Sequential::new()
            .push(Flatten::new())
            .push(Linear::new(4, 2, seed))
    }

    #[test]
    fn retraining_learns_a_separable_task() {
        let train = two_blob_batches(8, 3);
        let test = two_blob_batches(2, 99);
        let mut model = tiny_model(1);
        let mut opt = Adam::new(1e-2);
        let cfg = RetrainConfig {
            epochs: 5,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 1,
            resilience: None,
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &test);
        assert_eq!(history.epochs.len(), 5);
        assert!(
            history.final_top1() > 0.95,
            "top1 = {}",
            history.final_top1()
        );
        assert!(history.final_train_loss() < 0.3);
        // Loss decreased overall.
        assert!(history.epochs[4].train_loss < history.epochs[0].train_loss);
    }

    #[test]
    fn schedule_is_applied_per_epoch() {
        let train = two_blob_batches(1, 3);
        let mut model = tiny_model(2);
        let mut opt = Adam::new(999.0); // will be overwritten by the schedule
        let cfg = RetrainConfig {
            epochs: 3,
            schedule: StepSchedule::new(vec![(1, 1e-3), (3, 1e-4)]),
            eval_every: 10,
            resilience: None,
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &[]);
        assert_eq!(history.epochs[0].lr, 1e-3);
        assert_eq!(history.epochs[1].lr, 1e-3);
        assert_eq!(history.epochs[2].lr, 1e-4);
        assert!(history.epochs[0].test_top1.is_none());
    }

    #[test]
    fn eval_every_controls_eval_epochs_but_final_always_evaluates() {
        let train = two_blob_batches(1, 3);
        let test = two_blob_batches(1, 5);
        let mut model = tiny_model(3);
        let mut opt = Adam::new(1e-3);
        let cfg = RetrainConfig {
            epochs: 3,
            schedule: StepSchedule::new(vec![(1, 1e-3)]),
            eval_every: 2,
            resilience: None,
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &test);
        assert!(history.epochs[0].test_top1.is_none());
        assert!(history.epochs[1].test_top1.is_some());
        assert!(history.epochs[2].test_top1.is_some()); // final epoch
    }

    #[test]
    fn nan_batch_without_policy_destroys_training() {
        let mut train = two_blob_batches(4, 3);
        // One poisoned batch: a NaN pixel wrecks every logit it touches.
        train[1].0.as_mut_slice()[0] = f32::NAN;
        let mut model = tiny_model(1);
        let mut opt = Adam::new(1e-2);
        let cfg = RetrainConfig {
            epochs: 3,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 1,
            resilience: None,
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &[]);
        assert!(history.final_train_loss().is_nan());
        assert_eq!(history.total_rollbacks(), 0);
    }

    #[test]
    fn nan_batch_with_policy_recovers_with_recorded_rollback() {
        let mut train = two_blob_batches(4, 3);
        train[1].0.as_mut_slice()[0] = f32::NAN;
        let test = two_blob_batches(2, 99);
        let mut model = tiny_model(1);
        let mut opt = Adam::new(1e-2);
        let cfg = RetrainConfig {
            epochs: 5,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 1,
            resilience: Some(crate::ResiliencePolicy::default()),
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &test);
        // The poisoned batch keeps firing, so the guard must have stepped in.
        assert!(history.total_rollbacks() >= 1, "{history:?}");
        assert!(history.total_scrubbed_grads() > 0);
        // But the run survives with finite numbers end to end.
        assert!(history.final_train_loss().is_finite(), "{history:?}");
        assert!(history.final_top1().is_finite());
        // The model itself is still finite and usable.
        let mut all_finite = true;
        model.visit_params(&mut |p| {
            all_finite &= p.value.as_slice().iter().all(|v| v.is_finite());
        });
        assert!(all_finite, "weights must stay finite under the policy");
    }

    #[test]
    fn poisoned_batch_with_policy_survives_on_approx_model() {
        // Regression test for observer poisoning: an Inf/NaN-poisoned batch
        // used to fold a non-finite extremum into the activation observer's
        // EMA range, so the next `quant_params` call died on `from_range`'s
        // finite assert — even with the resilience policy enabled, and with
        // the range corrupted for good. The observer must reject the
        // poisoned extrema and the run must survive end to end, like the
        // float-model test `nan_batch_with_policy_recovers_with_recorded_
        // rollback` does.
        use crate::{ApproxConv2d, GradientLut, GradientMode, QuantConfig};
        use appmult_mult::{ExactMultiplier, Multiplier};
        use appmult_nn::layers::Conv2dSpec;
        use std::sync::Arc;

        let mut train = two_blob_batches(4, 3);
        train[1].0.as_mut_slice()[0] = f32::NAN;
        train[1].0.as_mut_slice()[1] = f32::INFINITY; // non-finite batch maximum
        let test = two_blob_batches(2, 99);

        let lut = Arc::new(ExactMultiplier::new(8).to_lut());
        let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
        // A 2x2 kernel over the 1x2x2 images: one dense 4 -> 2 GEMM.
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kernel: 2,
            stride: 1,
            padding: 0,
        };
        let weight = appmult_nn::init::uniform_fan_in(&[2, 4], 4, 1);
        let conv = ApproxConv2d::with_params(
            spec,
            weight,
            Tensor::zeros(&[2]),
            lut,
            grads,
            QuantConfig::default(),
        );
        let mut model = Sequential::new().push(conv).push(Flatten::new());
        // The observer reports its rejections to the process-wide sink.
        // No other test in this crate reads that sink, and one that feeds
        // non-finite activations can only raise the count checked below.
        let obs = ObsSink::recording();
        appmult_obs::set_global(&obs);
        // Calibrate on clean data first, as every harness does for the
        // Table II "initial accuracy" column.
        let _ = evaluate(&mut model, &test);

        let mut opt = Adam::new(1e-2);
        let cfg = RetrainConfig {
            epochs: 5,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 1,
            resilience: Some(crate::ResiliencePolicy::default()),
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &test);
        appmult_obs::set_global(&ObsSink::null());
        // The poisoned batch fires every epoch; each firing must be
        // rejected by the observer rather than corrupting its range.
        let rejections = obs.counter("observer.rejections");
        assert!(rejections >= cfg.epochs as u64, "rejections = {rejections}");
        // And the run survives with finite numbers end to end (quantization
        // clamps the poisoned activations, so no rollback is even needed).
        assert!(history.final_train_loss().is_finite(), "{history:?}");
        assert!(history.final_top1().is_finite());
        let mut all_finite = true;
        model.visit_params(&mut |p| {
            all_finite &= p.value.as_slice().iter().all(|v| v.is_finite());
        });
        assert!(all_finite, "weights must stay finite under the policy");
    }

    #[test]
    fn lr_backoff_is_visible_after_rollback() {
        let mut train = two_blob_batches(2, 3);
        train[0].0.as_mut_slice()[0] = f32::INFINITY;
        let mut model = tiny_model(2);
        let mut opt = Adam::new(1e-2);
        let cfg = RetrainConfig {
            epochs: 3,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 10,
            resilience: Some(crate::ResiliencePolicy::default()),
            obs: ObsSink::null(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &[]);
        assert_eq!(history.epochs[0].lr, 1e-2);
        assert!(history.epochs[0].rollbacks > 0);
        assert!(
            history.epochs[1].lr < 1e-2,
            "lr must back off after rollback"
        );
    }

    #[test]
    fn policy_on_healthy_run_changes_nothing_and_records_zeros() {
        let train = two_blob_batches(8, 3);
        let cfg_plain = RetrainConfig {
            epochs: 4,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 10,
            resilience: None,
            obs: ObsSink::null(),
        };
        let cfg_guarded = RetrainConfig {
            resilience: Some(crate::ResiliencePolicy {
                max_grad_norm: None, // keep update numerics identical
                ..crate::ResiliencePolicy::default()
            }),
            ..cfg_plain.clone()
        };
        let mut m1 = tiny_model(1);
        let mut o1 = Adam::new(1e-2);
        let h1 = retrain(&mut m1, &mut o1, &cfg_plain, &train, &[]);
        let mut m2 = tiny_model(1);
        let mut o2 = Adam::new(1e-2);
        let h2 = retrain(&mut m2, &mut o2, &cfg_guarded, &train, &[]);
        assert_eq!(h2.total_rollbacks(), 0);
        assert_eq!(h2.total_scrubbed_grads(), 0);
        for (a, b) in h1.epochs.iter().zip(&h2.epochs) {
            assert_eq!(a.train_loss, b.train_loss, "healthy runs must match");
            assert_eq!(a.lr, b.lr);
        }
    }

    #[test]
    fn recording_sink_captures_epoch_events_spans_and_gradient_stats() {
        let train = two_blob_batches(2, 3);
        let test = two_blob_batches(1, 9);
        let mut model = tiny_model(4);
        let mut opt = Adam::new(1e-2);
        let obs = ObsSink::recording();
        let cfg = RetrainConfig {
            epochs: 2,
            schedule: StepSchedule::new(vec![(1, 1e-2)]),
            eval_every: 1,
            resilience: None,
            obs: obs.clone(),
        };
        let history = retrain(&mut model, &mut opt, &cfg, &train, &test);

        // One epoch event per epoch, with the loss the history reports.
        let events = obs.events();
        let epochs: Vec<_> = events.iter().filter(|e| e.kind == "epoch").collect();
        assert_eq!(epochs.len(), 2);
        for (event, stats) in epochs.iter().zip(&history.epochs) {
            let loss = event
                .fields
                .iter()
                .find(|(k, _)| k == "train_loss")
                .map(|(_, v)| v.clone());
            assert_eq!(loss, Some(appmult_obs::Value::F64(stats.train_loss)));
            assert!(event.fields.iter().any(|(k, _)| k == "test_top1"));
        }

        // Hierarchical spans: one run, two epochs, 2 batches per epoch.
        assert_eq!(obs.histogram("span.retrain").expect("run span").count, 1);
        assert_eq!(
            obs.histogram("span.retrain/epoch").expect("epochs").count,
            2
        );
        assert_eq!(
            obs.histogram("span.retrain/epoch/batch")
                .expect("batches")
                .count,
            4
        );
        assert_eq!(
            obs.histogram("span.retrain/epoch/eval")
                .expect("evals")
                .count,
            2
        );
        // Per-batch gradient statistics were recorded.
        assert_eq!(obs.histogram("grad_norm").expect("grad norms").count, 4);
        assert_eq!(
            obs.histogram("weight_update_magnitude")
                .expect("updates")
                .count,
            4
        );
    }

    #[test]
    fn recording_sink_does_not_change_training_numerics() {
        let train = two_blob_batches(4, 3);
        let run = |obs: ObsSink| {
            let mut model = tiny_model(6);
            let mut opt = Adam::new(1e-2);
            let cfg = RetrainConfig {
                epochs: 3,
                schedule: StepSchedule::new(vec![(1, 1e-2)]),
                eval_every: 10,
                resilience: None,
                obs,
            };
            retrain(&mut model, &mut opt, &cfg, &train, &[])
        };
        let plain = run(ObsSink::null());
        let observed = run(ObsSink::recording());
        for (a, b) in plain.epochs.iter().zip(&observed.epochs) {
            assert_eq!(a.train_loss, b.train_loss, "observability must be passive");
        }
    }

    #[test]
    fn shuffle_is_deterministic_and_a_permutation() {
        let a = shuffled_order(100, 7);
        let b = shuffled_order(100, 7);
        let c = shuffled_order(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
