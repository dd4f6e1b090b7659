//! Cross-crate integration tests: the full Fig. 1 flow at miniature scale.

use std::sync::Arc;

use appmult::data::{DatasetConfig, SyntheticDataset};
use appmult::models::{
    copy_params, lenet5, resnet, vgg, ConvMode, ModelConfig, ResNetDepth, VggDepth,
};
use appmult::mult::{zoo, Multiplier};
use appmult::nn::optim::{Adam, StepSchedule};
use appmult::nn::Module;
use appmult::retrain::{evaluate, retrain, GradientLut, GradientMode, RetrainConfig};

fn tiny_workload() -> (Vec<appmult::retrain::Batch>, Vec<appmult::retrain::Batch>) {
    let mut cfg = DatasetConfig::small(4, 12, 8);
    cfg.noise = 0.5;
    let data = SyntheticDataset::generate(&cfg);
    (data.train_batches(16), data.test_batches(16))
}

fn quick_cfg(epochs: usize) -> RetrainConfig {
    RetrainConfig {
        epochs,
        schedule: StepSchedule::new(vec![(1, 2e-3)]),
        eval_every: 1,
        resilience: None,
        obs: appmult_obs::ObsSink::null(),
    }
}

#[test]
fn float_lenet_learns_the_synthetic_task() {
    let (train, test) = tiny_workload();
    let model_cfg = ModelConfig {
        num_classes: 4,
        input_hw: (16, 16),
        ..ModelConfig::quick_test()
    };
    let mut model = lenet5(&model_cfg);
    let mut opt = Adam::new(2e-3);
    let history = retrain(&mut model, &mut opt, &quick_cfg(6), &train, &test);
    assert!(
        history.final_top1() > 0.6,
        "accuracy only {:.2}",
        history.final_top1()
    );
}

#[test]
fn approx_retraining_recovers_accuracy_lost_to_the_appmult() {
    let (train, test) = tiny_workload();
    let model_cfg = ModelConfig {
        num_classes: 4,
        input_hw: (16, 16),
        ..ModelConfig::quick_test()
    };

    // Pretrain float.
    let mut float_model = lenet5(&model_cfg);
    let mut opt = Adam::new(2e-3);
    let pre = retrain(&mut float_model, &mut opt, &quick_cfg(6), &train, &test);
    let float_acc = pre.final_top1();

    // Convert to a large-error AppMult and measure degradation.
    let lut = Arc::new(zoo::mul8u_rm8().to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(16)));
    let approx_cfg = model_cfg.with_conv(ConvMode::approximate(lut, grads));
    let mut approx = lenet5(&approx_cfg);
    copy_params(&mut float_model, &mut approx);
    let (initial, _) = evaluate(&mut approx, &test);

    // Retrain and check recovery.
    let mut opt = Adam::new(1e-3);
    let history = retrain(&mut approx, &mut opt, &quick_cfg(5), &train, &test);
    let final_acc = history.final_top1();
    assert!(
        final_acc >= initial,
        "retraining should not hurt: {initial:.3} -> {final_acc:.3}"
    );
    assert!(
        final_acc > 0.5,
        "retrained accuracy {final_acc:.3} too far below float {float_acc:.3}"
    );
}

#[test]
fn approximate_models_build_for_every_architecture() {
    use appmult::nn::Tensor;
    let lut = Arc::new(zoo::mul6u_rm4().to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(2)));
    let cfg = ModelConfig {
        num_classes: 5,
        width_div: 8,
        ..ModelConfig::quick_test()
    }
    .with_conv(ConvMode::approximate(lut, grads));
    let x = Tensor::zeros(&[1, 3, 16, 16]);
    for mut model in [
        vgg(VggDepth::Small, &cfg),
        resnet(ResNetDepth::R10, &cfg),
        lenet5(&cfg),
    ] {
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[1, 5]);
        // A whole network's input is the data batch: backward returns no
        // input gradient.
        let g = model.backward(&Tensor::full(&[1, 5], 0.2));
        assert!(g.is_empty(), "{:?}", g.shape());
        // Every parameter received a gradient buffer of the right shape.
        model.visit_params(&mut |p| {
            assert_eq!(p.grad.shape(), p.value.shape());
        });
    }
}

#[test]
fn ste_and_ours_share_identical_forward_behaviour() {
    // Table II comparisons are only fair if the two methods differ solely
    // in the backward pass. Verify at the whole-model level.
    use appmult::nn::Tensor;
    let lut = Arc::new(zoo::mul7u_rm6().to_lut());
    let cfg = ModelConfig {
        num_classes: 3,
        width_div: 8,
        ..ModelConfig::quick_test()
    };
    let build = |mode: GradientMode| {
        let grads = Arc::new(GradientLut::build(&lut, mode));
        lenet5(
            &cfg.clone()
                .with_conv(ConvMode::approximate(lut.clone(), grads)),
        )
    };
    let mut ste = build(GradientMode::Ste);
    let mut ours = build(GradientMode::difference_based(2));
    // Same seeds => same initial weights.
    let x = Tensor::from_vec(
        (0..768)
            .map(|i| ((i * 13) % 31) as f32 / 15.0 - 1.0)
            .collect(),
        &[1, 3, 16, 16],
    );
    let ya = ste.forward(&x, true);
    let yb = ours.forward(&x, true);
    assert_eq!(ya, yb);
    // ...but backward differs, down to the stem conv's weight gradient.
    let g = Tensor::full(&[1, 3], 0.5);
    let param_grads = |model: &mut appmult::nn::layers::Sequential| {
        model.backward(&g);
        let mut grads = vec![];
        model.visit_params(&mut |p| grads.push(p.grad.clone()));
        grads
    };
    let (ga, gb) = (param_grads(&mut ste), param_grads(&mut ours));
    assert_eq!(ga.len(), gb.len());
    assert_ne!(ga[0], gb[0], "stem weight gradient");
}

#[test]
fn gradient_mode_changes_training_trajectory_not_initial_loss() {
    let (train, test) = tiny_workload();
    let lut = Arc::new(zoo::mul8u_rm8().to_lut());
    let cfg = ModelConfig {
        num_classes: 4,
        width_div: 8,
        ..ModelConfig::quick_test()
    };
    let mut results = vec![];
    for mode in [GradientMode::Ste, GradientMode::difference_based(16)] {
        let grads = Arc::new(GradientLut::build(&lut, mode));
        let mut model = lenet5(
            &cfg.clone()
                .with_conv(ConvMode::approximate(lut.clone(), grads)),
        );
        let mut opt = Adam::new(1e-3);
        let history = retrain(&mut model, &mut opt, &quick_cfg(2), &train, &test);
        results.push(history);
    }
    // Both trained; trajectories diverge after the first updates.
    assert_ne!(
        results[0].epochs.last().map(|e| e.train_loss),
        results[1].epochs.last().map(|e| e.train_loss),
        "different gradient rules should give different trajectories"
    );
}
