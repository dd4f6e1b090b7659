//! Engine outputs against a model rebuilt from the registry's checkpoint.
//!
//! Approximate layers keep their eval weight side (quantized weights, code
//! sums, forward-plan tables) while the weights are bit for bit unchanged.
//! Served batches of 1 to 16 requests must each give, bit for bit, the
//! per-sample outputs of a model built by the factory and then loaded from
//! the checkpoint, before and after a poisoned-model rebuild.
//!
//! The factory seeds each build afresh and calibrates it with one eval
//! forward, so a rebuilt model (and the reference) first quantizes
//! weights that `load_params` then overwrites: a weight side that missed
//! the write would serve the factory's weights. The approximate conv comes
//! first, so its observer sees only the calibration input and every build
//! calibrates alike. At 7 bits, 16 images of 8x8 reach the row-table rule
//! (`8 · 2^7` rows), so the batches read both forward paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use appmult_mult::{zoo, Multiplier, MultiplierLut};
use appmult_nn::layers::{Flatten, Linear, MaxPool2d, Relu, Sequential};
use appmult_nn::serialize::{load_params, save_params};
use appmult_nn::{Module, Parameter, Tensor};
use appmult_retrain::{ApproxConv2d, GradientLut, GradientMode, QuantConfig};
use appmult_rng::Rng64;
use appmult_serve::{Engine, EngineConfig, ModelFactory, ModelSpec, Registry, Rejection, Request};

const SHAPE: [usize; 3] = [3, 8, 8];
/// An input whose first value is this panics inside the model.
const POISON: f32 = -7.0;

/// Panics on a batch whose first value is [`POISON`]; otherwise passes the
/// batch through.
struct PoisonPill;

impl Module for PoisonPill {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert!(input.as_slice().first() != Some(&POISON), "poisoned batch");
        input.clone()
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}
}

fn input(rng: &mut Rng64, n: usize) -> Tensor {
    let len = n * SHAPE.iter().product::<usize>();
    let data = (0..len)
        .map(|_| rng.uniform_f32(-1.0, 1.0).max(0.0))
        .collect();
    Tensor::from_vec(data, &[n, SHAPE[0], SHAPE[1], SHAPE[2]])
}

/// The served architecture with `seed`'s weights, calibrated in eval mode.
fn build(seed: u64, lut: &Arc<MultiplierLut>, grads: &Arc<GradientLut>) -> Sequential {
    let conv = ApproxConv2d::new(
        3,
        8,
        3,
        1,
        1,
        seed,
        lut.clone(),
        grads.clone(),
        QuantConfig::default(),
    );
    let mut net = Sequential::new()
        .push(PoisonPill)
        .push(conv)
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Linear::new(8 * 4 * 4, 10, seed));
    net.forward(&input(&mut Rng64::seed_from_u64(99), 4), false);
    net
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Serves one batch of each size from 1 to 16 (the engine is paused while
/// a batch is queued, so its one worker takes it whole) and checks every
/// output against the reference's single-sample forward.
fn serve_and_check(engine: &Engine, reference: &mut Sequential, rng: &mut Rng64, when: &str) {
    for size in 1..=16 {
        let x = input(rng, size);
        let samples: Vec<Tensor> = x
            .as_slice()
            .chunks(x.len() / size)
            .map(|s| Tensor::from_vec(s.to_vec(), &SHAPE))
            .collect();
        engine.pause();
        let tickets: Vec<_> = samples
            .iter()
            .map(|s| {
                engine
                    .submit(Request::new("m", s.clone()))
                    .expect("admitted")
            })
            .collect();
        engine.resume();
        for (i, (t, s)) in tickets.iter().zip(&samples).enumerate() {
            let got = t.wait().expect("served");
            let want = reference.forward(&s.reshape(&[1, SHAPE[0], SHAPE[1], SHAPE[2]]), false);
            assert!(
                bits(&got) == bits(&want),
                "{when}: batch of {size}, request {i}"
            );
        }
    }
}

#[test]
fn served_batches_match_per_sample_forwards_of_the_checkpoint() {
    let lut = Arc::new(zoo::mul7u_rm6().to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(4)));
    let builds = Arc::new(AtomicU64::new(0));
    let registry = Arc::new(Registry::new(2));
    let factory: ModelFactory = {
        let (lut, grads, builds) = (lut.clone(), grads.clone(), builds.clone());
        Arc::new(move |_| build(builds.fetch_add(1, Ordering::SeqCst), &lut, &grads))
    };
    registry
        .load(ModelSpec::new("m", SHAPE.to_vec(), factory))
        .expect("load");
    assert_eq!(builds.load(Ordering::SeqCst), 1);
    // The registry checkpointed the first build, seed 0.
    let mut checkpoint = Vec::new();
    save_params(&mut build(0, &lut, &grads), &mut checkpoint).expect("in-memory save");
    let mut reference = build(1000, &lut, &grads);
    load_params(&mut reference, checkpoint.as_slice()).expect("same architecture");

    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            max_batch: 16,
            ..EngineConfig::default()
        },
    );
    let mut rng = Rng64::seed_from_u64(7);
    serve_and_check(&engine, &mut reference, &mut rng, "first build");

    let mut pill = input(&mut rng, 1);
    pill.as_mut_slice()[0] = POISON;
    let pill = pill.reshape(&SHAPE);
    let ticket = engine.submit(Request::new("m", pill)).expect("admitted");
    assert_eq!(ticket.wait(), Err(Rejection::WorkerPanicked));
    serve_and_check(
        &engine,
        &mut reference,
        &mut rng,
        "after a poisoned-model rebuild",
    );
    assert!(
        builds.load(Ordering::SeqCst) > 1,
        "the poisoned model was rebuilt"
    );
    engine.shutdown();
}
