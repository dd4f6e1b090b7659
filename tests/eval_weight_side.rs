//! Staleness of the approximate layers' eval weight side.
//!
//! An eval forward reuses the quantized weights, their code sums and the
//! forward plan's tables while the weight tensor is bit for bit the one
//! they were built from. Here every kind of weight write and mode switch
//! is followed by eval forwards that must equal, `to_bits`, those of a
//! freshly built twin with the same weights and the same observer
//! history: an Adam step, `load_params`, a direct write to
//! `Parameter::value` (a `+0.0 → -0.0` flip among them), a switch to the
//! naive kernel and back, and a train → eval → train → eval interleave.
//! Writes must also be seen to rebuild the weight side, so a write that
//! happens not to move the outputs (the sign of a zero) is still caught.
//!
//! A 3×3 conv and a dense layer (a 1×1 conv) run on a 7-bit unsigned
//! table and a 7-bit signed-offset one. An eval forward reads a row table
//! at any batch size the 512 KiB cap allows: the small conv and the dense
//! layer read one from their first eval forward, and a 16-channel conv
//! whose table (576 KiB) is over the cap reads the weight-row bases of the
//! zero-code skip instead, each kept once built. The eval batches change size in
//! both directions. The inputs are ReLU-like, about half zeros. The
//! forward path is chosen per pool block, so CI runs this file at 1 and
//! 4 threads.

use std::sync::Arc;

use appmult::kernels::Kernel;
use appmult::mult::{zoo, Multiplier, MultiplierLut, SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult::nn::optim::{Adam, Optimizer};
use appmult::nn::serialize::{load_params, save_params};
use appmult::nn::{Module, Tensor};
use appmult::retrain::{ApproxConv2d, GradientLut, GradientMode, QuantConfig, QuantScheme};
use appmult_pool::Pool;
use appmult_rng::Rng64;

mod common;

/// A layer under test, how to build its twin, and what its observer saw.
struct Subject {
    label: String,
    layer: ApproxConv2d,
    build: Box<dyn Fn() -> ApproxConv2d>,
    /// Every input the activation observer folded in, in order.
    observed: Vec<Tensor>,
    /// Eval batches, run in this order: growing and shrinking.
    batches: Vec<Tensor>,
    /// A train input and an output gradient of its shape.
    train: (Tensor, Tensor),
}

/// Uniform values in `[-1, 1)` with the negatives set to 0.
fn relu_input(rng: &mut Rng64, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n)
        .map(|_| rng.uniform_f32(-1.0, 1.0).max(0.0))
        .collect();
    Tensor::from_vec(data, shape)
}

fn uniform(rng: &mut Rng64, shape: &[usize], scale: f32) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n).map(|_| rng.uniform_f32(-scale, scale)).collect();
    Tensor::from_vec(data, shape)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn weights(layer: &mut ApproxConv2d) -> Vec<Tensor> {
    let mut values = Vec::new();
    layer.visit_params(&mut |p| values.push(p.value.clone()));
    values
}

impl Subject {
    fn new(
        label: &str,
        build: Box<dyn Fn() -> ApproxConv2d>,
        input: impl Fn(&mut Rng64, usize) -> Tensor,
        sizes: &[usize],
        seed: u64,
    ) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let batches = sizes.iter().map(|&n| input(&mut rng, n)).collect();
        let x = input(&mut rng, 4);
        let mut layer = build();
        // The first forward calibrates the observer, in eval mode too.
        let y = layer.forward(&x, false);
        let g = uniform(&mut rng, y.shape(), 1.0);
        Self {
            label: label.to_string(),
            layer,
            build,
            observed: vec![x.clone()],
            batches,
            train: (x, g),
        }
    }

    fn train_forward(&mut self) {
        self.layer.forward(&self.train.0, true);
        self.observed.push(self.train.0.clone());
    }

    /// Eval forwards of every batch must equal a fresh twin's: same
    /// weights, same observer history (replayed as train forwards, which
    /// fold each input exactly as the calibrating eval forward did).
    fn check(&mut self, step: &str) {
        let mut twin = (self.build)();
        let mut values = weights(&mut self.layer).into_iter();
        twin.visit_params(&mut |p| p.value = values.next().expect("same parameters"));
        for x in &self.observed {
            twin.forward(x, true);
        }
        for x in &self.batches {
            let got = self.layer.forward(x, false);
            let want = twin.forward(x, false);
            assert!(
                bits(&got) == bits(&want),
                "{}: after {step}, batch {:?}",
                self.label,
                x.shape()
            );
        }
    }

    /// [`check`](Self::check) after a weight write, which must rebuild
    /// the weight side once.
    fn check_rebuilt(&mut self, step: &str) {
        let before = self.layer.sum_w_rebuilds();
        self.check(step);
        assert_eq!(
            self.layer.sum_w_rebuilds(),
            before + 1,
            "{}: {step} must rebuild the weight side once",
            self.label
        );
    }

    /// Sets the first weight to `v` through the public field.
    fn write_first_weight(&mut self, v: f32) {
        let mut first = true;
        self.layer.visit_params(&mut |p| {
            if std::mem::take(&mut first) {
                p.value.as_mut_slice()[0] = v;
            }
        });
    }
}

fn subjects() -> Vec<Subject> {
    let unsigned = Arc::new(zoo::mul7u_rm6().to_lut());
    let unsigned_grads = Arc::new(GradientLut::build(
        &unsigned,
        GradientMode::difference_based(4),
    ));
    let signed: Arc<MultiplierLut> =
        Arc::new(SignMagnitudeMultiplier::new(TruncatedMultiplier::new(7, 5)).to_offset_lut());
    let signed_grads = Arc::new(
        GradientLut::try_build_for(
            &signed,
            GradientMode::difference_based(4),
            QuantScheme::SignedOffset,
            Pool::global(),
        )
        .expect("built-in estimator builds"),
    );
    let mut out = Vec::new();
    let schemes = [
        ("unsigned", unsigned, unsigned_grads, QuantConfig::default()),
        ("signed", signed, signed_grads, QuantConfig::signed()),
    ];
    for (i, (scheme, lut, grads, config)) in schemes.into_iter().enumerate() {
        assert_eq!(lut.bits(), 7);
        let seed = 10 * i as u64;
        // 9 output channels: two lane groups, the second padded. 8x8
        // images give 64 rows each, so 16 images reach the rows rule of a
        // train forward's plan; an eval plan ignores it.
        let (l, g) = (lut.clone(), grads.clone());
        let conv = move || ApproxConv2d::new(3, 9, 3, 1, 1, 5, l.clone(), g.clone(), config);
        out.push(Subject::new(
            &format!("{scheme} conv"),
            Box::new(conv),
            |rng, n| relu_input(rng, &[n, 3, 8, 8]),
            &[1, 4, 16, 1, 16, 4],
            seed + 1,
        ));
        // 16 → 16 channels, K = 144: a 7-bit row table of 144 × 128 × 2
        // entries of 16 bytes, 576 KiB, is over the cap at every batch.
        let (l, g) = (lut.clone(), grads.clone());
        let wide = move || ApproxConv2d::new(16, 16, 3, 1, 1, 7, l.clone(), g.clone(), config);
        out.push(Subject::new(
            &format!("{scheme} conv over the cap"),
            Box::new(wide),
            |rng, n| relu_input(rng, &[n, 16, 4, 4]),
            &[1, 16, 4, 1],
            seed + 3,
        ));
        // A dense 20 -> 10 layer.
        let dense = move || {
            let weight = appmult::nn::init::uniform_fan_in(&[10, 20], 20, 6);
            let bias = Tensor::zeros(&[10]);
            common::dense(weight, bias, lut.clone(), grads.clone(), config)
        };
        out.push(Subject::new(
            &format!("{scheme} dense"),
            Box::new(dense),
            |rng, n| relu_input(rng, &[n, 20, 1, 1]),
            &[1, 16, 1024, 4, 1024],
            seed + 2,
        ));
    }
    // The layer constructors read the process-wide kernel; pin the tiled
    // one, whatever a harness installed.
    for s in &mut out {
        s.layer.set_kernel(Kernel::Tiled);
    }
    out
}

#[test]
fn eval_forwards_match_a_fresh_layer_after_every_weight_write() {
    for mut s in subjects() {
        s.check("the calibrating forward");
        let rebuilds = s.layer.sum_w_rebuilds();
        s.check("nothing");
        assert_eq!(
            s.layer.sum_w_rebuilds(),
            rebuilds,
            "{}: unchanged weights",
            s.label
        );

        let mut adam = Adam::new(0.01);
        s.train_forward();
        s.layer.backward(&s.train.1);
        adam.step(&mut s.layer);
        s.check_rebuilt("an Adam step");

        let mut other = (s.build)();
        let mut values = weights(&mut s.layer).into_iter();
        other.visit_params(&mut |p| {
            let v = values.next().expect("same parameters");
            p.value = Tensor::from_vec(v.as_slice().iter().map(|x| x * 0.75).collect(), v.shape());
        });
        let mut bytes = Vec::new();
        save_params(&mut other, &mut bytes).expect("in-memory save");
        load_params(&mut s.layer, bytes.as_slice()).expect("same architecture");
        s.check_rebuilt("load_params");

        s.write_first_weight(0.3);
        s.check_rebuilt("a direct write");
        s.write_first_weight(0.0);
        s.check_rebuilt("a write of +0.0");
        s.write_first_weight(-0.0);
        s.check_rebuilt("a +0.0 -> -0.0 flip");

        s.layer.set_kernel(Kernel::Naive);
        s.check("set_kernel(Naive)");
        s.layer.set_kernel(Kernel::Tiled);
        s.check("set_kernel(Tiled)");

        s.train_forward();
        s.check("train -> eval");
        s.train_forward();
        s.check("eval -> train -> eval");
    }
}
