//! Serving through `appmult-serve`: a registry holding the calibrated
//! eval-mode model, the engine at its default configuration, and one
//! client thread keeping a fixed number of single-image requests
//! outstanding (a closed loop).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use appmult_data::SyntheticDataset;
use appmult_mult::MultiplierLut;
use appmult_nn::{Module, Tensor};
use appmult_retrain::GradientLut;
use appmult_serve::{Engine, EngineConfig, ModelFactory, ModelSpec, Registry, Request, Ticket};

use crate::arch::{build_model, Workload, BATCH, IN_CHANNELS, IN_HW};
use crate::setup::{model_seed, SetupParts};
use crate::stats::{digest_f32, ms_since};
use crate::trace::Tracer;

/// Registry name of the served model.
const MODEL_NAME: &str = "bench";
/// Requests the client keeps outstanding.
pub const OUTSTANDING: usize = 16;

/// A running engine plus the request inputs and their reference outputs.
pub struct Server {
    registry: Arc<Registry>,
    engine: Engine,
    inputs: Vec<Tensor>,
    refs: Vec<u64>,
    pub warmup_ms: f64,
}

/// Outcome of a closed-loop drive.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub elapsed_s: f64,
    pub depth_samples: Vec<f64>,
}

impl Server {
    /// Loads the workload's model (observers calibrated on the first
    /// training batch), computes a single-sample `Registry::forward_batch`
    /// reference for each of the first `requests` test images, then starts
    /// the engine and warms it with one round of outstanding requests.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        w: &Workload,
        seed: u64,
        data: &SyntheticDataset,
        lut: &Arc<MultiplierLut>,
        grads: &Arc<GradientLut>,
        requests: usize,
        parts: &mut SetupParts,
        tracer: &mut Tracer,
    ) -> Self {
        let registry = Arc::new(Registry::new(4));
        let calib = Arc::new(data.train_batches(BATCH).swap_remove(0).0);
        let (model, lut, grads) = (w.model, Arc::clone(lut), Arc::clone(grads));
        let factory: ModelFactory = Arc::new(move |_| {
            let mut net = build_model(model, model_seed(seed), &lut, &grads);
            let _ = net.forward(&calib, false);
            net
        });
        let t = Instant::now();
        let shape = vec![IN_CHANNELS, IN_HW, IN_HW];
        tracer
            .time("models/Registry::load", None, || {
                registry.load(ModelSpec::new(MODEL_NAME, shape.clone(), factory))
            })
            .expect("checkpoint capture writes to memory");
        parts.model_build = ms_since(t);

        let inputs: Vec<Tensor> = data
            .test_batches(1)
            .into_iter()
            .take(requests)
            .map(|(x, _)| x.reshape(&shape))
            .collect();
        let refs = inputs
            .iter()
            .map(|x| {
                let batch = x.reshape(&[1, IN_CHANNELS, IN_HW, IN_HW]);
                let y = tracer.time("serve/Registry::forward_batch", None, || {
                    registry.forward_batch(MODEL_NAME, &batch)
                });
                digest_f32(y.expect("reference forward succeeds").as_slice())
            })
            .collect();

        let t = Instant::now();
        let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
        let mut server = Self {
            registry,
            engine,
            inputs,
            refs,
            warmup_ms: 0.0,
        };
        let warm = server.drive(Duration::ZERO, tracer);
        assert_eq!(warm.failed, 0, "warm-up requests must be served correctly");
        server.warmup_ms = ms_since(t);
        server
    }

    /// Runs the closed loop: `OUTSTANDING` requests in flight, each
    /// completion followed by a new submission until `duration` has passed
    /// (at least one round is always sent). Latency is client-observed,
    /// from submission to the client seeing the result. Every output is
    /// compared bit for bit with its reference.
    pub fn drive(&self, duration: Duration, tracer: &mut Tracer) -> LoopStats {
        let mut stats = LoopStats::default();
        let mut pending: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
        let start = Instant::now();
        let mut next = 0usize;
        let mut submit = |stats: &mut LoopStats, pending: &mut VecDeque<_>, tracer: &mut Tracer| {
            let idx = next % self.inputs.len();
            next += 1;
            stats.attempted += 1;
            let request = Request::new(MODEL_NAME, self.inputs[idx].clone());
            let submitted = Instant::now();
            match self.engine.submit(request) {
                Ok(ticket) => pending.push_back((idx, submitted, ticket)),
                Err(_) => stats.failed += 1,
            }
            tracer.record(
                "serve/Engine::submit",
                submitted,
                Instant::now(),
                None,
                None,
            );
            stats.depth_samples.push(self.engine.queue_depth() as f64);
        };
        for _ in 0..OUTSTANDING {
            submit(&mut stats, &mut pending, tracer);
        }
        while let Some((idx, submitted, ticket)) = pending.pop_front() {
            match ticket.wait() {
                Ok(y) if digest_f32(y.as_slice()) == self.refs[idx] => {
                    stats.latencies_ms.push(ms_since(submitted));
                }
                _ => stats.failed += 1,
            }
            if start.elapsed() < duration {
                submit(&mut stats, &mut pending, tracer);
            }
        }
        stats.elapsed_s = start.elapsed().as_secs_f64();
        stats
    }

    /// Milliseconds of one direct `Registry::forward_batch` over the first
    /// `batch` request inputs.
    pub fn forward_ms(&self, batch: usize, tracer: &mut Tracer) -> f64 {
        let data: Vec<f32> = self.inputs[..batch]
            .iter()
            .flat_map(|x| x.as_slice().iter().copied())
            .collect();
        let x = Tensor::from_vec(data, &[batch, IN_CHANNELS, IN_HW, IN_HW]);
        let t = Instant::now();
        let y = self.registry.forward_batch(MODEL_NAME, &x);
        let end = Instant::now();
        tracer.record(
            &format!("serve/Registry::forward_batch.b{batch}"),
            t,
            end,
            None,
            None,
        );
        assert!(y.is_ok(), "direct forward succeeds");
        (end - t).as_secs_f64() * 1e3
    }

    pub fn shutdown(self) {
        self.engine.shutdown();
    }
}
