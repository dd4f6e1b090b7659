//! Property tests (vendored `appmult_rng::prop` harness) for the batcher's
//! robustness invariant: no request is lost or double-executed across
//! worker panic/restart. Every ticket resolves exactly once, and the model
//! executes exactly the samples that were served.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use appmult_nn::layers::Sequential;
use appmult_nn::{Module, Parameter, Tensor};
use appmult_rng::prop;
use appmult_serve::{Engine, EngineConfig, ModelSpec, Registry, Rejection, Request};

/// An identity model that counts every sample it forwards — the probe for
/// "executed exactly once".
struct CountingIdentity {
    executed_samples: Arc<AtomicUsize>,
}

impl Module for CountingIdentity {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.executed_samples
            .fetch_add(input.shape()[0], Ordering::SeqCst);
        input.clone()
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}
}

fn counting_registry(executed: &Arc<AtomicUsize>) -> Arc<Registry> {
    let registry = Arc::new(Registry::new(2));
    let executed = Arc::clone(executed);
    registry
        .load(ModelSpec::new(
            "probe",
            vec![2],
            Arc::new(move |_| {
                Sequential::new().push(CountingIdentity {
                    executed_samples: Arc::clone(&executed),
                })
            }),
        ))
        .expect("load probe model");
    registry
}

fn sample(i: usize) -> Tensor {
    Tensor::from_vec(vec![i as f32, -(i as f32)], &[2])
}

/// Property 1: across chaos-injected worker panics and restarts, every
/// request resolves exactly once (served or `WorkerPanicked`) and the
/// model executes exactly the served samples — nothing lost, nothing run
/// twice. Chaos panics fire *before* the model runs, so a requeued job
/// that is eventually served executes once and a rejected one never does.
#[test]
fn prop_no_request_lost_or_double_executed_across_panics() {
    prop::forall_with(
        "panic requeue keeps every request exactly-once",
        0xC4A05,
        10,
        |rng, case| {
            let requests = rng.index(20) + 4;
            let chaos = if case == 0 { 1 } else { rng.index(4) + 1 }; // 1..=4
            let workers = rng.index(3) + 1;
            (requests, chaos as u64, workers)
        },
        |&(r, c, w)| vec![(r / 2, c, w), (r, c, 1), (4, c, w)],
        |&(requests, chaos, workers)| {
            let executed = Arc::new(AtomicUsize::new(0));
            let registry = counting_registry(&executed);
            let engine = Engine::start(
                registry,
                EngineConfig {
                    workers,
                    queue_capacity: requests.max(1) * 2,
                    chaos_panic_every: Some(chaos),
                    max_batch: 4,
                },
            );
            let tickets: Vec<_> = (0..requests)
                .map(|i| engine.submit(Request::new("probe", sample(i))).unwrap())
                .collect();
            let mut served = 0usize;
            let mut panicked = 0usize;
            for (i, t) in tickets.iter().enumerate() {
                match t.wait() {
                    Ok(out) => {
                        // Served requests get *their own* sample back.
                        assert_eq!(out, sample(i), "request {i} got the wrong rows");
                        served += 1;
                    }
                    Err(Rejection::WorkerPanicked) => panicked += 1,
                    Err(other) => panic!("unexpected rejection: {other}"),
                }
            }
            engine.shutdown();
            served + panicked == requests && executed.load(Ordering::SeqCst) == served
        },
    );
}

/// The exactly-once slot never admits a second outcome: the global
/// double-resolve counter stays zero across every engine the property
/// suite spins up (asserted on a recording sink installed for this check).
#[test]
fn double_resolve_counter_stays_zero_under_chaos() {
    let obs = appmult_obs::ObsSink::recording();
    appmult_obs::set_global(&obs);
    let executed = Arc::new(AtomicUsize::new(0));
    let engine = Engine::start(
        counting_registry(&executed),
        EngineConfig {
            workers: 3,
            chaos_panic_every: Some(2),
            max_batch: 3,
            ..EngineConfig::default()
        },
    );
    let tickets: Vec<_> = (0..48)
        .map(|i| engine.submit(Request::new("probe", sample(i))).unwrap())
        .collect();
    for t in &tickets {
        let _ = t.wait();
    }
    engine.shutdown();
    appmult_obs::set_global(&appmult_obs::ObsSink::null());
    assert_eq!(
        obs.counter("serve.ticket.double_resolve"),
        0,
        "a ticket resolved twice"
    );
    assert!(
        obs.counter("serve.worker.panics") > 0,
        "chaos must actually have fired for this test to mean anything"
    );
}
