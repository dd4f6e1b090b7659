//! Fairness tests for the per-model DRR scheduler — including the pre-fix
//! starvation reproducer (ROADMAP open item 2).
//!
//! The old dispatch popped the global head of a single shared priority
//! queue and then *predicate-chased* that model. With hot traffic riding a
//! higher priority lane, the head is always the hot model, so a cold
//! model's job is starved for as long as the hot backlog refills — the
//! reproducer below replays exactly that algorithm on a test-local model
//! of the old queue, and shows that [`DrrQueue`] serves the same workload
//! within one rotation.
//!
//! On top: property tests (vendored `appmult_rng::prop` harness) that a
//! saturated two-model engine gives the cold model ≥ ⅓ of batches with no
//! unbounded waits, and that FIFO-within-priority still holds per
//! sub-queue.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use appmult_nn::layers::Sequential;
use appmult_nn::{Module, Parameter, Tensor};
use appmult_rng::prop;
use appmult_serve::{DrrQueue, Engine, EngineConfig, ModelSpec, Priority, Registry, Request};

const TICK: Duration = Duration::from_millis(5);

/// Single-threaded model of the old shared queue: one FIFO per priority
/// lane, popped highest lane first.
#[derive(Default)]
struct OldQueue {
    lanes: [VecDeque<(&'static str, u32)>; 3],
}

impl OldQueue {
    fn push(&mut self, job: (&'static str, u32), priority: Priority) {
        self.lanes[priority.lane()].push_back(job);
    }

    /// Removes the front job of the highest non-empty lane.
    fn pop_head(&mut self) -> Option<(&'static str, u32)> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Removes the first job (highest lane first, FIFO within a lane) that
    /// `matches` accepts; skipped jobs keep their order.
    fn pop_matching(
        &mut self,
        matches: impl Fn(&(&'static str, u32)) -> bool,
    ) -> Option<(&'static str, u32)> {
        self.lanes.iter_mut().find_map(|lane| {
            let pos = lane.iter().position(&matches)?;
            lane.remove(pos)
        })
    }

    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// The old engine's coalescing step in miniature: pop the global head,
/// then chase its model with matching pops.
fn old_coalesce(q: &mut OldQueue, max_batch: usize) -> Vec<(&'static str, u32)> {
    let Some(first) = q.pop_head() else {
        return Vec::new();
    };
    let model = first.0;
    let mut batch = vec![first];
    while batch.len() < max_batch {
        match q.pop_matching(|j| j.0 == model) {
            Some(job) => batch.push(job),
            None => break,
        }
    }
    batch
}

/// Pre-fix starvation reproducer: one cold Normal-priority job sits queued
/// while hot High-priority traffic refills faster than it drains. The old
/// predicate-chasing scheduler never serves the cold job — 50 consecutive
/// batches are all hot — because the global head is always the hot model.
#[test]
fn old_scheduler_starves_the_cold_model() {
    let mut q = OldQueue::default();
    q.push(("cold", 0), Priority::Normal);
    let mut seq = 0u32;
    let mut hot_queued = 0usize;
    for _round in 0..50 {
        // Open-loop hot refill: the High lane never runs dry.
        while hot_queued < 8 {
            q.push(("hot", seq), Priority::High);
            seq += 1;
            hot_queued += 1;
        }
        let batch = old_coalesce(&mut q, 4);
        assert!(
            batch.iter().all(|&(model, _)| model == "hot"),
            "this reproducer documents the bug: under sustained hot traffic \
             the old scheduler must never reach the cold job (if it did, the \
             bug would be fixed and this test should be retired)"
        );
        hot_queued -= batch.len();
    }
    // The cold job is still sitting in the queue after 50 batches.
    assert_eq!(q.len(), hot_queued + 1, "cold job still starved");
}

/// The same workload shape against [`DrrQueue`]: the cold model is served
/// within one round-robin rotation, hot backlog notwithstanding.
#[test]
fn drr_serves_the_cold_model_within_one_rotation() {
    let q: DrrQueue<(&'static str, u32)> = DrrQueue::new(64, 4);
    q.push("cold", ("cold", 0), 1, Priority::Normal).unwrap();
    let mut seq = 0u32;
    let mut hot_queued = 0usize;
    let mut cold_served_at = None;
    for round in 0..50 {
        while hot_queued < 8 {
            q.push("hot", ("hot", seq), 1, Priority::High).unwrap();
            seq += 1;
            hot_queued += 1;
        }
        let (lease, items) = q.pop_batch_wait(TICK, 4).expect("backlogged");
        if lease.model() == "cold" {
            cold_served_at = Some(round);
            break;
        }
        hot_queued -= items.len();
    }
    assert!(
        cold_served_at.is_some_and(|r| r <= 2),
        "DRR must serve the cold model within one rotation, got {cold_served_at:?}"
    );
}

/// A model that logs each dispatched batch (by name) into a shared
/// sequence and echoes its input — the probe for batch-share accounting.
struct BatchLogger {
    name: &'static str,
    seq: Arc<Mutex<Vec<&'static str>>>,
}

impl Module for BatchLogger {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.seq.lock().unwrap().push(self.name);
        input.clone()
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}
}

fn two_model_registry(seq: &Arc<Mutex<Vec<&'static str>>>) -> Arc<Registry> {
    let registry = Arc::new(Registry::new(4));
    for name in ["hot", "cold"] {
        let seq = Arc::clone(seq);
        registry
            .load(ModelSpec::new(
                name,
                vec![2],
                Arc::new(move |_| {
                    Sequential::new().push(BatchLogger {
                        name,
                        seq: Arc::clone(&seq),
                    })
                }),
            ))
            .expect("load model");
    }
    registry
}

/// Property: under a saturated two-model workload (hot demand 2× cold,
/// hot riding the *High* lane, one worker), DRR dispatch gives the cold
/// model at least ⅓ of all batches, serves it in full-size batches, and
/// no request waits unboundedly — every ticket resolves.
#[test]
fn prop_cold_model_gets_at_least_a_third_of_batches() {
    prop::forall_with(
        "saturated two-model workload is fair",
        0xFA1,
        6,
        |rng, _case| (rng.index(4) + 2) * 4, // cold requests: 8..=20, multiple of 4
        |&n| if n > 8 { vec![8] } else { Vec::new() },
        |&cold_n| {
            let hot_n = cold_n * 2;
            let seq = Arc::new(Mutex::new(Vec::new()));
            let registry = two_model_registry(&seq);
            let cfg = EngineConfig {
                workers: 1,
                max_batch: 4,
                drr_quantum_macs: 4,
                queue_capacity: (hot_n + cold_n) * 4,
                ..EngineConfig::default()
            };
            let poll = Duration::from_millis(5); // the engine's idle poll interval
            let engine = Engine::start(registry, cfg);
            engine.pause();
            std::thread::sleep(poll * 5);
            let sample = |v: f32| Tensor::from_vec(vec![v, -v], &[2]);
            let tickets: Vec<_> = (0..hot_n)
                .map(|i| {
                    let req = Request::new("hot", sample(i as f32)).with_priority(Priority::High);
                    engine.submit(req).unwrap()
                })
                .chain((0..cold_n).map(|i| {
                    engine
                        .submit(Request::new("cold", sample(-(i as f32))))
                        .unwrap()
                }))
                .collect();
            engine.resume();
            // No unbounded waits: every ticket resolves well within budget.
            let all_served = tickets
                .iter()
                .all(|t| t.wait_timeout(Duration::from_secs(30)).is_ok());
            engine.shutdown();
            let seq = seq.lock().unwrap();
            let cold_batches = seq.iter().filter(|&&m| m == "cold").count();
            let share_ok = cold_batches * 3 >= seq.len();
            let full_batches = cold_batches <= cold_n / 4 + 1;
            assert!(
                all_served && share_ok && full_batches,
                "cold_n={cold_n}: served={all_served}, cold {cold_batches}/{} batches",
                seq.len()
            );
            true
        },
    );
}

/// Property: FIFO-within-priority holds *per sub-queue* — for each model,
/// concatenating its scheduled batches in pop order yields exactly a
/// stable sort of that model's pushes by priority lane.
#[test]
fn prop_fifo_within_priority_holds_per_sub_queue() {
    fn lane(code: u8) -> Priority {
        match code % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        }
    }
    prop::forall_with(
        "per-sub-queue pops are a stable sort by priority",
        0xD22,
        64,
        |rng, case| {
            let n = if case < 4 { case } else { rng.index(40) + 1 };
            (0..n)
                .map(|i| (rng.index(3) as u8, rng.index(256) as u8, i as u16))
                .collect::<Vec<(u8, u8, u16)>>()
        },
        |ops| {
            let mut candidates = vec![ops[..ops.len() / 2].to_vec()];
            for i in 0..ops.len() {
                let mut c = ops.clone();
                c.remove(i);
                candidates.push(c);
            }
            candidates
        },
        |ops| {
            const MODELS: [&str; 3] = ["a", "b", "c"];
            let q = DrrQueue::new(ops.len().max(1), 3);
            for &(m, p, id) in ops {
                q.push(MODELS[m as usize], id, 1, lane(p))
                    .expect("sized to fit");
            }
            let mut popped: std::collections::HashMap<&str, Vec<u16>> =
                std::collections::HashMap::new();
            while let Some((lease, items)) = q.pop_batch_wait(Duration::from_millis(1), 4) {
                let model = MODELS.iter().find(|&&n| n == lease.model()).unwrap();
                popped.entry(model).or_default().extend(items);
            }
            MODELS.iter().enumerate().all(|(mi, &model)| {
                let mut expect: Vec<(usize, u16)> = ops
                    .iter()
                    .filter(|&&(m, _, _)| m as usize == mi)
                    .map(|&(_, p, id)| (lane(p).lane(), id))
                    .collect();
                expect.sort_by_key(|&(lane, _)| lane); // stable: FIFO within lane
                let expect: Vec<u16> = expect.into_iter().map(|(_, id)| id).collect();
                popped.get(model).cloned().unwrap_or_default() == expect
            })
        },
    );
}

/// The abandoned-ticket accounting satellite: a caller that gives up via
/// `wait_timeout` leaves a tombstone; the worker discards it pre-dispatch
/// and counts `serve.ticket.abandoned` — the result is never silently
/// computed for nobody.
#[test]
fn abandoned_tickets_are_counted_not_silently_dropped() {
    use std::sync::atomic::AtomicUsize;

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

    let obs = appmult_obs::ObsSink::recording();
    appmult_obs::set_global(&obs);
    let executed = Arc::new(AtomicUsize::new(0));
    let registry = Arc::new(Registry::new(2));
    let executed2 = Arc::clone(&executed);
    registry
        .load(ModelSpec::new(
            "probe",
            vec![2],
            Arc::new(move |_| {
                Sequential::new().push(CountingIdentity {
                    executed_samples: Arc::clone(&executed2),
                })
            }),
        ))
        .unwrap();
    let cfg = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let poll = Duration::from_millis(5); // the engine's idle poll interval
    let engine = Engine::start(registry, cfg);
    engine.pause();
    std::thread::sleep(poll * 5);
    let doomed: Vec<_> = (0..4)
        .map(|i| {
            engine
                .submit(Request::new(
                    "probe",
                    Tensor::from_vec(vec![i as f32, 0.0], &[2]),
                ))
                .unwrap()
        })
        .collect();
    // Every caller gives up while the workers are parked.
    for t in &doomed {
        assert!(t.wait_timeout(Duration::from_millis(10)).is_err());
    }
    engine.resume();
    // Fresh work flows normally past the tombstones.
    let fresh = engine
        .submit(Request::new(
            "probe",
            Tensor::from_vec(vec![9.0, 9.0], &[2]),
        ))
        .unwrap();
    assert!(fresh.wait_timeout(Duration::from_secs(10)).is_ok());
    engine.shutdown();
    appmult_obs::set_global(&appmult_obs::ObsSink::null());
    assert_eq!(
        obs.counter("serve.ticket.cancelled"),
        4,
        "every expired wait is a recorded cancellation"
    );
    assert_eq!(
        obs.counter("serve.ticket.abandoned"),
        4,
        "every tombstone the worker discarded is accounted for"
    );
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "cancelled work never reaches a kernel — only the fresh sample ran"
    );
}
