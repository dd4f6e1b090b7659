//! The batched inference engine: admission control, greedy batching over
//! one FIFO, and worker panic isolation.
//!
//! # Lifecycle
//!
//! [`Engine::start`] spawns `workers` threads over one bounded queue.
//! Admission validates a request and appends it to the queue; a full
//! queue is a typed rejection, never a blocked caller. A worker takes the
//! oldest queued request whose model is not in service, together with
//! that model's later queued requests, up to `max_batch`, and never waits
//! for a batch to fill. Each model is in service with **one worker at a
//! time**: while its batch runs, its new requests pile up in the queue
//! and become its next batch, and the other workers serve other models.
//! A batch is stacked into one tensor and run through the registry in
//! eval mode.
//!
//! # Failure taxonomy
//!
//! Every submitted request resolves **exactly once**: either `Ok(output)`
//! or one typed [`Rejection`]. A worker panic (model bug, fault-injected
//! LUT, chaos hook) is caught with `catch_unwind`; the model entry is
//! rebuilt from its checkpoint by the registry, the batch's jobs are
//! requeued once (`MAX_RETRIES`) and only rejected as
//! [`Rejection::WorkerPanicked`] if they panic again or no longer fit in
//! the queue. The worker itself never dies — an unexpected panic outside
//! the batch path is also caught and counted as a restart.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use appmult_nn::Tensor;

use crate::registry::{ForwardError, Registry};
use crate::sched::{PushError, Queue};

/// How many times a job survives a worker panic by being requeued before
/// it is rejected as `WorkerPanicked`.
const MAX_RETRIES: u32 = 1;

/// Typed reason a request was not served. Every variant maps to a
/// `serve.reject.*` counter on the global obs sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The queue is at capacity.
    QueueFull,
    /// No model of this name is registered.
    ModelUnloaded(String),
    /// The input failed validation (shape mismatch or non-finite values).
    InvalidInput(String),
    /// The request's batch panicked and exhausted its retry budget.
    WorkerPanicked,
    /// The engine is shutting down.
    ShuttingDown,
}

impl Rejection {
    /// The `serve.reject.*` counter this variant increments.
    pub fn counter_name(&self) -> &'static str {
        match self {
            Rejection::QueueFull => "serve.reject.queue_full",
            Rejection::ModelUnloaded(_) => "serve.reject.model_unloaded",
            Rejection::InvalidInput(_) => "serve.reject.invalid_input",
            Rejection::WorkerPanicked => "serve.reject.worker_panic",
            Rejection::ShuttingDown => "serve.reject.shutting_down",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull => write!(f, "queue full"),
            Rejection::ModelUnloaded(name) => write!(f, "model {name:?} not loaded"),
            Rejection::InvalidInput(why) => write!(f, "invalid input: {why}"),
            Rejection::WorkerPanicked => write!(f, "worker panicked"),
            Rejection::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// What a request resolves to: the model output or a typed rejection.
pub type ServeResult = Result<Tensor, Rejection>;

/// An inference request for one sample.
#[derive(Debug, Clone)]
pub struct Request {
    /// Registry name of the target model.
    pub model: String,
    /// One sample, shaped exactly like the model's registered
    /// `input_shape` (no batch dimension — the engine batches).
    pub input: Tensor,
}

impl Request {
    /// A request for one sample.
    pub fn new(model: impl Into<String>, input: Tensor) -> Self {
        Self {
            model: model.into(),
            input,
        }
    }
}

/// Shared slot a request resolves into (hand-rolled oneshot).
struct TicketState {
    slot: Mutex<Option<ServeResult>>,
    done: Condvar,
    /// Admission timestamp; latency is recorded against it.
    submitted: Instant,
}

impl TicketState {
    /// Resolves the slot exactly once, recording outcome counters and
    /// latency. Returns `false` (and touches nothing) if already resolved.
    fn resolve(&self, outcome: ServeResult) -> bool {
        let obs = appmult_obs::global();
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_some() {
            return false;
        }
        let latency_us = self.submitted.elapsed().as_micros() as f64;
        match &outcome {
            Ok(_) => obs.observe("serve.latency.ok_us", latency_us),
            Err(rej) => {
                obs.counter_add(rej.counter_name(), 1);
                obs.observe("serve.latency.rejected_us", latency_us);
            }
        }
        *slot = Some(outcome);
        drop(slot);
        self.done.notify_all();
        true
    }
}

/// Caller-side handle to an admitted request. Wait on it for the outcome;
/// the engine guarantees it resolves exactly once.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(&self) -> ServeResult {
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A queued unit of work: one admitted request plus its bookkeeping.
struct Job {
    input: Tensor,
    retries: u32,
    ticket: Arc<TicketState>,
}

/// Engine tuning knobs. `Default` is sized for tests and small hosts.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded queue capacity across all models.
    pub queue_capacity: usize,
    /// Worker thread count. A model is served by one worker at a time, so
    /// workers beyond the number of models with queued work idle.
    pub workers: usize,
    /// Maximum requests in one kernel batch. A batch takes whatever is
    /// queued for its model when it is dispatched, up to this size; no
    /// worker waits for a batch to fill.
    pub max_batch: usize,
    /// Test/chaos hook: panic inside every Nth batch dispatch, exercising
    /// the requeue-or-reject and model rebuild paths deterministically.
    pub chaos_panic_every: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            workers: 2,
            max_batch: 32,
            chaos_panic_every: None,
        }
    }
}

struct Shared {
    registry: Arc<Registry>,
    queue: Queue<Job>,
    cfg: EngineConfig,
    batches: AtomicU64,
    /// Requests popped from the queue but not yet resolved.
    in_flight: AtomicUsize,
}

/// The serving engine (see the module docs).
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Spawns the worker threads and returns the running engine.
    pub fn start(registry: Arc<Registry>, cfg: EngineConfig) -> Self {
        appmult_obs::global().event(
            "serve.engine.start",
            &[
                ("workers", (cfg.workers as u64).into()),
                ("queue_capacity", (cfg.queue_capacity as u64).into()),
                ("max_batch", (cfg.max_batch as u64).into()),
                (
                    "pool_threads",
                    (appmult_pool::Pool::global().threads() as u64).into(),
                ),
            ],
        );
        let worker_count = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            registry,
            queue: Queue::new(cfg.queue_capacity),
            cfg,
            batches: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admission control: validate and enqueue.
    ///
    /// # Errors
    ///
    /// Returns a [`Rejection`] immediately (without enqueueing) when the
    /// engine is shutting down, the model is unknown, the input is
    /// malformed, or the queue is full.
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejection> {
        let obs = appmult_obs::global();
        let submitted = Instant::now();
        let outcome = self.admit(request, submitted);
        match &outcome {
            Ok(_) => obs.counter_add("serve.admit.ok", 1),
            Err(rej) => {
                obs.counter_add(rej.counter_name(), 1);
                // Admission-to-rejection time: the "reject fast" bound.
                obs.observe(
                    "serve.latency.rejected_us",
                    submitted.elapsed().as_micros() as f64,
                );
            }
        }
        obs.gauge_set("serve.queue.depth", self.shared.queue.len() as f64);
        outcome
    }

    fn admit(&self, request: Request, submitted: Instant) -> Result<Ticket, Rejection> {
        let s = &self.shared;
        let expected = s
            .registry
            .input_shape(&request.model)
            .ok_or_else(|| Rejection::ModelUnloaded(request.model.clone()))?;
        if request.input.shape() != expected.as_slice() {
            return Err(Rejection::InvalidInput(format!(
                "shape {:?}, model {:?} expects {:?}",
                request.input.shape(),
                request.model,
                expected
            )));
        }
        if !request.input.as_slice().iter().all(|v| v.is_finite()) {
            return Err(Rejection::InvalidInput(
                "non-finite values (NaN/Inf) in input".to_string(),
            ));
        }
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            submitted,
        });
        let job = Job {
            input: request.input,
            retries: 0,
            ticket: Arc::clone(&state),
        };
        match s.queue.push(&request.model, job) {
            Ok(()) => Ok(Ticket { state }),
            Err((_, PushError::Full)) => Err(Rejection::QueueFull),
            Err((_, PushError::Closed)) => Err(Rejection::ShuttingDown),
        }
    }

    /// Current queued request count.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests popped by workers but not yet resolved.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Test hook: workers take no new batch until [`resume`](Self::resume)
    /// (in-flight batches finish; submissions still queue). Lets tests line
    /// up queued requests deterministically.
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Releases [`pause`](Self::pause).
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// Stops admission, resolves every queued request as
    /// [`Rejection::ShuttingDown`], and joins the workers. Idempotent;
    /// also runs on drop. In-flight batches complete normally first.
    pub fn shutdown(&self) {
        let s = &self.shared;
        if !s.queue.close() {
            return;
        }
        for job in s.queue.drain() {
            resolve(&job, Err(Rejection::ShuttingDown));
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
        appmult_obs::global().event("serve.engine.shutdown", &[]);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker-side resolve, exactly once. Losing the race to an earlier
/// resolution is an engine bug, counted as `serve.ticket.double_resolve`
/// (must stay 0 — the property suite asserts it).
fn resolve(job: &Job, outcome: ServeResult) {
    if !job.ticket.resolve(outcome) {
        appmult_obs::global().counter_add("serve.ticket.double_resolve", 1);
    }
}

/// Worker thread body: pop → dispatch → release, until the queue closes.
/// The batch path is wrapped in `catch_unwind`; a panic that somehow
/// escapes it is caught here too and counted as a restart, so a worker
/// thread never dies.
fn worker_main(shared: &Shared) {
    loop {
        let done = catch_unwind(AssertUnwindSafe(|| worker_loop(shared)));
        match done {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                let obs = appmult_obs::global();
                obs.counter_add("serve.worker.restarts", 1);
                obs.event("serve.worker.restart", &[]);
            }
        }
    }
}

fn worker_loop(s: &Shared) {
    while let Some((lease, batch)) = s.queue.pop(s.cfg.max_batch) {
        s.in_flight.fetch_add(batch.len(), Ordering::Relaxed);
        let obs = appmult_obs::global();
        obs.gauge_set("serve.queue.depth", s.queue.len() as f64);
        obs.gauge_set("serve.inflight", s.in_flight.load(Ordering::Relaxed) as f64);
        process_batch(s, lease.model(), batch);
        // The model's requests queued meanwhile become its next batch,
        // for whichever worker the release wakes.
        drop(lease);
    }
}

fn process_batch(s: &Shared, model: &str, jobs: Vec<Job>) {
    let obs = appmult_obs::global();
    let popped = jobs.len();
    obs.observe("serve.batch.size", popped as f64);
    let batch_no = s.batches.fetch_add(1, Ordering::Relaxed) + 1;

    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(every) = s.cfg.chaos_panic_every {
            assert!(
                !batch_no.is_multiple_of(every),
                "chaos: injected worker panic"
            );
        }
        obs.counter_add("serve.batch.jobs_dispatched", popped as u64);
        let stacked = stack_inputs(&jobs);
        s.registry.forward_batch(model, &stacked)
    }));

    match result {
        Ok(Ok(output)) => match split_outputs(&output, popped) {
            Some(outputs) => {
                for (job, out) in jobs.iter().zip(outputs) {
                    resolve(job, Ok(out));
                }
            }
            None => {
                let why = format!(
                    "model {:?} returned shape {:?} for a batch of {}",
                    model,
                    output.shape(),
                    popped
                );
                for job in &jobs {
                    resolve(job, Err(Rejection::InvalidInput(why.clone())));
                }
            }
        },
        Ok(Err(ForwardError::Unloaded(name))) => {
            for job in &jobs {
                resolve(job, Err(Rejection::ModelUnloaded(name.clone())));
            }
        }
        Ok(Err(ForwardError::Panicked)) | Err(_) => handle_panicked_batch(s, model, jobs),
    }
    s.in_flight.fetch_sub(popped, Ordering::Relaxed);
}

/// Requeue-or-reject after a worker panic: each job goes back to the end
/// of the queue (order across a panic is not preserved, existence is)
/// unless it has exhausted its retries or no longer fits.
fn handle_panicked_batch(s: &Shared, model: &str, jobs: Vec<Job>) {
    let obs = appmult_obs::global();
    obs.counter_add("serve.worker.panics", 1);
    obs.event(
        "serve.worker.panic",
        &[("jobs", (jobs.len() as u64).into())],
    );
    for mut job in jobs {
        if job.retries < MAX_RETRIES {
            job.retries += 1;
            match s.queue.push(model, job) {
                Ok(()) => obs.counter_add("serve.batch.requeued", 1),
                Err((job, _)) => resolve(&job, Err(Rejection::WorkerPanicked)),
            }
        } else {
            resolve(&job, Err(Rejection::WorkerPanicked));
        }
    }
}

/// Stacks per-sample inputs into one `[n, ...sample_shape]` tensor.
fn stack_inputs(jobs: &[Job]) -> Tensor {
    let sample_shape = jobs[0].input.shape();
    let mut shape = Vec::with_capacity(sample_shape.len() + 1);
    shape.push(jobs.len());
    shape.extend_from_slice(sample_shape);
    let mut data = Vec::with_capacity(jobs.len() * jobs[0].input.len());
    for job in jobs {
        data.extend_from_slice(job.input.as_slice());
    }
    Tensor::from_vec(data, &shape)
}

/// Splits a `[n, ...]` output back into `n` per-sample tensors; `None` if
/// the model did not preserve the batch dimension.
fn split_outputs(output: &Tensor, n: usize) -> Option<Vec<Tensor>> {
    if output.shape().first() != Some(&n) || n == 0 {
        return None;
    }
    let sample_shape: Vec<usize> = output.shape()[1..].to_vec();
    let row = output.len() / n;
    let data = output.as_slice();
    Some(
        (0..n)
            .map(|i| Tensor::from_vec(data[i * row..(i + 1) * row].to_vec(), &sample_shape))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;
    use appmult_nn::layers::{Linear, Relu, Sequential};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Workers block on the queue's condvar and do not poll; a test that
    /// gives idle workers the chance to (wrongly) take work waits five
    /// times this long.
    const POLL_INTERVAL: Duration = Duration::from_millis(5);

    fn tiny_registry() -> Arc<Registry> {
        let reg = Arc::new(Registry::new(4));
        reg.load(ModelSpec::new(
            "tiny",
            vec![4],
            Arc::new(|_| {
                Sequential::new()
                    .push(Linear::new(4, 2, 42))
                    .push(Relu::new())
            }),
        ))
        .unwrap();
        reg
    }

    fn sample(v: f32) -> Tensor {
        Tensor::from_vec(vec![v; 4], &[4])
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        let ticket = engine.submit(Request::new("tiny", sample(0.5))).unwrap();
        let out = ticket.wait().expect("served");
        assert_eq!(out.shape(), &[2]);
        engine.shutdown();
    }

    #[test]
    fn batched_results_match_single_requests() {
        let reg = tiny_registry();
        let engine = Engine::start(Arc::clone(&reg), EngineConfig::default());
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                engine
                    .submit(Request::new("tiny", sample(i as f32 * 0.1)))
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.iter().enumerate() {
            let got = t.wait().expect("served");
            let solo = reg
                .forward_batch("tiny", &Tensor::from_vec(vec![i as f32 * 0.1; 4], &[1, 4]))
                .unwrap();
            assert_eq!(got.as_slice(), &solo.as_slice()[..2], "request {i}");
        }
        engine.shutdown();
    }

    #[test]
    fn rejects_unknown_model_and_bad_shapes() {
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        assert!(matches!(
            engine.submit(Request::new("nope", sample(0.0))),
            Err(Rejection::ModelUnloaded(_))
        ));
        let wrong = Tensor::from_vec(vec![0.0; 3], &[3]);
        assert!(matches!(
            engine.submit(Request::new("tiny", wrong)),
            Err(Rejection::InvalidInput(_))
        ));
        engine.shutdown();

        let cfg = EngineConfig {
            queue_capacity: 2,
            ..EngineConfig::default()
        };
        let engine = Engine::start(tiny_registry(), cfg);
        engine.pause();
        for _ in 0..2 {
            engine
                .submit(Request::new("tiny", sample(0.0)))
                .expect("below capacity");
        }
        assert_eq!(
            engine
                .submit(Request::new("tiny", sample(0.0)))
                .unwrap_err(),
            Rejection::QueueFull
        );
        engine.shutdown();
    }

    #[test]
    fn nan_inputs_are_rejected() {
        let nan = Tensor::from_vec(vec![0.1, f32::NAN, 0.3, f32::INFINITY], &[4]);
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        assert!(matches!(
            engine.submit(Request::new("tiny", nan)),
            Err(Rejection::InvalidInput(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn queued_requests_resolve_as_shutting_down() {
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        engine.pause();
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| engine.submit(Request::new("tiny", sample(1.0))).unwrap())
            .collect();
        engine.shutdown();
        for t in tickets {
            assert_eq!(t.wait(), Err(Rejection::ShuttingDown));
        }
        assert!(matches!(
            engine.submit(Request::new("tiny", sample(1.0))),
            Err(Rejection::ShuttingDown)
        ));
    }

    #[test]
    fn chaos_panic_requeues_and_recovers() {
        let cfg = EngineConfig {
            workers: 1,
            chaos_panic_every: Some(2),
            ..EngineConfig::default()
        };
        let engine = Engine::start(tiny_registry(), cfg);
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                engine
                    .submit(Request::new("tiny", sample(i as f32)))
                    .unwrap()
            })
            .collect();
        let mut served = 0;
        let mut panicked = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => served += 1,
                Err(Rejection::WorkerPanicked) => panicked += 1,
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(served + panicked, 12, "every request resolved");
        assert!(served > 0, "engine recovered between chaos panics");
        engine.shutdown();
    }

    /// Test probe: a `Linear` that logs every batch size and, while
    /// armed, parks its next forward between the `entered` and `release`
    /// barriers until the test lets it go.
    struct Gate {
        inner: Linear,
        ctl: Arc<GateCtl>,
    }

    struct GateCtl {
        batches: Mutex<Vec<usize>>,
        armed: AtomicBool,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl appmult_nn::Module for Gate {
        fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
            self.ctl.batches.lock().unwrap().push(input.shape()[0]);
            if self.ctl.armed.swap(false, Ordering::SeqCst) {
                self.ctl.entered.wait();
                self.ctl.release.wait();
            }
            self.inner.forward(input, train)
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            self.inner.backward(grad)
        }
        fn visit_params(&mut self, visit: &mut dyn FnMut(&mut appmult_nn::Parameter)) {
            self.inner.visit_params(visit);
        }
    }

    /// A registry holding one model, "gate", whose first forward is armed.
    fn gated_registry() -> (Arc<Registry>, Arc<GateCtl>) {
        let ctl = Arc::new(GateCtl {
            batches: Mutex::new(Vec::new()),
            armed: AtomicBool::new(true),
            entered: std::sync::Barrier::new(2),
            release: std::sync::Barrier::new(2),
        });
        let reg = Arc::new(Registry::new(4));
        let ctl2 = Arc::clone(&ctl);
        reg.load(ModelSpec::new(
            "gate",
            vec![4],
            Arc::new(move |_| {
                Sequential::new().push(Gate {
                    inner: Linear::new(4, 2, 7),
                    ctl: Arc::clone(&ctl2),
                })
            }),
        ))
        .unwrap();
        (reg, ctl)
    }

    /// A popped batch counts as in flight until its requests resolve.
    #[test]
    fn in_flight_counts_the_running_batch() {
        let (reg, gate) = gated_registry();
        let cfg = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::start(reg, cfg);
        let ticket = engine.submit(Request::new("gate", sample(1.0))).unwrap();
        // The worker is now inside the forward pass, queue empty.
        gate.entered.wait();
        let in_flight = engine.in_flight();
        gate.release.wait();
        assert_eq!(in_flight, 1);
        assert!(ticket.wait().is_ok());
        // Poll briefly: in-flight drops back to zero once the batch lands.
        let t0 = Instant::now();
        while engine.in_flight() != 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(engine.in_flight(), 0);
        engine.shutdown();
    }

    /// Requests that arrive while their model runs wait for it and then go
    /// out together as its next batch. They arrive 10 ms apart, longer
    /// than any batch-fill timer would hold a batch open, so only the busy
    /// model keeps them together.
    #[test]
    fn requests_queued_while_the_model_runs_form_its_next_batch() {
        let (reg, gate) = gated_registry();
        let engine = Engine::start(reg, EngineConfig::default());
        let first = engine.submit(Request::new("gate", sample(1.0))).unwrap();
        gate.entered.wait();
        let queued: Vec<Ticket> = (0..3)
            .map(|i| {
                std::thread::sleep(Duration::from_millis(10));
                engine
                    .submit(Request::new("gate", sample(i as f32)))
                    .unwrap()
            })
            .collect();
        gate.release.wait();
        for t in std::iter::once(&first).chain(&queued) {
            assert!(t.wait().is_ok());
        }
        engine.shutdown();
        assert_eq!(*gate.batches.lock().unwrap(), [1, 3]);
    }

    /// With three workers and one model, the idle workers take nothing
    /// while the model's batch runs: one dispatch per model at a time.
    /// (Forwards of one model never overlap anyway — the registry holds a
    /// per-model mutex — so the check is on what leaves the queue.)
    #[test]
    fn one_model_is_never_in_two_batches_at_once() {
        let (reg, gate) = gated_registry();
        let cfg = EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        };
        let engine = Engine::start(reg, cfg);
        let first = engine.submit(Request::new("gate", sample(1.0))).unwrap();
        gate.entered.wait();
        let queued: Vec<Ticket> = (0..6)
            .map(|i| {
                std::thread::sleep(Duration::from_millis(2));
                engine
                    .submit(Request::new("gate", sample(i as f32)))
                    .unwrap()
            })
            .collect();
        // Give the two idle workers time to (wrongly) take a batch; read
        // before releasing the gate, assert after, so a failure cannot
        // leave a worker parked in the gate.
        std::thread::sleep(POLL_INTERVAL * 5);
        let (in_flight, queued_now) = (engine.in_flight(), engine.queue_depth());
        gate.release.wait();
        assert_eq!(in_flight, 1, "only the running batch is out");
        assert_eq!(queued_now, 6);
        for t in std::iter::once(&first).chain(&queued) {
            assert!(t.wait().is_ok());
        }
        engine.shutdown();
        assert_eq!(*gate.batches.lock().unwrap(), [1, 6]);
    }

    /// A lone request on an idle engine goes out alone and at once. A batch
    /// counts as in flight once it is formed, so the second request, sent
    /// as soon as the first is in flight, must not join the first batch —
    /// as it would if the worker held the batch open for company. (One
    /// worker, so a second worker cannot take the request instead.)
    #[test]
    fn a_lone_request_is_dispatched_alone_at_once() {
        let (reg, gate) = gated_registry();
        let cfg = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::start(reg, cfg);
        let first = engine.submit(Request::new("gate", sample(1.0))).unwrap();
        let t0 = Instant::now();
        while engine.in_flight() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "never dispatched");
            std::thread::yield_now();
        }
        let second = engine.submit(Request::new("gate", sample(2.0))).unwrap();
        gate.entered.wait();
        gate.release.wait();
        for t in [&first, &second] {
            assert!(t.wait().is_ok());
        }
        engine.shutdown();
        assert_eq!(*gate.batches.lock().unwrap(), [1, 1]);
    }
}
