//! The batched inference engine: admission control, per-model DRR
//! dispatch, greedy batching, worker panic isolation, and graceful
//! degradation.
//!
//! # Lifecycle
//!
//! [`Engine::start`] spawns `workers` threads over a shared
//! [`DrrQueue`]: admission routes each request into its model's sub-queue
//! (strict priority lanes, FIFO within lane), and workers pop whole
//! batches scheduled by **deficit round-robin** — each model visit earns a
//! quantum of estimated MACs (`drr_quantum_macs`), carried as a deficit,
//! so every registered model gets a bounded share of batcher time under
//! saturation no matter how deep one hot model's backlog grows. Batching is
//! **greedy**: a batch is formed at the moment it is dispatched, from the
//! scheduled pop plus every other request already queued for that model
//! (up to `max_batch`, charging the model's deficit, overdraft allowed),
//! and a worker never waits for a batch to fill. Each model is in service
//! with **one worker at a time**: while its batch runs, its new requests
//! pile up in the queue and become its next batch, and the other workers
//! serve other models. Expired or caller-cancelled requests are dropped
//! *before* kernel dispatch; live ones are stacked into one tensor and run
//! through the registry in eval mode.
//!
//! # Request timeouts
//!
//! [`Ticket::wait_timeout`] is a *cancellation* point: when the caller's
//! budget expires it resolves the ticket to
//! [`Rejection::DeadlineExceeded`] instead of abandoning the slot. The
//! queued job becomes a tombstone the worker discards at dispatch
//! (counted as `serve.ticket.abandoned` with a structured event), so no
//! result is ever silently computed for — or dropped on — a caller that
//! has given up.
//!
//! # Degradation ladder
//!
//! *Pressure* — queued **plus in-flight** work over queue capacity —
//! drives a four-level ladder, re-evaluated at every admission.
//! (Queued-only occupancy under-reads immediately after a large flush
//! while the workers are still busy; folding in-flight batches in keeps
//! the ladder honest at saturation.)
//!
//! | level | pressure | effect |
//! |-------|----------|--------|
//! | 0     | < 50%    | normal batching |
//! | 1     | ≥ 50%    | reported only (batching is already greedy) |
//! | 2     | ≥ 75%    | [`Priority::Low`] admissions shed |
//! | 3     | ≥ 90%    | + [`Priority::Normal`] shed |
//! | —     | full queue | reject-fast: [`Rejection::QueueFull`] |
//!
//! Sheds and queue-full rejections carry a `retry_after` hint so
//! well-behaved clients can back off instead of hammering the queue.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use appmult_nn::Tensor;

use crate::registry::{ForwardError, Registry};
use crate::sched::{DrrQueue, Priority, PushError};

/// How many times a job survives a worker panic by being requeued before
/// it is rejected as `WorkerPanicked`.
const MAX_RETRIES: u32 = 1;

/// Idle worker poll interval (also the shutdown latency bound).
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Typed reason a request was not served. Every variant maps to a
/// `serve.reject.*` counter on the global obs sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The queue is at capacity; retry after the hint.
    QueueFull {
        /// Client back-off hint.
        retry_after: Duration,
    },
    /// Shed by the degradation ladder (priority too low for the current
    /// overload level); retry after the hint.
    Shed {
        /// Client back-off hint.
        retry_after: Duration,
    },
    /// The deadline expired — at admission, while queued, or in a batch
    /// before kernel dispatch. Expired work never reaches a kernel.
    DeadlineExceeded,
    /// No model of this name is registered (possibly evicted after
    /// admission).
    ModelUnloaded(String),
    /// The input failed validation (shape mismatch, or non-finite values
    /// with scrubbing disabled).
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
            Rejection::QueueFull { .. } => "serve.reject.queue_full",
            Rejection::Shed { .. } => "serve.reject.shed",
            Rejection::DeadlineExceeded => "serve.reject.deadline",
            Rejection::ModelUnloaded(_) => "serve.reject.model_unloaded",
            Rejection::InvalidInput(_) => "serve.reject.invalid_input",
            Rejection::WorkerPanicked => "serve.reject.worker_panic",
            Rejection::ShuttingDown => "serve.reject.shutting_down",
        }
    }

    /// Short stable label (JSON-friendly).
    pub fn label(&self) -> &'static str {
        match self {
            Rejection::QueueFull { .. } => "queue_full",
            Rejection::Shed { .. } => "shed",
            Rejection::DeadlineExceeded => "deadline",
            Rejection::ModelUnloaded(_) => "model_unloaded",
            Rejection::InvalidInput(_) => "invalid_input",
            Rejection::WorkerPanicked => "worker_panic",
            Rejection::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { retry_after } => {
                write!(f, "queue full (retry after {retry_after:?})")
            }
            Rejection::Shed { retry_after } => {
                write!(f, "shed under overload (retry after {retry_after:?})")
            }
            Rejection::DeadlineExceeded => write!(f, "deadline exceeded"),
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
    /// Priority lane (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Relative deadline from submission; `None` means no deadline.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A normal-priority request with no explicit deadline.
    pub fn new(model: impl Into<String>, input: Tensor) -> Self {
        Self {
            model: model.into(),
            input,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the priority lane.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a relative deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Shared slot a request resolves into (hand-rolled oneshot).
struct TicketState {
    slot: Mutex<Option<ServeResult>>,
    done: Condvar,
    /// Admission timestamp — both sides (worker resolve, caller
    /// cancellation) record latency against it.
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

    /// Whether the slot already holds an outcome (a cancelled or resolved
    /// ticket — the worker discards such jobs before dispatch).
    fn is_resolved(&self) -> bool {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }
}

/// Caller-side handle to an admitted request. Wait on it for the outcome;
/// the engine guarantees it resolves exactly once.
pub struct Ticket {
    state: Arc<TicketState>,
    id: u64,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("resolved", &self.try_get().is_some())
            .finish()
    }
}

impl Ticket {
    /// Request id (unique per engine).
    pub fn id(&self) -> u64 {
        self.id
    }

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

    /// Blocks up to `timeout`. If the request is still unresolved when the
    /// budget expires, the ticket is **cancelled**: it resolves to
    /// [`Rejection::DeadlineExceeded`] right here (counted as
    /// `serve.ticket.cancelled`), and the queued job becomes a tombstone
    /// the worker discards before dispatch — the slot is never abandoned
    /// with a result silently computed for nobody. If the worker wins the
    /// race, its outcome is returned instead.
    pub fn wait_timeout(&self, timeout: Duration) -> ServeResult {
        let deadline = Instant::now() + timeout;
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                let outcome = Err(Rejection::DeadlineExceeded);
                if self.state.resolve(outcome.clone()) {
                    appmult_obs::global().counter_add("serve.ticket.cancelled", 1);
                    return outcome;
                }
                // The worker resolved in the race window: take its answer.
                return self.try_get().expect("slot just observed resolved");
            }
            let (guard, _) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<ServeResult> {
        self.state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A queued unit of work: one admitted request plus its bookkeeping.
struct Job {
    model: String,
    input: Tensor,
    priority: Priority,
    deadline: Option<Instant>,
    /// Estimated dispatch cost in MACs (the model's per-sample weight
    /// count) — the DRR scheduler's currency.
    cost: u64,
    retries: u32,
    ticket: Arc<TicketState>,
}

/// Engine tuning knobs. `Default` is sized for tests and small hosts;
/// `serve_bench` scales it up.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded queue capacity across all priority lanes.
    pub queue_capacity: usize,
    /// Worker thread count. A model is served by one worker at a time, so
    /// workers beyond the number of models with queued work idle.
    pub workers: usize,
    /// Maximum requests in one kernel batch. A batch takes whatever is
    /// queued for its model when it is dispatched, up to this size; no
    /// worker waits for a batch to fill.
    pub max_batch: usize,
    /// Base back-off hint attached to `QueueFull` / `Shed` rejections.
    pub retry_after: Duration,
    /// Replace non-finite input values with 0.0 (counted as
    /// `serve.input.scrubbed`) instead of rejecting the request.
    pub scrub_nonfinite: bool,
    /// Test/chaos hook: panic inside every Nth batch dispatch, exercising
    /// the requeue-or-reject and model rebuild paths deterministically.
    pub chaos_panic_every: Option<u64>,
    /// DRR quantum: estimated MACs of batcher time each backlogged model
    /// earns per scheduler visit. Any positive value yields long-run
    /// fairness; sizing it near `max_batch x` a typical model's per-sample
    /// MACs keeps scheduled batches full-sized.
    pub drr_quantum_macs: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            workers: 2,
            max_batch: 32,
            retry_after: Duration::from_millis(10),
            scrub_nonfinite: false,
            chaos_panic_every: None,
            drr_quantum_macs: 4096,
        }
    }
}

impl EngineConfig {
    /// The batch policy as stable `(key, value)` pairs for self-describing
    /// result files (`results/*.json` headers).
    pub fn describe(&self) -> Vec<(&'static str, appmult_obs::Value)> {
        vec![
            ("queue_capacity", self.queue_capacity.into()),
            ("workers", self.workers.into()),
            ("max_batch", self.max_batch.into()),
            ("scrub_nonfinite", self.scrub_nonfinite.into()),
            ("drr_quantum_macs", self.drr_quantum_macs.into()),
        ]
    }
}

struct Shared {
    registry: Arc<Registry>,
    queue: DrrQueue<Job>,
    cfg: EngineConfig,
    shutdown: AtomicBool,
    paused: Mutex<bool>,
    pause_cv: Condvar,
    next_id: AtomicU64,
    batches: AtomicU64,
    last_ladder: AtomicUsize,
    /// Requests popped from the queue but not yet resolved — the ladder's
    /// pressure signal counts these alongside queued items so it does not
    /// under-read right after a large flush.
    in_flight: AtomicUsize,
}

impl Shared {
    /// Pressure in `[0, 1+]`: queued **plus in-flight** work over queue
    /// capacity. The degradation ladder's input signal.
    fn pressure(&self) -> f64 {
        let load = self.queue.len() + self.in_flight.load(Ordering::Relaxed);
        load as f64 / self.queue.capacity() as f64
    }
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
        let queue = DrrQueue::new(cfg.queue_capacity, cfg.drr_quantum_macs);
        let shared = Arc::new(Shared {
            registry,
            queue,
            cfg,
            shutdown: AtomicBool::new(false),
            paused: Mutex::new(false),
            pause_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            last_ladder: AtomicUsize::new(0),
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

    /// Admission control: validate, maybe shed, and enqueue.
    ///
    /// # Errors
    ///
    /// Returns a [`Rejection`] immediately (without enqueueing) when the
    /// engine is shutting down, the model is unknown, the input is
    /// malformed, the deadline already expired, the degradation ladder
    /// sheds this priority, or the queue is full.
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejection> {
        let obs = appmult_obs::global();
        let submitted = Instant::now();
        let s = &self.shared;
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
        obs.gauge_set("serve.queue.depth", s.queue.len() as f64);
        outcome
    }

    fn admit(&self, request: Request, submitted: Instant) -> Result<Ticket, Rejection> {
        let s = &self.shared;
        let obs = appmult_obs::global();
        if s.shutdown.load(Ordering::SeqCst) {
            return Err(Rejection::ShuttingDown);
        }
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
        let input = if request.input.as_slice().iter().all(|v| v.is_finite()) {
            request.input
        } else if s.cfg.scrub_nonfinite {
            let scrubbed: Vec<f32> = request
                .input
                .as_slice()
                .iter()
                .map(|&v| if v.is_finite() { v } else { 0.0 })
                .collect();
            obs.counter_add("serve.input.scrubbed", 1);
            Tensor::from_vec(scrubbed, &expected)
        } else {
            return Err(Rejection::InvalidInput(
                "non-finite values (NaN/Inf) in input".to_string(),
            ));
        };
        let deadline = request.deadline.map(|d| submitted + d);
        if deadline.is_some_and(|d| d <= Instant::now()) {
            return Err(Rejection::DeadlineExceeded);
        }
        let level = self.refresh_ladder();
        let shed = match request.priority {
            Priority::Low => level >= 2,
            Priority::Normal => level >= 3,
            Priority::High => false,
        };
        if shed {
            return Err(Rejection::Shed {
                retry_after: s.cfg.retry_after,
            });
        }
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            submitted,
        });
        let id = s.next_id.fetch_add(1, Ordering::Relaxed);
        let cost = s.registry.macs_per_sample(&request.model).unwrap_or(1);
        let model = request.model;
        let job = Job {
            model: model.clone(),
            input,
            priority: request.priority,
            deadline,
            cost,
            retries: 0,
            ticket: Arc::clone(&state),
        };
        match s.queue.push(&model, job, cost, request.priority) {
            Ok(()) => Ok(Ticket { state, id }),
            Err((_, PushError::Full)) => Err(Rejection::QueueFull {
                retry_after: s.cfg.retry_after,
            }),
            Err((_, PushError::Closed)) => Err(Rejection::ShuttingDown),
        }
    }

    /// Recomputes the degradation-ladder level from pressure (queued +
    /// in-flight over capacity), updating the gauge and emitting a
    /// transition event on change.
    fn refresh_ladder(&self) -> usize {
        let s = &self.shared;
        let level = ladder_level(s.pressure());
        let prev = s.last_ladder.swap(level, Ordering::Relaxed);
        let obs = appmult_obs::global();
        obs.gauge_set("serve.ladder.level", level as f64);
        if prev != level {
            obs.event(
                "serve.ladder.transition",
                &[
                    ("from", (prev as u64).into()),
                    ("to", (level as u64).into()),
                ],
            );
        }
        level
    }

    /// Current queued request count.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Requests popped by workers but not yet resolved.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// The ladder's input signal: (queued + in-flight) / capacity.
    pub fn pressure(&self) -> f64 {
        self.shared.pressure()
    }

    /// Current degradation-ladder level (0 = normal … 3 = High-only).
    pub fn ladder_level(&self) -> usize {
        ladder_level(self.shared.pressure())
    }

    /// Test/bench hook: stop workers from popping new work (in-flight
    /// batches finish). Lets tests line up queued requests deterministically.
    pub fn pause(&self) {
        *self
            .shared
            .paused
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
    }

    /// Releases [`pause`](Self::pause).
    pub fn resume(&self) {
        *self
            .shared
            .paused
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = false;
        self.shared.pause_cv.notify_all();
    }

    /// Stops admission, resolves every queued request as
    /// [`Rejection::ShuttingDown`], and joins the workers. Idempotent;
    /// also runs on drop. In-flight batches complete normally first.
    pub fn shutdown(&self) {
        let s = &self.shared;
        if s.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        s.queue.close();
        self.resume(); // wake paused workers so they can exit
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

/// Pressure → ladder level (see the module docs table).
fn ladder_level(pressure: f64) -> usize {
    if pressure >= 0.90 {
        3
    } else if pressure >= 0.75 {
        2
    } else if pressure >= 0.50 {
        1
    } else {
        0
    }
}

/// Worker-side resolve: exactly once, recording latency. Losing the race
/// to a caller cancellation (slot already holds `DeadlineExceeded`) means
/// the computed result had nobody to go to — counted and evented as
/// `serve.ticket.abandoned`, never silently dropped. Losing to anything
/// else is an engine bug, counted as `serve.ticket.double_resolve` (must
/// stay 0 — the property suite asserts it).
fn resolve(job: &Job, outcome: ServeResult) {
    if job.ticket.resolve(outcome) {
        return;
    }
    let obs = appmult_obs::global();
    if matches!(
        job.ticket
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref(),
        Some(Err(Rejection::DeadlineExceeded))
    ) {
        obs.counter_add("serve.ticket.abandoned", 1);
        obs.event("serve.ticket.abandoned", &[("in_flight", 1u64.into())]);
    } else {
        obs.counter_add("serve.ticket.double_resolve", 1);
    }
}

/// Worker thread body: pop → top up → dispatch → release, forever. The
/// batch path is wrapped in `catch_unwind`; a panic that somehow escapes
/// it is caught here too and counted as a restart, so a worker thread
/// never dies.
fn worker_main(shared: &Arc<Shared>) {
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

fn worker_loop(shared: &Arc<Shared>) {
    let s = shared;
    loop {
        wait_while_paused(s);
        if s.shutdown.load(Ordering::SeqCst) && s.queue.is_empty() {
            return;
        }
        let Some((lease, mut batch)) = s.queue.pop_batch_wait(POLL_INTERVAL, s.cfg.max_batch)
        else {
            if s.queue.is_closed() && s.queue.is_empty() {
                return;
            }
            continue;
        };
        // Greedy top-up: the rest of what is queued for this model joins
        // now; nothing waits for more to arrive.
        let room = s.cfg.max_batch - batch.len();
        batch.extend(s.queue.pop_model(lease.model(), room));
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

fn wait_while_paused(s: &Shared) {
    let mut paused = s.paused.lock().unwrap_or_else(PoisonError::into_inner);
    while *paused && !s.shutdown.load(Ordering::SeqCst) {
        paused = s
            .pause_cv
            .wait(paused)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn process_batch(s: &Arc<Shared>, model: &str, jobs: Vec<Job>) {
    let obs = appmult_obs::global();
    let popped = jobs.len();
    // Tombstone gate: jobs whose caller already cancelled (the ticket is
    // resolved) are discarded before any work happens on their behalf.
    let (jobs, cancelled): (Vec<Job>, Vec<Job>) =
        jobs.into_iter().partition(|j| !j.ticket.is_resolved());
    if !cancelled.is_empty() {
        obs.counter_add("serve.ticket.abandoned", cancelled.len() as u64);
        obs.event(
            "serve.ticket.abandoned",
            &[("pre_dispatch", (cancelled.len() as u64).into())],
        );
    }
    let now = Instant::now();
    // Deadline gate: expired requests never reach a kernel.
    let (live, expired): (Vec<Job>, Vec<Job>) = jobs
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|d| d > now));
    for job in &expired {
        obs.counter_add("serve.deadline.dropped_pre_dispatch", 1);
        resolve(job, Err(Rejection::DeadlineExceeded));
    }
    if live.is_empty() {
        s.in_flight.fetch_sub(popped, Ordering::Relaxed);
        return;
    }
    obs.observe("serve.batch.size", live.len() as f64);
    if obs.is_enabled() {
        obs.counter_add(&format!("serve.model.batches.{model}"), 1);
    }
    let batch_no = s.batches.fetch_add(1, Ordering::Relaxed) + 1;

    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(every) = s.cfg.chaos_panic_every {
            assert!(
                !batch_no.is_multiple_of(every),
                "chaos: injected worker panic"
            );
        }
        obs.counter_add("serve.batch.jobs_dispatched", live.len() as u64);
        let stacked = stack_inputs(&live);
        s.registry.forward_batch(model, &stacked)
    }));

    match result {
        Ok(Ok(output)) => match split_outputs(&output, live.len()) {
            Some(outputs) => {
                for (job, out) in live.iter().zip(outputs) {
                    resolve(job, Ok(out));
                }
            }
            None => {
                let why = format!(
                    "model {:?} returned shape {:?} for a batch of {}",
                    model,
                    output.shape(),
                    live.len()
                );
                for job in &live {
                    resolve(job, Err(Rejection::InvalidInput(why.clone())));
                }
            }
        },
        Ok(Err(ForwardError::Unloaded(name))) => {
            for job in &live {
                resolve(job, Err(Rejection::ModelUnloaded(name.clone())));
            }
        }
        Ok(Err(ForwardError::Panicked)) | Err(_) => handle_panicked_batch(s, live),
    }
    s.in_flight.fetch_sub(popped, Ordering::Relaxed);
}

/// Requeue-or-reject after a worker panic: each job goes back to its lane
/// (at the back — order across a panic is not preserved, existence is)
/// unless it has exhausted its retries or no longer fits.
fn handle_panicked_batch(s: &Shared, jobs: Vec<Job>) {
    let obs = appmult_obs::global();
    obs.counter_add("serve.worker.panics", 1);
    obs.event(
        "serve.worker.panic",
        &[("jobs", (jobs.len() as u64).into())],
    );
    for mut job in jobs {
        if job.retries < MAX_RETRIES {
            job.retries += 1;
            let model = job.model.clone();
            let cost = job.cost;
            let priority = job.priority;
            match s.queue.push(&model, job, cost, priority) {
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

    /// Pauses and waits out the poll interval, so every worker is parked
    /// on the pause condvar before the test lines up queued requests.
    fn pause_settled(engine: &Engine) {
        engine.pause();
        std::thread::sleep(POLL_INTERVAL * 5);
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
    }

    #[test]
    fn nan_inputs_reject_or_scrub_by_config() {
        let nan = Tensor::from_vec(vec![0.1, f32::NAN, 0.3, f32::INFINITY], &[4]);
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        assert!(matches!(
            engine.submit(Request::new("tiny", nan.clone())),
            Err(Rejection::InvalidInput(_))
        ));
        engine.shutdown();

        let cfg = EngineConfig {
            scrub_nonfinite: true,
            ..EngineConfig::default()
        };
        let engine = Engine::start(tiny_registry(), cfg);
        let ticket = engine.submit(Request::new("tiny", nan)).unwrap();
        let out = ticket.wait().expect("scrubbed input must serve");
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_rejects_at_admission() {
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        let req = Request::new("tiny", sample(0.0)).with_deadline(Duration::ZERO);
        assert_eq!(engine.submit(req).unwrap_err(), Rejection::DeadlineExceeded);
        engine.shutdown();
    }

    #[test]
    fn queued_requests_resolve_as_shutting_down() {
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        pause_settled(&engine);
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| engine.submit(Request::new("tiny", sample(1.0))).unwrap())
            .collect();
        engine.shutdown();
        for t in tickets {
            match t.wait() {
                Err(Rejection::ShuttingDown) | Ok(_) => {}
                other => panic!("unexpected outcome: {other:?}"),
            }
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

    #[test]
    fn ladder_sheds_low_priority_under_overload() {
        let cfg = EngineConfig {
            queue_capacity: 8,
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::start(tiny_registry(), cfg);
        pause_settled(&engine);
        // Fill to 75%+ occupancy: Low must now shed, High still admits.
        for _ in 0..6 {
            engine
                .submit(Request::new("tiny", sample(0.0)))
                .expect("below capacity");
        }
        assert!(
            engine.ladder_level() >= 2,
            "level {}",
            engine.ladder_level()
        );
        let low = Request::new("tiny", sample(0.0)).with_priority(Priority::Low);
        assert!(matches!(engine.submit(low), Err(Rejection::Shed { .. })));
        let high = Request::new("tiny", sample(0.0)).with_priority(Priority::High);
        engine.submit(high).expect("high admits at level 2");
        // Fill the rest: queue-full is the final answer.
        let mut saw_full = false;
        for _ in 0..4 {
            let high = Request::new("tiny", sample(0.0)).with_priority(Priority::High);
            if matches!(engine.submit(high), Err(Rejection::QueueFull { .. })) {
                saw_full = true;
            }
        }
        assert!(saw_full, "saturated queue must reject fast");
        engine.resume();
        engine.shutdown();
    }

    #[test]
    fn unloading_mid_flight_resolves_not_hangs() {
        let reg = tiny_registry();
        let engine = Engine::start(Arc::clone(&reg), EngineConfig::default());
        pause_settled(&engine);
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| engine.submit(Request::new("tiny", sample(0.2))).unwrap())
            .collect();
        reg.unload("tiny");
        engine.resume();
        for t in tickets {
            match t.wait_timeout(Duration::from_secs(10)) {
                Err(Rejection::ModelUnloaded(_)) | Ok(_) => {}
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        engine.shutdown();
    }

    /// Caller-side cancellation: a `wait_timeout` that expires resolves
    /// the ticket to `DeadlineExceeded` right there, and the worker
    /// discards the tombstoned job before dispatch — no silent result
    /// drop, no abandoned slot.
    #[test]
    fn wait_timeout_cancels_the_queued_request() {
        let engine = Engine::start(tiny_registry(), EngineConfig::default());
        pause_settled(&engine);
        let ticket = engine.submit(Request::new("tiny", sample(0.3))).unwrap();
        let outcome = ticket.wait_timeout(Duration::from_millis(20));
        assert_eq!(outcome, Err(Rejection::DeadlineExceeded));
        // The outcome is sticky: later polls see the cancellation.
        assert_eq!(
            ticket.try_get(),
            Some(Err(Rejection::DeadlineExceeded)),
            "cancellation must resolve the slot, not abandon it"
        );
        engine.resume();
        // A fresh request on the same engine still serves: the tombstone
        // was discarded, the worker did not wedge on it.
        let t2 = engine.submit(Request::new("tiny", sample(0.4))).unwrap();
        assert!(t2.wait_timeout(Duration::from_secs(10)).is_ok());
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

    /// Pressure counts in-flight work: with the queue drained but a batch
    /// still executing, the ladder must not read zero.
    #[test]
    fn pressure_counts_in_flight_batches() {
        let (reg, gate) = gated_registry();
        let cfg = EngineConfig {
            queue_capacity: 4,
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::start(reg, cfg);
        let ticket = engine.submit(Request::new("gate", sample(1.0))).unwrap();
        // The worker is now inside the forward pass, queue empty.
        gate.entered.wait();
        assert_eq!(engine.queue_depth(), 0, "batch was popped");
        assert_eq!(engine.in_flight(), 1);
        assert!(
            engine.pressure() > 0.0,
            "in-flight work must keep pressure above zero after a flush"
        );
        gate.release.wait();
        assert!(ticket.wait_timeout(Duration::from_secs(10)).is_ok());
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
            assert!(t.wait_timeout(Duration::from_secs(10)).is_ok());
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
            assert!(t.wait_timeout(Duration::from_secs(10)).is_ok());
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
            assert!(t.wait_timeout(Duration::from_secs(10)).is_ok());
        }
        engine.shutdown();
        assert_eq!(*gate.batches.lock().unwrap(), [1, 1]);
    }
}
