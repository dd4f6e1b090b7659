//! Open-loop load driver for the `appmult-serve` engine — the logic
//! behind the `serve_bench` binary, exposed as a library so the schema
//! tests can run a miniature bench and lock the `BENCH_serve.json`
//! shape.
//!
//! Estimates the engine's service capacity, then drives four open-loop
//! phases against it: `steady` (~0.5x capacity), `overload` (>= 2x
//! capacity, mixed priorities, short deadlines on part of the traffic, a
//! mid-phase model eviction + reload, and chaos-injected worker panics),
//! `recovery` (back to ~0.5x), and `multimodel` — a saturated hot/cold
//! two-model phase (hot demand >= 2x capacity, cold ~1x, both High
//! priority so the ladder sheds neither) that measures per-model
//! throughput share and p50/p99 latency under DRR scheduling.
//!
//! Every submission is accounted for: it either resolves to a served
//! output or to exactly one typed rejection, and the driver asserts the
//! books balance (zero lost requests) unconditionally. With
//! `assert_overload` it additionally requires a nonzero shed count under
//! overload and at least one recovered worker panic; with
//! `assert_fairness` it requires every model's throughput share in the
//! multimodel phase to stay at or above **half its fair share** and every
//! phase's ok-p99 to fit its SLO budget.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use appmult_mult::Multiplier;
use appmult_nn::layers::{Relu, Sequential};
use appmult_nn::Tensor;
use appmult_obs::json::{self, Layout};
use appmult_retrain::{ApproxLinear, GradientLut, GradientMode, QuantConfig};
use appmult_rng::Rng64;
use appmult_serve::{
    Engine, EngineConfig, LutBuilder, LutHandle, ModelSpec, Priority, Registry, Request, Ticket,
};

use crate::{markdown_table, write_results, Args};

const IN_DIM: usize = 32;
const HIDDEN: usize = 8;

/// Phase indices, in driving order.
const PHASES: [&str; 5] = ["estimate", "steady", "overload", "recovery", "multimodel"];
const MULTIMODEL: usize = 4;

/// Every model's throughput share must stay at or above half its fair
/// share (fair share = 1/models) in the multimodel phase.
const FAIRNESS_FACTOR: f64 = 0.5;

/// Knobs of one bench run (CLI flags of the `serve_bench` binary).
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Per-phase driving time.
    pub duration: Duration,
    /// Overload multiple of estimated capacity.
    pub overload_x: f64,
    /// Panic every Nth batch (0 disables).
    pub chaos: u64,
    /// Enable the overload CI assertions.
    pub assert_overload: bool,
    /// Enable the fairness + per-phase p99 SLO assertions.
    pub assert_fairness: bool,
}

impl ServeBenchOptions {
    /// Parses `--duration-ms`, `--overload-x`, `--chaos`,
    /// `--assert-overload`, `--assert-fairness`.
    pub fn from_args(args: &Args) -> Self {
        Self {
            duration: Duration::from_millis(args.get_or("duration-ms", 250u64)),
            overload_x: args.get_or("overload-x", 2.5f64),
            chaos: args.get_or("chaos", 7u64),
            assert_overload: args.flag("assert-overload"),
            assert_fairness: args.flag("assert-fairness"),
        }
    }

    /// The per-phase ok-p99 SLO budget: generous (an order of magnitude
    /// over the drive window plus slack) because the books, not raw
    /// speed, are what CI gates — a starved model blows through even
    /// this.
    pub fn p99_budget_ms(&self) -> f64 {
        self.duration.as_millis() as f64 * 10.0 + 2000.0
    }
}

/// Per-model accounting of the multimodel phase.
#[derive(Debug, Clone)]
pub struct ModelShare {
    /// Registry name.
    pub model: &'static str,
    /// Requests submitted for this model in the phase.
    pub submitted: usize,
    /// Requests served for this model in the phase.
    pub served: usize,
    /// Fraction of all served requests in the phase.
    pub share: f64,
    /// Client-observed p50 latency of served requests, milliseconds.
    pub ok_p50_ms: f64,
    /// Client-observed p99 latency of served requests, milliseconds.
    pub ok_p99_ms: f64,
}

/// What one bench run produced (everything the binary prints/asserts).
#[derive(Debug)]
pub struct ServeBenchReport {
    /// The full `BENCH_serve.json` contents.
    pub json: String,
    /// Estimated service capacity, requests/second.
    pub capacity_rps: f64,
    /// Total requests submitted across all phases.
    pub submitted: usize,
    /// Requests that resolved `Ok`.
    pub served: usize,
    /// Submissions that never resolved (must be 0).
    pub lost: usize,
    /// Shed + queue-full rejections.
    pub shed: usize,
    /// Worker panics recovered.
    pub panics: u64,
    /// `Ok` count in the recovery phase.
    pub recovery_ok: usize,
    /// Multimodel-phase share accounting, one entry per model.
    pub shares: Vec<ModelShare>,
    /// Smallest per-model throughput share in the multimodel phase.
    pub min_share: f64,
    /// The share every model must meet (`FAIRNESS_FACTOR / models`).
    pub share_bound: f64,
    /// Per-phase ok-p99 in ms (`NaN`→0 when a phase served nothing).
    pub phase_p99_ms: Vec<f64>,
    /// The common p99 budget those are judged against.
    pub p99_budget_ms: f64,
}

/// One resolved request: phase index, model, outcome label (`"ok"` or the
/// rejection label), and client-observed latency in milliseconds.
type Outcome = (usize, &'static str, &'static str, f64);

/// Mutable driver state threaded through the capacity estimate and the
/// open-loop phases.
struct Driver {
    seq: usize,
    submitted: [usize; 5],
    submitted_by_model: [BTreeMap<&'static str, usize>; 5],
    admission_rejects: Vec<(usize, &'static str, &'static str)>,
    inputs: Vec<Tensor>,
}

impl Driver {
    /// Builds the next request in the deterministic mixed-traffic pattern:
    /// 1 in 5 targets the fault-injected model, priorities cycle through
    /// all three lanes, every 4th carries a 20 ms deadline, and every 16th
    /// input holds a NaN to exercise scrubbing.
    fn next_request(&mut self, phase: usize) -> (&'static str, Request) {
        let seq = self.seq;
        let model = if seq.is_multiple_of(5) {
            "faulty"
        } else {
            "clean"
        };
        let mut req = self.request_for(phase, model);
        req.priority = match seq % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        if seq.is_multiple_of(4) {
            req = req.with_deadline(Duration::from_millis(20));
        }
        (model, req)
    }

    /// A plain request for one model (the multimodel phase drives these at
    /// High priority with no deadline, so neither shedding nor deadline
    /// drops distort the share measurement).
    fn request_for(&mut self, phase: usize, model: &'static str) -> Request {
        let seq = self.seq;
        self.seq += 1;
        self.submitted[phase] += 1;
        *self.submitted_by_model[phase].entry(model).or_insert(0) += 1;
        Request::new(model, self.inputs[seq % self.inputs.len()].clone())
    }
}

/// Both models share one LUT cache; the faulty one runs on a
/// bit-flip-corrupted copy of the same multiplier. The LUT pair is listed
/// as a prefetch so `Registry::load` builds it before the factory (and
/// any rebuild) fetches it warm.
fn spec(name: &str, faulty: bool) -> ModelSpec {
    let key = if faulty {
        "mul7u_rm6+faults"
    } else {
        "mul7u_rm6"
    };
    let build: LutBuilder = Arc::new(move || {
        let clean = appmult_mult::zoo::mul7u_rm6().to_lut();
        let lut = if faulty {
            clean.with_flipped_bits(48, 0xFA117)
        } else {
            clean
        };
        let grads = GradientLut::build(&lut, GradientMode::difference_based(8));
        (lut, grads)
    });
    let fetch = Arc::clone(&build);
    ModelSpec::new(
        name,
        vec![IN_DIM],
        Arc::new(move |luts: &LutHandle<'_>| {
            let (lut, grads) = luts.get(key, || fetch());
            Sequential::new()
                .push(ApproxLinear::new(
                    IN_DIM,
                    HIDDEN,
                    11,
                    lut,
                    grads,
                    QuantConfig::default(),
                ))
                .push(Relu::new())
        }),
    )
    .with_prefetch(key, build)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn sorted_ok_ms<F: Fn(&Outcome) -> bool>(outcomes: &[Outcome], keep: F) -> Vec<f64> {
    let mut ms: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.2 == "ok" && keep(o))
        .map(|&(_, _, _, ms)| ms)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// One phase row of `BENCH_serve.json`.
struct PhaseFigures {
    name: &'static str,
    submitted: usize,
    /// Resolved requests per outcome label, in report order.
    outcomes: Vec<(&'static str, usize)>,
    ok_p50: f64,
    ok_p99: f64,
}

/// Everything `BENCH_serve.json` reports, gathered after the drive so the
/// writer is a function of these figures alone.
struct ServeFigures<'a> {
    /// Run environment (`threads`, `kernel`), then the engine settings.
    config: &'a [(&'a str, appmult_obs::Value)],
    capacity_rps: f64,
    overload_x: f64,
    duration_ms: u128,
    phases: Vec<PhaseFigures>,
    p99_budget_ms: f64,
    /// Submitted, served, shed, lost.
    totals: [usize; 4],
    /// Served p50 and p99, rejected p50 and p99.
    latency_ms: [f64; 4],
    fair_share: f64,
    share_bound: f64,
    min_share: f64,
    shares: &'a [ModelShare],
    /// Worker panics, model rebuilds, scrubbed inputs, deadline drops,
    /// prefetched LUTs.
    faults: [u64; 5],
}

/// Renders `BENCH_serve.json`.
fn bench_serve_json(f: &ServeFigures<'_>) -> String {
    let ms = |v: f64| format!("{v:.3}");
    json::document(|w| {
        w.key("config").object(Layout::Pretty, |w| {
            for (key, value) in f.config {
                w.key(key).value(value);
            }
        });
        w.key("capacity_rps")
            .raw(format_args!("{:.1}", f.capacity_rps));
        w.key("overload_x").f64(f.overload_x);
        w.key("duration_ms").raw(f.duration_ms);
        w.key("phases").array(Layout::Pretty, |w| {
            for p in &f.phases {
                w.object(Layout::Inline, |w| {
                    w.key("phase").str(p.name);
                    w.key("submitted").raw(p.submitted);
                    for (label, n) in &p.outcomes {
                        w.key(label).raw(n);
                    }
                });
            }
        });
        w.key("phase_latency_ms").array(Layout::Pretty, |w| {
            for p in &f.phases {
                w.object(Layout::Inline, |w| {
                    w.key("phase").str(p.name);
                    w.key("ok_p50").raw(ms(p.ok_p50));
                    w.key("ok_p99").raw(ms(p.ok_p99));
                    w.key("budget_p99")
                        .raw(format_args!("{:.1}", f.p99_budget_ms));
                    w.key("within_budget").raw(p.ok_p99 <= f.p99_budget_ms);
                });
            }
        });
        w.key("totals").object(Layout::Inline, |w| {
            for (key, n) in ["submitted", "served", "shed", "lost"].iter().zip(f.totals) {
                w.key(key).raw(n);
            }
        });
        w.key("latency_ms").object(Layout::Inline, |w| {
            let keys = ["ok_p50", "ok_p99", "reject_p50", "reject_p99"];
            for (key, v) in keys.iter().zip(f.latency_ms) {
                w.key(key).raw(ms(v));
            }
        });
        w.key("fairness").object(Layout::Inline, |w| {
            let share = |v: f64| format!("{v:.4}");
            w.key("phase").str(PHASES[MULTIMODEL]);
            w.key("fair_share").raw(share(f.fair_share));
            w.key("bound").raw(share(f.share_bound));
            w.key("min_share").raw(share(f.min_share));
            w.key("holds").raw(f.min_share >= f.share_bound);
            w.key("models").array(Layout::Pretty, |w| {
                for s in f.shares {
                    w.object(Layout::Inline, |w| {
                        w.key("model").str(s.model);
                        w.key("submitted").raw(s.submitted);
                        w.key("served").raw(s.served);
                        w.key("share").raw(share(s.share));
                        w.key("ok_p50_ms").raw(ms(s.ok_p50_ms));
                        w.key("ok_p99_ms").raw(ms(s.ok_p99_ms));
                    });
                }
            });
        });
        w.key("faults").object(Layout::Inline, |w| {
            let keys = [
                "worker_panics",
                "model_rebuilds",
                "inputs_scrubbed",
                "deadline_dropped",
                "luts_prefetched",
            ];
            for (key, n) in keys.iter().zip(f.faults) {
                w.key(key).raw(n);
            }
        });
    })
}

/// Runs the full bench (see the module docs) and writes
/// `results/BENCH_serve.json`.
///
/// # Panics
///
/// Panics when the books do not balance (a lost request), or when an
/// enabled assertion tier (`assert_overload` / `assert_fairness`) fails —
/// the CI jobs rely on a nonzero exit.
#[allow(clippy::too_many_lines)]
pub fn run_serve_bench(opts: &ServeBenchOptions) -> ServeBenchReport {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let obs = appmult_obs::ObsSink::recording();
    appmult_obs::set_global(&obs);

    let registry = Arc::new(Registry::new(4));
    registry.load(spec("clean", false)).expect("load clean");
    registry.load(spec("faulty", true)).expect("load faulty");

    let cfg = EngineConfig {
        queue_capacity: 48,
        workers: (host / 2).clamp(2, 4),
        max_batch: 16,
        retry_after: Duration::from_millis(5),
        scrub_nonfinite: true,
        chaos_panic_every: (opts.chaos > 0).then_some(opts.chaos),
        ..EngineConfig::default()
    };
    let mut config_header = crate::run_config();
    config_header.extend(cfg.describe());
    let workers = cfg.workers;
    let engine = Engine::start(Arc::clone(&registry), cfg);
    println!(
        "serve_bench: {} pool threads, {workers} serve workers, chaos every {} batches",
        appmult_pool::Pool::global().threads(),
        opts.chaos,
    );

    let mut rng = Rng64::seed_from_u64(0x5E7E);
    let mut driver = Driver {
        seq: 0,
        submitted: [0; 5],
        submitted_by_model: std::array::from_fn(|_| BTreeMap::new()),
        admission_rejects: Vec::new(),
        inputs: (0..32)
            .map(|i: usize| {
                let mut data: Vec<f32> = (0..IN_DIM).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
                if i.is_multiple_of(16) {
                    data[0] = f32::NAN;
                }
                Tensor::from_vec(data, &[IN_DIM])
            })
            .collect(),
    };

    // A collector thread resolves tickets off the submission path so the
    // driver stays open-loop; latency is client-observed submit-to-resolve.
    let (tx, rx) = mpsc::channel::<(usize, &'static str, Ticket, Instant)>();
    let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
    let collector = {
        let outcomes = Arc::clone(&outcomes);
        std::thread::spawn(move || {
            while let Ok((phase, model, ticket, t0)) = rx.recv() {
                let label = match ticket.wait() {
                    Ok(_) => "ok",
                    Err(r) => r.label(),
                };
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                outcomes
                    .lock()
                    .expect("outcomes")
                    .push((phase, model, label, ms));
            }
        })
    };
    let submit = |driver: &mut Driver, phase: usize, model: &'static str, req: Request| {
        let at = Instant::now();
        match engine.submit(req) {
            Ok(ticket) => tx
                .send((phase, model, ticket, at))
                .expect("collector alive"),
            Err(r) => driver.admission_rejects.push((phase, model, r.label())),
        }
    };

    // ---- Phase 0: capacity estimate (saturation burst) ----
    //
    // Submit as fast as admission allows for a fixed window, backing off
    // briefly on rejections so the queue stays pinned at capacity and the
    // workers never idle. The dispatch counter delta over the window is
    // the true service capacity.
    let est_t0 = Instant::now();
    let est_window = opts.duration.min(Duration::from_millis(150));
    let dispatched_before = obs.counter("serve.batch.jobs_dispatched");
    while est_t0.elapsed() < est_window {
        let (model, req) = driver.next_request(0);
        let rejected_before = driver.admission_rejects.len();
        submit(&mut driver, 0, model, req);
        if driver.admission_rejects.len() > rejected_before {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let est_elapsed = est_t0.elapsed().as_secs_f64();
    let dispatched = obs.counter("serve.batch.jobs_dispatched") - dispatched_before;
    let capacity_rps = (dispatched as f64 / est_elapsed).max(200.0);
    println!("estimated capacity: {capacity_rps:.0} req/s (saturation burst)");

    // ---- Phases 1-3: open-loop driving at a target rate ----
    let rates = [
        ("steady", capacity_rps * 0.5),
        ("overload", capacity_rps * opts.overload_x),
        ("recovery", capacity_rps * 0.5),
    ];
    for (pi, (name, rate)) in rates.iter().enumerate() {
        let phase = pi + 1;
        let t0 = Instant::now();
        let mut sent = 0usize;
        let mut evicted = false;
        let mut reloaded = false;
        while t0.elapsed() < opts.duration {
            // Overload chaos: evict the faulty model mid-phase, reload it
            // at the three-quarter mark.
            if *name == "overload" {
                let frac = t0.elapsed().as_secs_f64() / opts.duration.as_secs_f64();
                if !evicted && frac >= 0.5 {
                    registry.unload("faulty");
                    evicted = true;
                } else if !reloaded && frac >= 0.75 {
                    registry.load(spec("faulty", true)).expect("reload");
                    reloaded = true;
                }
            }
            let target = (t0.elapsed().as_secs_f64() * rate) as usize;
            while sent < target {
                let (model, req) = driver.next_request(phase);
                submit(&mut driver, phase, model, req);
                sent += 1;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        println!(
            "phase {name}: submitted {} at {rate:.0} req/s",
            driver.submitted[phase]
        );
    }

    // ---- Phase 4: multimodel hot/cold saturation ----
    //
    // Hot ("clean") demand well above capacity, cold ("faulty") around
    // capacity — both exceed the ~half-capacity service share DRR can give
    // each, so both sub-queues stay backlogged and the *served* share
    // measures the scheduler, not the traffic mix. Each tick's burst
    // interleaves the two models 1:1 while both lag their targets (hot's
    // surplus demand trails) so the freed admission slots are contested by
    // both — a one-sided burst would decide the served mix at the
    // admission gate and measure nothing about scheduling. Both ride the
    // High lane with no deadline: shedding and deadline drops would
    // otherwise distort the share measurement.
    {
        let hot_rate = capacity_rps * opts.overload_x.max(2.0);
        let cold_rate = capacity_rps;
        let t0 = Instant::now();
        let (mut hot_sent, mut cold_sent) = (0usize, 0usize);
        while t0.elapsed() < opts.duration {
            let elapsed = t0.elapsed().as_secs_f64();
            let cold_target = (elapsed * cold_rate) as usize;
            let hot_target = (elapsed * hot_rate) as usize;
            while cold_sent < cold_target || hot_sent < hot_target {
                if cold_sent < cold_target {
                    let req = driver
                        .request_for(MULTIMODEL, "faulty")
                        .with_priority(Priority::High);
                    submit(&mut driver, MULTIMODEL, "faulty", req);
                    cold_sent += 1;
                }
                if hot_sent < hot_target {
                    let req = driver
                        .request_for(MULTIMODEL, "clean")
                        .with_priority(Priority::High);
                    submit(&mut driver, MULTIMODEL, "clean", req);
                    hot_sent += 1;
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        println!(
            "phase multimodel: submitted {} (hot {hot_sent} at {hot_rate:.0} req/s, \
             cold {cold_sent} at {cold_rate:.0} req/s)",
            driver.submitted[MULTIMODEL]
        );
    }

    // Drain: close the collector channel and wait for every ticket.
    drop(tx);
    collector.join().expect("collector");
    engine.shutdown();
    appmult_obs::set_global(&appmult_obs::ObsSink::null());

    // ---- Accounting: every submission resolved exactly once ----
    let outcomes = Arc::try_unwrap(outcomes)
        .map(|m| m.into_inner().expect("outcomes"))
        .unwrap_or_default();
    let labels = [
        "ok",
        "queue_full",
        "shed",
        "deadline",
        "model_unloaded",
        "invalid_input",
        "worker_panic",
        "shutting_down",
    ];
    let mut counts = vec![BTreeMap::<&str, usize>::new(); PHASES.len()];
    let mut served_by_model = vec![BTreeMap::<&str, usize>::new(); PHASES.len()];
    for &(phase, model, label, _) in &outcomes {
        *counts[phase].entry(label).or_insert(0) += 1;
        if label == "ok" {
            *served_by_model[phase].entry(model).or_insert(0) += 1;
        }
    }
    for &(phase, _, label) in &driver.admission_rejects {
        *counts[phase].entry(label).or_insert(0) += 1;
    }
    let total_submitted: usize = driver.submitted.iter().sum();
    let total_resolved: usize = counts.iter().flat_map(BTreeMap::values).sum();
    let lost = total_submitted.saturating_sub(total_resolved);
    let served: usize = counts
        .iter()
        .map(|c| c.get("ok").copied().unwrap_or(0))
        .sum();
    let shed_total: usize = counts
        .iter()
        .flat_map(|c| [c.get("shed"), c.get("queue_full")])
        .flatten()
        .sum();

    let ok_ms = sorted_ok_ms(&outcomes, |_| true);
    let mut rej_ms: Vec<f64> = outcomes
        .iter()
        .filter(|(_, _, l, _)| *l != "ok")
        .map(|&(_, _, _, ms)| ms)
        .collect();
    rej_ms.sort_by(f64::total_cmp);
    let phase_p99_ms: Vec<f64> = (0..PHASES.len())
        .map(|p| percentile(&sorted_ok_ms(&outcomes, |o| o.0 == p), 0.99))
        .collect();
    let p99_budget_ms = opts.p99_budget_ms();

    // ---- Multimodel fairness accounting ----
    let mm_total_served: usize = served_by_model[MULTIMODEL].values().sum();
    let models = ["clean", "faulty"];
    let fair_share = 1.0 / models.len() as f64;
    let share_bound = FAIRNESS_FACTOR * fair_share;
    let shares: Vec<ModelShare> = models
        .iter()
        .map(|&model| {
            let model_ok = sorted_ok_ms(&outcomes, |o| o.0 == MULTIMODEL && o.1 == model);
            let served = served_by_model[MULTIMODEL].get(model).copied().unwrap_or(0);
            ModelShare {
                model,
                submitted: driver.submitted_by_model[MULTIMODEL]
                    .get(model)
                    .copied()
                    .unwrap_or(0),
                served,
                share: if mm_total_served == 0 {
                    0.0
                } else {
                    served as f64 / mm_total_served as f64
                },
                ok_p50_ms: percentile(&model_ok, 0.50),
                ok_p99_ms: percentile(&model_ok, 0.99),
            }
        })
        .collect();
    let min_share = shares.iter().map(|s| s.share).fold(f64::INFINITY, f64::min);

    let table = markdown_table(
        &["phase", "submitted", "ok", "rejected", "ok p99 ms"],
        &PHASES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ok = counts[i].get("ok").copied().unwrap_or(0);
                vec![
                    (*name).to_string(),
                    driver.submitted[i].to_string(),
                    ok.to_string(),
                    (counts[i].values().sum::<usize>() - ok).to_string(),
                    format!("{:.2}", phase_p99_ms[i]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n{table}");
    println!(
        "served {served}/{total_submitted}, shed {shed_total}, lost {lost}; \
         ok p50 {:.2} ms p99 {:.2} ms; reject p50 {:.2} ms p99 {:.2} ms",
        percentile(&ok_ms, 0.50),
        percentile(&ok_ms, 0.99),
        percentile(&rej_ms, 0.50),
        percentile(&rej_ms, 0.99),
    );
    for s in &shares {
        println!(
            "multimodel {}: served {}/{} (share {:.2}, bound {share_bound:.2}), \
             p50 {:.2} ms p99 {:.2} ms",
            s.model, s.served, s.submitted, s.share, s.ok_p50_ms, s.ok_p99_ms
        );
    }
    let panics = obs.counter("serve.worker.panics");
    let rebuilds = obs.counter("serve.model.rebuilds");
    let scrubbed = obs.counter("serve.input.scrubbed");
    let deadline_dropped = obs.counter("serve.deadline.dropped_pre_dispatch");
    let prefetched = obs.counter("serve.lut.prefetch");
    println!(
        "worker panics {panics}, model rebuilds {rebuilds}, inputs scrubbed {scrubbed}, \
         deadline-dropped pre-dispatch {deadline_dropped}, LUTs prefetched {prefetched}"
    );

    // ---- results/BENCH_serve.json with a self-describing config header ----
    let json = bench_serve_json(&ServeFigures {
        config: &config_header,
        capacity_rps,
        overload_x: opts.overload_x,
        duration_ms: opts.duration.as_millis(),
        phases: PHASES
            .iter()
            .enumerate()
            .map(|(i, &name)| PhaseFigures {
                name,
                submitted: driver.submitted[i],
                outcomes: labels
                    .iter()
                    .map(|&l| (l, counts[i].get(l).copied().unwrap_or(0)))
                    .collect(),
                ok_p50: percentile(&sorted_ok_ms(&outcomes, |o| o.0 == i), 0.50),
                ok_p99: phase_p99_ms[i],
            })
            .collect(),
        p99_budget_ms,
        totals: [total_submitted, served, shed_total, lost],
        latency_ms: [
            (&ok_ms, 0.50),
            (&ok_ms, 0.99),
            (&rej_ms, 0.50),
            (&rej_ms, 0.99),
        ]
        .map(|(ms, p)| percentile(ms, p)),
        fair_share,
        share_bound,
        min_share,
        shares: &shares,
        faults: [panics, rebuilds, scrubbed, deadline_dropped, prefetched],
    });
    let path = write_results("BENCH_serve.json", &json);
    println!("wrote {}", path.display());

    // Unconditional: the books must balance. Nothing vanishes under load.
    assert_eq!(
        lost, 0,
        "{total_submitted} submitted but only {total_resolved} resolved"
    );
    assert!(served > 0, "the engine served nothing at all");

    let recovery_ok = counts[3].get("ok").copied().unwrap_or(0);
    if opts.assert_overload {
        assert!(
            shed_total > 0,
            "overload at {}x capacity must shed load (shed+queue_full == 0)",
            opts.overload_x
        );
        if opts.chaos > 0 {
            // Chaos panics fire before dispatch (exactly-once guarantee),
            // so they exercise requeue-or-reject but never poison the
            // model; rebuilds are covered by the registry's unit tests.
            assert!(panics > 0, "chaos was enabled but no worker panic fired");
        }
        assert!(
            recovery_ok > 0,
            "no requests served in the recovery phase after overload + panics"
        );
        println!("overload assertions hold: shed {shed_total}, panics {panics}, recovered");
    }
    if opts.assert_fairness {
        assert!(
            mm_total_served > 0,
            "the multimodel phase served nothing at all"
        );
        assert!(
            min_share >= share_bound,
            "hot-model starvation: min share {min_share:.3} < bound {share_bound:.3} \
             ({shares:?})"
        );
        for (i, name) in PHASES.iter().enumerate() {
            assert!(
                phase_p99_ms[i] <= p99_budget_ms,
                "phase {name} ok-p99 {:.1} ms blew the {p99_budget_ms:.0} ms SLO budget",
                phase_p99_ms[i]
            );
        }
        println!(
            "fairness assertions hold: min share {min_share:.3} >= {share_bound:.3}, \
             all phase p99s within {p99_budget_ms:.0} ms"
        );
    }

    ServeBenchReport {
        json,
        capacity_rps,
        submitted: total_submitted,
        served,
        lost,
        shed: shed_total,
        panics,
        recovery_ok,
        shares,
        min_share,
        share_bound,
        phase_p99_ms,
        p99_budget_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_serve_layout_is_locked_on_fixed_figures() {
        let phase = |name, submitted, ok, shed, p50, p99| PhaseFigures {
            name,
            submitted,
            outcomes: vec![("ok", ok), ("shed", shed)],
            ok_p50: p50,
            ok_p99: p99,
        };
        let share = |model, submitted, served, share| ModelShare {
            model,
            submitted,
            served,
            share,
            ok_p50_ms: 1.25,
            ok_p99_ms: 9.0,
        };
        let json = bench_serve_json(&ServeFigures {
            config: &[
                ("threads", 2u64.into()),
                ("kernel", "tiled-64x16x64".into()),
                ("queue_capacity", 48u64.into()),
                ("scrub_nonfinite", true.into()),
            ],
            capacity_rps: 1234.56,
            overload_x: 2.5,
            duration_ms: 300,
            phases: vec![
                phase("steady", 10, 10, 0, 0.5, 1.0),
                phase("overload", 40, 25, 15, 2.0, 123.4567),
            ],
            p99_budget_ms: 5000.0,
            totals: [50, 35, 15, 0],
            latency_ms: [1.0, 100.0, 0.01, 0.2],
            fair_share: 0.5,
            share_bound: 0.25,
            min_share: 1.0 / 3.0,
            shares: &[
                share("clean", 30, 20, 2.0 / 3.0),
                share("faulty", 12, 10, 1.0 / 3.0),
            ],
            faults: [3, 0, 4, 5, 2],
        });
        let expected = r#"{
  "config": {
    "threads": 2,
    "kernel": "tiled-64x16x64",
    "queue_capacity": 48,
    "scrub_nonfinite": true
  },
  "capacity_rps": 1234.6,
  "overload_x": 2.5,
  "duration_ms": 300,
  "phases": [
    {"phase": "steady", "submitted": 10, "ok": 10, "shed": 0},
    {"phase": "overload", "submitted": 40, "ok": 25, "shed": 15}
  ],
  "phase_latency_ms": [
    {"phase": "steady", "ok_p50": 0.500, "ok_p99": 1.000, "budget_p99": 5000.0, "within_budget": true},
    {"phase": "overload", "ok_p50": 2.000, "ok_p99": 123.457, "budget_p99": 5000.0, "within_budget": true}
  ],
  "totals": {"submitted": 50, "served": 35, "shed": 15, "lost": 0},
  "latency_ms": {"ok_p50": 1.000, "ok_p99": 100.000, "reject_p50": 0.010, "reject_p99": 0.200},
  "fairness": {"phase": "multimodel", "fair_share": 0.5000, "bound": 0.2500, "min_share": 0.3333, "holds": true, "models": [
      {"model": "clean", "submitted": 30, "served": 20, "share": 0.6667, "ok_p50_ms": 1.250, "ok_p99_ms": 9.000},
      {"model": "faulty", "submitted": 12, "served": 10, "share": 0.3333, "ok_p50_ms": 1.250, "ok_p99_ms": 9.000}
    ]},
  "faults": {"worker_panics": 3, "model_rebuilds": 0, "inputs_scrubbed": 4, "deadline_dropped": 5, "luts_prefetched": 2}
}
"#;
        assert_eq!(json, expected);
    }
}
