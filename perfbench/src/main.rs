//! Retraining-step and serving benchmark for the appmult workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload retrain_lenet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off and checks every output; `--trace 1` runs the layer sweep, which
//! times each layer from outside and prints the per-layer metrics. The
//! last line of standard output is one JSON object; the exit code is
//! non-zero when any output check fails. See `perfbench/README.md`.

mod arch;
mod reference;
mod replay;
mod serve;
mod setup;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use appmult_kernels::{set_global_kernel, Kernel};
use appmult_pool::set_global_threads;

use arch::{Drive, Workload, BATCH, WORKLOADS};
use reference::Reference;
use serve::Server;
use setup::{build_luts, generate_data, SetupParts, Trainer};
use stats::{median, param_digest, peak_rss_mib, percentile, tail};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Reference passes timed after each serving window; their median is
/// the window's reference time.
const REF_PASSES: usize = 5;
/// Length of one serving window; a reference time follows each.
const SERVE_WINDOW: Duration = Duration::from_millis(250);
/// Leading steps the correctness check replays on the naive kernel.
const CHECK_STEPS: u64 = 3;
/// Fewest timed steps per run, so that p75 has ten samples beyond it.
const MIN_STEPS: usize = 40;
/// Distinct serving requests (and reference outputs) per run.
const REQUESTS: usize = 160;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One run's result: metrics as `(name, value, unit)` plus notes printed
/// above the JSON line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "failed_frac {} ({} of {} operations)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>14.4} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Which percentile `tail_ms` is, over how many samples, and the p99
/// for reference.
fn tail_note(what: &str, values: &[f64], pct: f64) -> String {
    let (p99, beyond) = percentile(values, 99.0);
    format!(
        "tail_ms is {what} p{pct} over {} {what}s; p99 is {p99:.3} ms with {beyond} beyond it",
        values.len()
    )
}

/// The unscaled figures behind the scaled metrics: wall-clock sample and
/// set-up medians and the median reference time.
fn raw_note(what: &str, samples: &[f64], refs: &[f64], setup_s: &[f64]) -> String {
    format!(
        "times are scaled to a {:.1} ms reference pass; wall clock: {what} p50 {:.4} ms, \
         set-up {:.4} s, reference pass {:.4} ms",
        reference::NOMINAL_MS,
        median(samples),
        median(setup_s),
        median(refs)
    )
}

/// The median set-up time scaled by the median reference time of the
/// timed phase, which follows the set-ups within seconds. A pass timed
/// right after a set-up would also time the wake-up of a vCPU that sat
/// idle through the mostly serial set-up, which the host delays by up to
/// a few milliseconds.
fn scale_setup(setup_s: &[f64], refs: &[f64]) -> f64 {
    median(setup_s) * reference::NOMINAL_MS / median(refs)
}

/// Retraining workload with tracing off: steps back to back for
/// `seconds`, then the naive-kernel replay of the first steps.
fn run_retrain(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut off = Tracer::new(false);
    let mut reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // release the previous set-up before building again
        let t = Instant::now();
        let mut parts = SetupParts::default();
        let (lut, grads) = build_luts(w, &mut parts, &mut off);
        let data = generate_data(seed, &mut parts, &mut off);
        let trainer = Trainer::new(w.model, seed, &data, &lut, &grads, &mut parts, &mut off);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((lut, grads, data, trainer));
    }
    let (lut, grads, data, mut trainer) = built.expect("at least one set-up");

    // Timed phase. The check steps run first, so the naive replay below
    // can compare their losses and the parameters they leave behind.
    let mut losses = Vec::new();
    for step in 0..CHECK_STEPS {
        losses.push(trainer.step(step, &mut off).loss);
    }
    let digest = param_digest(&mut trainer.model);
    let (mut raw, mut refs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut step = CHECK_STEPS;
    while raw.len() < MIN_STEPS || start.elapsed().as_secs_f64() < seconds {
        let st = trainer.step(step, &mut off);
        losses.push(st.loss);
        raw.push(st.total);
        refs.push(reference.time_ms());
        step += 1;
    }
    let totals = reference::scale(&raw, &refs);
    let rss = peak_rss_mib();
    drop(trainer);

    let mut failed = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    let mut attempted = losses.len() as u64;
    // Correctness: rebuild from the seed and replay the check steps on
    // the verbatim naive kernel, serially.
    set_global_kernel(Some(Kernel::Naive));
    set_global_threads(1);
    let mut parts = SetupParts::default();
    let mut reference = Trainer::new(w.model, seed, &data, &lut, &grads, &mut parts, &mut off);
    for step in 0..CHECK_STEPS {
        attempted += 1;
        let loss = reference.step(step, &mut off).loss;
        if loss.to_bits() != losses[step as usize].to_bits() {
            failed += 1;
            eprintln!(
                "step {step}: loss {loss} on the naive kernel, {} timed",
                losses[step as usize]
            );
        }
    }
    attempted += 1;
    if param_digest(&mut reference.model) != digest {
        failed += 1;
        eprintln!("parameter digest after {CHECK_STEPS} steps differs from the naive replay");
    }
    set_global_kernel(None);
    set_global_threads(0);

    let total_s: f64 = totals.iter().sum::<f64>() / 1e3;
    let (tail_ms, pct) = tail(&totals);
    Report {
        attempted,
        failed,
        metrics: vec![
            (
                "images_per_s",
                (BATCH * totals.len()) as f64 / total_s,
                "1/s",
            ),
            ("p50_ms", median(&totals), "ms"),
            ("tail_ms", tail_ms, "ms"),
            ("setup_s", scale_setup(&setup_s, &refs), "s"),
            ("peak_rss_mib", rss, "MiB"),
        ],
        notes: vec![
            format!(
                "workload {} seed {seed}: {} timed steps of batch {BATCH}",
                w.name,
                totals.len()
            ),
            tail_note("step", &totals, pct),
            raw_note("step", &raw, &refs, &setup_s),
            format!(
                "naive replay of {CHECK_STEPS} steps: loss bits and parameter digest {}",
                if failed == 0 { "match" } else { "MISMATCH" }
            ),
        ],
    }
}

/// Serving workload with tracing off: the closed loop for `seconds`.
fn run_serve(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut off = Tracer::new(false);
    let mut reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        let mut parts = SetupParts::default();
        let (lut, grads) = build_luts(w, &mut parts, &mut off);
        let data = generate_data(seed, &mut parts, &mut off);
        let s = Server::start(w, seed, &data, &lut, &grads, REQUESTS, &mut parts, &mut off);
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    // The closed loop runs in windows, each drained and followed by a
    // reference time that scales the latencies and the length of the
    // window before it.
    let (mut windows, mut window_refs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        windows.push(server.drive(SERVE_WINDOW, &mut off));
        window_refs.push(reference.median_ms(REF_PASSES));
    }
    let rss = peak_rss_mib();
    server.shutdown();

    let (mut raw, mut refs, mut lat) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut scaled_s) = (0, 0, 0.0);
    for (stats, r) in windows.into_iter().zip(window_refs) {
        let k = reference::NOMINAL_MS / r;
        attempted += stats.attempted;
        failed += stats.failed;
        scaled_s += stats.elapsed_s * k;
        lat.extend(stats.latencies_ms.iter().map(|l| l * k));
        refs.extend(std::iter::repeat_n(r, stats.latencies_ms.len()));
        raw.extend(stats.latencies_ms);
    }

    let (tail_ms, pct) = tail(&lat);
    Report {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: vec![
            ("images_per_s", lat.len() as f64 / scaled_s, "1/s"),
            ("p50_ms", median(&lat), "ms"),
            ("tail_ms", tail_ms, "ms"),
            ("setup_s", scale_setup(&setup_s, &refs), "s"),
            ("peak_rss_mib", rss, "MiB"),
        ],
        notes: vec![
            format!(
                "workload {} seed {seed}: {} requests, {} outstanding, closed loop in {} ms windows",
                w.name,
                lat.len(),
                serve::OUTSTANDING,
                SERVE_WINDOW.as_millis()
            ),
            tail_note("request", &lat, pct),
            raw_note("request", &raw, &refs, &setup_s),
            format!(
                "served outputs vs single-sample references: {}",
                if failed == 0 {
                    "bit-identical"
                } else {
                    "MISMATCH"
                }
            ),
        ],
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let report = if args.trace {
        sweep::run(w, args.seed, args.seconds)
    } else {
        match w.drive {
            Drive::Retrain => run_retrain(w, args.seed, args.seconds),
            Drive::Serve => run_serve(w, args.seed, args.seconds),
        }
    };
    report.print();
    if report.failed > 0 {
        std::process::exit(1);
    }
}
