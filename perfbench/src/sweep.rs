//! The traced run: every per-layer metric of one workload's model and
//! multiplier, each measured by timing calls into the layer's public
//! functions from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use appmult_kernels::Kernel;
use appmult_obs::ObsSink;
use appmult_pool::Pool;

use crate::arch::{conv_instances, forward_macs, Workload, BATCH};
use crate::replay::{layer_pass, replay, Operands, OutputDigests, PhaseMs};
use crate::serve::Server;
use crate::setup::{build_luts, generate_data, SetupParts, StepTimes, Trainer};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Report;

/// Set-ups per traced run; each setup metric is the median.
const SETUP_REPS: usize = 3;
/// Fewest untraced/traced step pairs.
const MIN_PAIRS: usize = 5;
/// Fewest rounds of the per-layer replay.
const MIN_REPLAYS: usize = 3;
/// Trivial `run_rows` dispatches timed by the pool probe.
const DISPATCH_PROBES: usize = 400;
/// Requests (and reference outputs) of the serving probe.
const PROBE_REQUESTS: usize = 32;
/// Direct single-sample and 16-sample forwards timed by the serving probe.
const FORWARD_PROBES: usize = 9;

/// Replay configurations: the layer's own (tiled kernel, default thread
/// count) first, then naive, then both at one thread.
fn configs() -> [(Kernel, Pool, &'static str); 4] {
    let tiled = Kernel::tiled_default();
    [
        (tiled, Pool::global(), ""),
        (Kernel::Naive, Pool::global(), "naive@default:"),
        (tiled, Pool::serial(), "tiled@1:"),
        (Kernel::Naive, Pool::serial(), "naive@1:"),
    ]
}

/// Counts of `pool.worker` spans the calling thread opened inside another
/// span: one per `Pool::run_rows` call made from a layer.
fn pool_dispatches(sink: &ObsSink) -> u64 {
    let json = sink.to_json();
    let mut lines = json.lines();
    let mut total = 0;
    while let Some(line) = lines.next() {
        let name = line.trim().trim_start_matches("\"name\": ");
        if name.starts_with("\"span.") && name.ends_with("/pool.worker\",") {
            let count = lines.next().unwrap_or_default().trim();
            total += count
                .trim_start_matches("\"count\": ")
                .trim_end_matches(',')
                .parse::<u64>()
                .unwrap_or(0);
        }
    }
    total
}

/// Estimated bytes one conv's three LUT-GEMMs move: a 4-byte table
/// gather per MAC, 2-byte operand codes read once, 4-byte gradients and
/// outputs read or written once.
fn gemm_bytes(m: usize, j: usize, k: usize) -> u64 {
    let operands = 2 * (m * k + j * k);
    let forward = 4 * m * j * k + operands + 4 * m * j;
    let dx = 4 * m * j * k + operands + 4 * m * j + 4 * m * k;
    let dw = 4 * m * j * k + operands + 4 * m * j + 4 * j * k;
    (forward + dx + dw) as u64
}

#[allow(clippy::too_many_lines)]
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut notes = Vec::new();

    // Set-up, timed part by part.
    let mut parts = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let mut p = SetupParts::default();
        let (lut, grads) = build_luts(w, &mut p, &mut tracer);
        let data = generate_data(seed, &mut p, &mut tracer);
        let trainer = Trainer::new(w.model, seed, &data, &lut, &grads, &mut p, &mut tracer);
        parts.push(p);
        built = Some((lut, grads, data, trainer));
    }
    let (lut, grads, data, mut trainer) = built.expect("at least one set-up");
    let part = |f: fn(&SetupParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());

    // Step split and tracing overhead: untraced and traced steps alternate.
    let sink = ObsSink::recording();
    let null = ObsSink::null();
    let mut step = 0u64;
    let _ = trainer.step(step, &mut off); // warm-up
    step += 1;
    let (mut plain, mut traced): (Vec<StepTimes>, Vec<StepTimes>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < 0.4 * seconds {
        plain.push(trainer.step(step, &mut off));
        appmult_obs::set_global(&sink);
        traced.push(trainer.step(step + 1, &mut tracer));
        appmult_obs::set_global(&null);
        step += 2;
    }
    attempted += step;
    failed += plain
        .iter()
        .chain(&traced)
        .filter(|s| !s.loss.is_finite())
        .count() as u64;
    let steps = traced.len() as u64;
    let split = |f: fn(&StepTimes) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let overhead_pct =
        (split(|s| s.total) / median(&plain.iter().map(|s| s.total).collect::<Vec<_>>()) - 1.0)
            * 100.0;
    let per_step = |name: &str| sink.counter(name) as f64 / steps as f64;
    let (lut_lookups, gradlut_lookups) = (per_step("lut.lookups"), per_step("gradlut.lookups"));
    let dispatches = pool_dispatches(&sink) as f64 / steps as f64;
    drop(trainer);

    // The benchmark's copy of the conv layout must account for exactly the
    // lookups the real model counted.
    let instances = conv_instances(w.model);
    let macs = forward_macs(&instances, BATCH) as f64;
    attempted += 1;
    if macs != lut_lookups || 2.0 * macs != gradlut_lookups {
        failed += 1;
        eprintln!(
            "replayed MACs {macs} (x2 = {}) differ from counted lut.lookups {lut_lookups} / gradlut.lookups {gradlut_lookups} per step",
            2.0 * macs
        );
    }
    notes.push(format!(
        "{} conv instances; replayed MACs per forward {macs} vs lut.lookups per step {lut_lookups}, gradlut.lookups {gradlut_lookups}",
        instances.len()
    ));
    let bytes: u64 = instances
        .iter()
        .map(|c| {
            let (m, j, k) = c.gemm_dims(BATCH);
            gemm_bytes(m, j, k)
        })
        .sum();

    // Per-layer replay, all four configurations per round.
    let ops: Vec<Operands> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| Operands::new(inst, BATCH, seed ^ (0xC0_u64 + i as u64)))
        .collect();
    let cfgs = configs();
    let mut rounds: Vec<[PhaseMs; 4]> = Vec::new();
    let mut layer_ms: Vec<(f64, f64)> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < 0.3 * seconds {
        let mut round = [PhaseMs::default(); 4];
        let (mut fwd, mut bwd) = (0.0, 0.0);
        for op in &ops {
            let name = &op.inst.name;
            let (f, b, want) = layer_pass(op, &lut, &grads, name, &mut tracer);
            fwd += f;
            bwd += b;
            for ((kernel, pool, label), sum) in cfgs.iter().zip(round.iter_mut()) {
                let (ms, got): (PhaseMs, OutputDigests) = replay(
                    op,
                    &lut,
                    &grads,
                    *kernel,
                    *pool,
                    &format!("{label}{name}"),
                    &mut tracer,
                );
                attempted += 1;
                if got != want {
                    failed += 1;
                    eprintln!("{label}{name}: replay output differs from ApproxConv2d");
                }
                sum.im2col += ms.im2col;
                sum.quantize += ms.quantize;
                sum.gemm += ms.gemm;
                sum.dx += ms.dx;
                sum.dw += ms.dw;
                sum.col2im += ms.col2im;
            }
        }
        rounds.push(round);
        layer_ms.push((fwd, bwd));
    }
    let phase = |c: usize, f: fn(&PhaseMs) -> f64| {
        median(&rounds.iter().map(|r| f(&r[c])).collect::<Vec<_>>())
    };
    let kernels_ms = |c: usize| phase(c, |p| p.gemm + p.dx + p.dw);
    let (fwd_ms, dx_ms, dw_ms) = (phase(0, |p| p.gemm), phase(0, |p| p.dx), phase(0, |p| p.dw));
    let gmacs = |ms: f64| macs / (ms * 1e6);
    notes.push(format!("{} replay rounds x 4 configurations", rounds.len()));

    // Fork/join cost of one trivial dispatch at the default thread count.
    let pool = Pool::global();
    let mut buf = vec![0u8; pool.threads()];
    let dispatch_us: Vec<f64> = (0..DISPATCH_PROBES)
        .map(|_| {
            let t = Instant::now();
            pool.run_rows(&mut buf, 1, |i, row| row[0] = i as u8);
            let end = Instant::now();
            tracer.record("pool/Pool::run_rows", t, end, None, None);
            (end - t).as_secs_f64() * 1e6
        })
        .collect();

    // Serving probe of the same model.
    let mut p = SetupParts::default();
    let server = Server::start(
        w,
        seed,
        &data,
        &lut,
        &grads,
        PROBE_REQUESTS,
        &mut p,
        &mut tracer,
    );
    let b1: Vec<f64> = (0..FORWARD_PROBES)
        .map(|_| server.forward_ms(1, &mut tracer))
        .collect();
    let b16: Vec<f64> = (0..FORWARD_PROBES)
        .map(|_| server.forward_ms(16, &mut tracer))
        .collect();
    let probe = server.drive(Duration::from_secs_f64(0.1 * seconds), &mut tracer);
    let warmup_ms = server.warmup_ms;
    server.shutdown();
    attempted += probe.attempted as u64;
    failed += probe.failed as u64;

    // Per-instance, per-phase self time of the layer's own configuration.
    let self_times = tracer.self_times();
    let prefix = format!("{}/", w.model.label());
    let layer_rows: BTreeMap<&String, f64> = self_times
        .iter()
        .filter(|(name, _)| name.starts_with(&prefix) || name.starts_with("step"))
        .map(|(name, t)| (name, t.mean_ms()))
        .collect();
    notes.push("self time per call, ms (tiled kernel, default threads):".to_string());
    for (name, ms) in layer_rows {
        notes.push(format!("  {name:<48} {ms:>10.4}"));
    }
    let path = Path::new("perfbench/out").join(format!("trace-{}-{seed}.jsonl", w.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written ({e})")),
    }

    Report {
        attempted,
        failed,
        metrics: vec![
            ("step.forward_ms", split(|s| s.forward), "ms"),
            ("step.backward_ms", split(|s| s.backward), "ms"),
            ("step.loss_ms", split(|s| s.loss_ms), "ms"),
            ("step.optim_ms", split(|s| s.optim), "ms"),
            ("kernels.forward_ms", fwd_ms, "ms"),
            ("kernels.forward_gmacs", gmacs(fwd_ms), "GMAC/s"),
            (
                "kernels.forward_vs_naive",
                phase(3, |p| p.gemm) / phase(2, |p| p.gemm),
                "x",
            ),
            ("kernels.dx_ms", dx_ms, "ms"),
            ("kernels.dw_ms", dw_ms, "ms"),
            ("kernels.dx_gmacs", gmacs(dx_ms), "GMAC/s"),
            ("kernels.dw_gmacs", gmacs(dw_ms), "GMAC/s"),
            (
                "kernels.dx_vs_naive",
                phase(3, |p| p.dx) / phase(2, |p| p.dx),
                "x",
            ),
            (
                "kernels.dw_vs_naive",
                phase(3, |p| p.dw) / phase(2, |p| p.dw),
                "x",
            ),
            ("kernels.macs_per_step", 3.0 * macs, "count"),
            ("kernels.computed_mbytes_per_step", bytes as f64 / 1e6, "MB"),
            ("kernels.lut_lookups", lut_lookups, "count"),
            ("kernels.gradlut_lookups", gradlut_lookups, "count"),
            ("kernels.tiles", per_step("kernel.tiles"), "count"),
            (
                "core.conv_forward_ms",
                median(&layer_ms.iter().map(|l| l.0).collect::<Vec<_>>()),
                "ms",
            ),
            (
                "core.conv_backward_ms",
                median(&layer_ms.iter().map(|l| l.1).collect::<Vec<_>>()),
                "ms",
            ),
            ("core.quantize_ms", phase(0, |p| p.quantize), "ms"),
            ("nn.im2col_ms", phase(0, |p| p.im2col), "ms"),
            ("nn.col2im_ms", phase(0, |p| p.col2im), "ms"),
            ("pool.dispatch_us", median(&dispatch_us), "us"),
            ("pool.parallel_speedup", kernels_ms(2) / kernels_ms(0), "x"),
            ("pool.dispatches", dispatches, "count"),
            ("mult.lut_build_ms", part(|p| p.lut_build), "ms"),
            ("core.gradlut_build_ms", part(|p| p.gradlut_build), "ms"),
            ("data.generate_ms", part(|p| p.data_generate), "ms"),
            ("models.build_ms", part(|p| p.model_build), "ms"),
            ("serve.warmup_ms", warmup_ms, "ms"),
            ("serve.forward_b1_ms", median(&b1), "ms"),
            ("serve.forward_b16_ms", median(&b16), "ms"),
            (
                "serve.queue_depth_mean",
                mean(&probe.depth_samples),
                "count",
            ),
            ("obs.trace_overhead_pct", overhead_pct, "%"),
        ],
        notes,
    }
}
