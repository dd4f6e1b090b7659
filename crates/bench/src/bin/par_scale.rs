//! `par_scale` — serial-vs-parallel throughput of the LUT kernels.
//!
//! Times the four parallelized hot paths — conv GEMM forward, conv GEMM
//! backward, gradient-LUT build, and exhaustive truth-table extraction —
//! once pinned to a single thread and once at the requested thread count,
//! and checks that every parallel result is bit-identical to the serial
//! one (the partitioning is over disjoint output rows, so it must be).
//!
//! Emits `results/BENCH_par.json` plus a console table. On a single-core
//! host the speedup hovers around 1.0x (the pool degrades to the serial
//! path); the bit-identity columns still exercise the full machinery.
//!
//! Flags: `--threads N` (default: `APPMULT_THREADS` or the host
//! parallelism, min 4), `--reps N` best-of repetitions (default 5),
//! `--assert-overhead PCT` to fail if the observability overhead of any
//! kernel exceeds `PCT` percent (used by the `obs-overhead` CI job), and
//! `--assert-small-shape` to fail if the parallel path is slower than
//! serial on the smallest swept shape (the pool's work-size floor must
//! degrade it to the serial path).
//!
//! Besides the serial-vs-parallel scaling table, the binary measures the
//! cost of the observability layer on the instrumented kernels: once with
//! the default null sink ("off" — the production configuration, whose
//! instrumentation is a handful of branches) and once with a recording
//! sink installed process-wide ("on"). Both are reported in
//! `results/BENCH_par.json` under `"obs"`.
//!
//! Finally, the binary sweeps the `appmult-kernels` engine — naive vs
//! tiled forward and `dW` — over the LeNet conv2-shaped GEMM (M=512,
//! J=16, K=150) at 1 and 8 worker threads, interleaving reps and asserting
//! naive/tiled bit-identity in the same run. `backward_dx` runs one loop
//! under every kernel, so it has no row. Results land in
//! `results/BENCH_kernels.json`; `--assert-kernel-speedup X` fails the run
//! if the tiled forward speedup drops below `X` at any thread count (the
//! `kernel-parity` CI job uses this).

use std::sync::Arc;
use std::time::Instant;

use appmult_bench::{markdown_table, write_results, Args};
use appmult_circuit::{ExhaustiveTable, MultiplierCircuit};
use appmult_kernels::{backward_dw, forward_acc, GemmShape, Kernel};
use appmult_mult::{Multiplier, TruncatedMultiplier};
use appmult_nn::{Module, Tensor};
use appmult_obs::json::{self, Layout};
use appmult_pool::{set_global_threads, Pool};
use appmult_retrain::{ApproxConv2d, GradientLut, GradientMode, QuantConfig};
use appmult_rng::Rng64;

struct BenchRow {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    identical: bool,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }
}

struct ObsRow {
    name: String,
    off_ms: f64,
    on_ms: f64,
}

struct KernelRow {
    op: &'static str,
    threads: usize,
    naive_ms: f64,
    tiled_ms: f64,
    identical: bool,
    macs: usize,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.tiled_ms
    }

    /// Giga-MACs per second at the given wall time.
    fn gmacs(&self, ms: f64) -> f64 {
        self.macs as f64 / ms / 1e6
    }
}

impl ObsRow {
    /// Observability cost in percent (negative values are timing noise).
    fn overhead_pct(&self) -> f64 {
        (self.on_ms - self.off_ms) / self.off_ms * 100.0
    }
}

/// Best-of-`reps` wall-clock milliseconds of `f`.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let len = shape.iter().product();
    let mut rng = Rng64::seed_from_u64(seed);
    let data = (0..len).map(|_| rng.uniform_f32(-1.5, 1.5)).collect();
    Tensor::from_vec(data, shape)
}

/// A `{:.4}` number, the precision of every timing in both reports.
fn fixed4(v: f64) -> String {
    format!("{v:.4}")
}

/// Renders `BENCH_kernels.json`: the swept GEMM shape (`m` batch rows) and
/// one row per (op, threads) pair.
fn kernels_json(
    m: usize,
    shape: GemmShape,
    tiled: &str,
    reps: usize,
    rows: &[KernelRow],
) -> String {
    json::document(|w| {
        w.key("shape").object(Layout::Inline, |w| {
            w.key("m").raw(m);
            w.key("j").raw(shape.j);
            w.key("k").raw(shape.k);
            w.key("bits").raw(shape.bits);
        });
        w.key("tiled").str(tiled);
        w.key("reps").raw(reps);
        w.key("rows").array(Layout::Pretty, |w| {
            for r in rows {
                w.object(Layout::Inline, |w| {
                    w.key("op").str(r.op);
                    w.key("threads").raw(r.threads);
                    w.key("naive_ms").raw(fixed4(r.naive_ms));
                    w.key("tiled_ms").raw(fixed4(r.tiled_ms));
                    w.key("speedup").raw(fixed4(r.speedup()));
                    w.key("naive_gmacs").raw(fixed4(r.gmacs(r.naive_ms)));
                    w.key("tiled_gmacs").raw(fixed4(r.gmacs(r.tiled_ms)));
                    w.key("identical").raw(r.identical);
                });
            }
        });
    })
}

/// Renders `BENCH_par.json`: the run shape, the serial-vs-parallel rows,
/// the observability on/off rows, and the null-sink cost (`ns_per_op` per
/// call, `null_pct` of one serial conv forward).
fn par_json(
    (threads, host, reps): (usize, usize, usize),
    rows: &[BenchRow],
    obs_rows: &[ObsRow],
    ns_per_op: f64,
    null_pct: f64,
) -> String {
    json::document(|w| {
        w.key("threads").raw(threads);
        w.key("host_parallelism").raw(host);
        w.key("reps").raw(reps);
        w.key("benches").array(Layout::Pretty, |w| {
            for r in rows {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(r.name);
                    w.key("serial_ms").raw(fixed4(r.serial_ms));
                    w.key("parallel_ms").raw(fixed4(r.parallel_ms));
                    w.key("speedup").raw(fixed4(r.speedup()));
                    w.key("identical").raw(r.identical);
                });
            }
        });
        w.key("obs").array(Layout::Pretty, |w| {
            for r in obs_rows {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(&r.name);
                    w.key("off_ms").raw(fixed4(r.off_ms));
                    w.key("on_ms").raw(fixed4(r.on_ms));
                    w.key("overhead_pct").raw(fixed4(r.overhead_pct()));
                });
            }
        });
        w.key("null_sink").object(Layout::Inline, |w| {
            w.key("ns_per_op").raw(fixed4(ns_per_op));
            w.key("pct_of_conv_forward")
                .raw(format_args!("{null_pct:.6}"));
        });
    })
}

fn main() {
    let args = Args::from_env(
        "threads reps assert-overhead assert-kernel-speedup",
        "assert-small-shape",
    );
    let threads = args.get_or("threads", Pool::global().threads().max(4));
    let reps = args.get_or("reps", 5usize);
    let overhead_limit: Option<f64> = args.get("assert-overhead");
    let min_kernel_speedup: Option<f64> = args.get("assert-kernel-speedup");
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("par_scale: {threads} threads vs serial, best of {reps} (host parallelism {host})");

    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    let mode = GradientMode::difference_based(8);
    let grads = Arc::new(GradientLut::build_with_pool(
        &lut,
        mode.clone(),
        Pool::serial(),
    ));
    let make_conv = || {
        ApproxConv2d::new(
            8,
            16,
            3,
            1,
            1,
            7,
            lut.clone(),
            grads.clone(),
            QuantConfig::default(),
        )
    };
    let input = random_tensor(&[4, 8, 12, 12], 0xC0FFEE);
    let grad_out = random_tensor(&[4, 16, 12, 12], 0xF00D);
    let mut rows = Vec::new();

    // Conv forward/backward go through Pool::global() inside the layer, so
    // the serial/parallel toggle is the global thread override.
    {
        set_global_threads(1);
        let mut conv = make_conv();
        let serial_out = conv.forward(&input, true);
        let mut conv_s = make_conv();
        let serial_ms = best_ms(reps, || {
            let _ = conv_s.forward(&input, true);
        });

        set_global_threads(threads);
        let mut conv = make_conv();
        let parallel_out = conv.forward(&input, true);
        let mut conv_p = make_conv();
        let parallel_ms = best_ms(reps, || {
            let _ = conv_p.forward(&input, true);
        });
        rows.push(BenchRow {
            name: "conv_forward",
            serial_ms,
            parallel_ms,
            identical: bits_of(&serial_out) == bits_of(&parallel_out),
        });
    }
    {
        set_global_threads(1);
        let mut conv = make_conv();
        let _ = conv.forward(&input, true);
        let serial_dx = conv.backward(&grad_out);
        let serial_ms = best_ms(reps, || {
            let _ = conv.backward(&grad_out);
        });

        set_global_threads(threads);
        let mut conv = make_conv();
        let _ = conv.forward(&input, true);
        let parallel_dx = conv.backward(&grad_out);
        let parallel_ms = best_ms(reps, || {
            let _ = conv.backward(&grad_out);
        });
        rows.push(BenchRow {
            name: "conv_backward",
            serial_ms,
            parallel_ms,
            identical: bits_of(&serial_dx) == bits_of(&parallel_dx),
        });
    }
    // Small-shape sweep: a single-sample conv whose GEMMs sit far below
    // the pool's work-size floor, so the "parallel" path must degrade to
    // the serial one instead of paying fork/join overhead on microsecond
    // kernels. `--assert-small-shape` gates on it (the `kernel-parity` CI
    // job uses this): parallel must not be slower than serial beyond
    // timing noise.
    {
        let small_input = random_tensor(&[1, 8, 4, 4], 0x5A11);
        let small_reps = reps.max(25);

        set_global_threads(1);
        let mut conv = make_conv();
        let serial_out = conv.forward(&small_input, true);
        let serial_ms = best_ms(small_reps, || {
            let _ = conv.forward(&small_input, true);
        });

        set_global_threads(threads);
        let mut conv = make_conv();
        let parallel_out = conv.forward(&small_input, true);
        let parallel_ms = best_ms(small_reps, || {
            let _ = conv.forward(&small_input, true);
        });
        rows.push(BenchRow {
            name: "conv_forward_small",
            serial_ms,
            parallel_ms,
            identical: bits_of(&serial_out) == bits_of(&parallel_out),
        });
    }
    set_global_threads(0); // drop the override for anything downstream

    // LUT builds take the pool explicitly.
    {
        let serial = GradientLut::build_with_pool(&lut, mode.clone(), Pool::serial());
        let parallel = GradientLut::build_with_pool(&lut, mode.clone(), Pool::new(threads));
        let serial_ms = best_ms(reps, || {
            let _ = GradientLut::build_with_pool(&lut, mode.clone(), Pool::serial());
        });
        let parallel_ms = best_ms(reps, || {
            let _ = GradientLut::build_with_pool(&lut, mode.clone(), Pool::new(threads));
        });
        let identical = (0..1u32 << 16).all(|i| {
            let (w, x) = (i >> 8, i & 0xFF);
            serial.wrt_w(w, x).to_bits() == parallel.wrt_w(w, x).to_bits()
                && serial.wrt_x(w, x).to_bits() == parallel.wrt_x(w, x).to_bits()
        });
        rows.push(BenchRow {
            name: "gradient_lut_build",
            serial_ms,
            parallel_ms,
            identical,
        });
    }
    {
        let mult = MultiplierCircuit::array(8);
        let nl = mult.netlist();
        let serial = ExhaustiveTable::build_in(nl, Pool::serial());
        let parallel = ExhaustiveTable::build_in(nl, Pool::new(threads));
        let serial_ms = best_ms(reps, || {
            let _ = ExhaustiveTable::build_in(nl, Pool::serial());
        });
        let parallel_ms = best_ms(reps, || {
            let _ = ExhaustiveTable::build_in(nl, Pool::new(threads));
        });
        rows.push(BenchRow {
            name: "exhaustive_table",
            serial_ms,
            parallel_ms,
            identical: serial == parallel,
        });
    }

    // Observability overhead: the same conv kernels with the default null
    // sink vs a recording sink installed process-wide, at one thread and at
    // the benchmark thread count. Off/on timings are interleaved rep by rep
    // (best-of per mode) so scheduler and thermal drift hit both modes
    // equally. The floor is generous because the CI gate rides on the min:
    // on a busy single-core runner a 15-rep min can still catch a
    // descheduling spike on one side only.
    let obs_reps = reps.max(25);
    let mut obs_rows = Vec::new();
    for (label, t) in [("serial", 1usize), ("parallel", threads)] {
        set_global_threads(t);
        let mut conv = make_conv();
        let _ = conv.forward(&input, true); // warm caches + observer
        let recording = appmult_obs::ObsSink::recording();

        let (mut fwd_off, mut fwd_on) = (f64::INFINITY, f64::INFINITY);
        let (mut bwd_off, mut bwd_on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..obs_reps {
            appmult_obs::set_global(&appmult_obs::ObsSink::null());
            fwd_off = fwd_off.min(best_ms(1, || {
                let _ = conv.forward(&input, true);
            }));
            bwd_off = bwd_off.min(best_ms(1, || {
                let _ = conv.backward(&grad_out);
            }));
            appmult_obs::set_global(&recording);
            fwd_on = fwd_on.min(best_ms(1, || {
                let _ = conv.forward(&input, true);
            }));
            bwd_on = bwd_on.min(best_ms(1, || {
                let _ = conv.backward(&grad_out);
            }));
        }
        appmult_obs::set_global(&appmult_obs::ObsSink::null());

        obs_rows.push(ObsRow {
            name: format!("conv_forward_{label}"),
            off_ms: fwd_off,
            on_ms: fwd_on,
        });
        obs_rows.push(ObsRow {
            name: format!("conv_backward_{label}"),
            off_ms: bwd_off,
            on_ms: bwd_on,
        });
    }
    set_global_threads(0);

    // ---- Kernel engine sweep: naive vs tiled on the LeNet-shaped GEMM ----
    //
    // Raw chunk-level kernels through the worker pool, exactly as the
    // layers drive them, on a LeNet conv2-shaped case (J = 16 output
    // channels, K = 150 = 6x5x5 patch, M = 512 batch rows). Naive and
    // tiled reps are interleaved so scheduler noise hits both kernels
    // equally, and bit-identity is asserted on the outputs of the same
    // run. Backward buffers are re-zeroed inside the timed region (the
    // kernels accumulate), which costs both kernels the same memset.
    let kshape = GemmShape {
        j: 16,
        k: 150,
        bits: lut.bits(),
    };
    let km = 512usize;
    let (kj, kk) = (kshape.j, kshape.k);
    let kmacs = km * kj * kk;
    let mut krng = Rng64::seed_from_u64(0x7E57);
    let codes = 1u64 << kshape.bits;
    let kwq: Vec<u16> = (0..kj * kk).map(|_| krng.below(codes) as u16).collect();
    let kxq: Vec<u16> = (0..km * kk).map(|_| krng.below(codes) as u16).collect();
    let kg: Vec<f32> = (0..km * kj).map(|_| krng.uniform_f32(-1.0, 1.0)).collect();
    let ktable = lut.entries();
    let kgw = grads.wrt_w_table().as_slice();
    let tiled = Kernel::Tiled;
    let kreps = reps.max(9);
    let mut kernel_rows = Vec::new();
    for t in [1usize, 8] {
        let pool = Pool::new(t);
        let time_fwd = |kernel: Kernel, acc: &mut Vec<i64>| {
            best_ms(kreps, || {
                pool.run_rows(acc, kj, |mi0, chunk| {
                    let rows = chunk.len() / kj;
                    forward_acc(
                        kernel,
                        kshape,
                        ktable,
                        &kwq,
                        &kxq[mi0 * kk..(mi0 + rows) * kk],
                        chunk,
                    );
                });
            })
        };
        let time_dw = |kernel: Kernel, dw: &mut Vec<f32>| {
            best_ms(kreps, || {
                dw.fill(0.0);
                pool.run_rows(dw, kk, |ji0, chunk| {
                    let rows = chunk.len() / kk;
                    backward_dw(
                        kernel,
                        kshape,
                        kgw,
                        &kwq[ji0 * kk..(ji0 + rows) * kk],
                        ji0,
                        &kxq,
                        &kg,
                        0.59,
                        2.0,
                        chunk,
                    );
                });
            })
        };

        // Interleave: one naive best-of rep block, one tiled, alternating
        // per op. best_ms takes the min, so alternating whole blocks at
        // kreps >= 9 keeps both kernels exposed to the same noise window.
        let (mut acc_n, mut acc_t) = (vec![0i64; km * kj], vec![0i64; km * kj]);
        let (mut fwd_n, mut fwd_t) = (f64::INFINITY, f64::INFINITY);
        let (mut dw_n, mut dw_t) = (vec![0.0f32; kj * kk], vec![0.0f32; kj * kk]);
        let (mut dwms_n, mut dwms_t) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            fwd_n = fwd_n.min(time_fwd(Kernel::Naive, &mut acc_n));
            fwd_t = fwd_t.min(time_fwd(tiled, &mut acc_t));
            dwms_n = dwms_n.min(time_dw(Kernel::Naive, &mut dw_n));
            dwms_t = dwms_t.min(time_dw(tiled, &mut dw_t));
        }
        let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        kernel_rows.push(KernelRow {
            op: "forward",
            threads: t,
            naive_ms: fwd_n,
            tiled_ms: fwd_t,
            identical: acc_n == acc_t,
            macs: kmacs,
        });
        kernel_rows.push(KernelRow {
            op: "backward_dw",
            threads: t,
            naive_ms: dwms_n,
            tiled_ms: dwms_t,
            identical: f32_bits(&dw_n) == f32_bits(&dw_t),
            macs: kmacs,
        });
    }

    // The null sink itself, measured directly: the disabled fast path is a
    // relaxed atomic load plus an `Option` branch per instrumentation
    // point. Projected against the serial forward kernel this must stay
    // far under 2%; it is asserted unconditionally since the measurement
    // is deterministic to first order.
    let null_ops = 1_000_000u64;
    let null_ms = best_ms(reps, || {
        for _ in 0..null_ops {
            let obs = appmult_obs::global();
            obs.counter_add("x", 1);
            let _g = obs.span("y");
        }
    });
    let ns_per_op = null_ms * 1e6 / null_ops as f64;
    // Instrumentation points per conv forward: the layer span, the GEMM
    // span, the lookup counter, and one pool span per worker.
    let ops_per_forward = (3 + threads) as f64;
    let fwd_serial_ms = obs_rows
        .iter()
        .find(|r| r.name == "conv_forward_serial")
        .map_or(1.0, |r| r.off_ms);
    let null_pct = ops_per_forward * ns_per_op / (fwd_serial_ms * 1e6) * 100.0;
    println!(
        "null sink: {ns_per_op:.1} ns per disabled instrumentation point \
         ({null_pct:.4}% of conv_forward)"
    );
    assert!(
        null_pct < 2.0,
        "null-sink overhead {null_pct:.4}% must be far below 2%"
    );

    let table = markdown_table(
        &[
            "kernel",
            "serial ms",
            "parallel ms",
            "speedup",
            "bit-identical",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    format!("{:.3}", r.serial_ms),
                    format!("{:.3}", r.parallel_ms),
                    format!("{:.2}x", r.speedup()),
                    r.identical.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\n{table}");

    let obs_table = markdown_table(
        &["kernel", "obs off ms", "obs on ms", "overhead %"],
        &obs_rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.3}", r.off_ms),
                    format!("{:.3}", r.on_ms),
                    format!("{:+.2}", r.overhead_pct()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{obs_table}");

    let kernel_table = markdown_table(
        &[
            "op",
            "threads",
            "naive ms",
            "tiled ms",
            "speedup",
            "naive GMAC/s",
            "tiled GMAC/s",
            "bit-identical",
        ],
        &kernel_rows
            .iter()
            .map(|r| {
                vec![
                    r.op.to_string(),
                    r.threads.to_string(),
                    format!("{:.3}", r.naive_ms),
                    format!("{:.3}", r.tiled_ms),
                    format!("{:.2}x", r.speedup()),
                    format!("{:.3}", r.gmacs(r.naive_ms)),
                    format!("{:.3}", r.gmacs(r.tiled_ms)),
                    r.identical.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "kernel sweep ({} vs naive, M=512 J=16 K=150):",
        tiled.label()
    );
    println!("{kernel_table}");

    let kernels_json = kernels_json(km, kshape, &tiled.label(), kreps, &kernel_rows);
    let kpath = write_results("BENCH_kernels.json", &kernels_json);
    println!("wrote {}", kpath.display());

    let json = par_json((threads, host, reps), &rows, &obs_rows, ns_per_op, null_pct);
    let path = write_results("BENCH_par.json", &json);
    println!("wrote {}", path.display());

    assert!(
        rows.iter().all(|r| r.identical),
        "parallel kernels must be bit-identical"
    );
    assert!(
        kernel_rows.iter().all(|r| r.identical),
        "tiled kernels must be bit-identical to naive"
    );
    if let Some(min_speedup) = min_kernel_speedup {
        for r in kernel_rows.iter().filter(|r| r.op == "forward") {
            assert!(
                r.speedup() >= min_speedup,
                "forward kernel speedup {:.2}x at {} threads below the {min_speedup}x floor",
                r.speedup(),
                r.threads
            );
        }
        println!("forward kernel speedup meets the {min_speedup}x floor");
    }
    if args.flag("assert-small-shape") {
        let small = rows
            .iter()
            .find(|r| r.name == "conv_forward_small")
            .expect("small-shape row present");
        // With the work-size floor both paths run serially, so the only
        // allowed gap is best-of-N timing noise.
        assert!(
            small.speedup() >= 0.85,
            "small-shape parallel path {:.3} ms is slower than serial {:.3} ms \
             ({:.2}x): the work-size floor is not engaging",
            small.parallel_ms,
            small.serial_ms,
            small.speedup()
        );
        println!(
            "small-shape floor holds: {:.2}x (parallel {:.3} ms vs serial {:.3} ms)",
            small.speedup(),
            small.parallel_ms,
            small.serial_ms
        );
    }
    if let Some(limit) = overhead_limit {
        for r in &obs_rows {
            assert!(
                r.overhead_pct() < limit,
                "{}: observability overhead {:.2}% exceeds the {limit}% budget",
                r.name,
                r.overhead_pct()
            );
        }
        println!("observability overhead within the {limit}% budget");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_layout_is_locked_on_fixed_rows() {
        let row = |op, threads, naive_ms, tiled_ms| KernelRow {
            op,
            threads,
            naive_ms,
            tiled_ms,
            identical: true,
            macs: 1_228_800,
        };
        let json = kernels_json(
            512,
            GemmShape {
                j: 16,
                k: 150,
                bits: 8,
            },
            "tiled-64x16x64",
            9,
            &[row("forward", 1, 2.0, 1.0), row("dx", 8, 1.5, 1.6)],
        );
        let expected = r#"{
  "shape": {"m": 512, "j": 16, "k": 150, "bits": 8},
  "tiled": "tiled-64x16x64",
  "reps": 9,
  "rows": [
    {"op": "forward", "threads": 1, "naive_ms": 2.0000, "tiled_ms": 1.0000, "speedup": 2.0000, "naive_gmacs": 0.6144, "tiled_gmacs": 1.2288, "identical": true},
    {"op": "dx", "threads": 8, "naive_ms": 1.5000, "tiled_ms": 1.6000, "speedup": 0.9375, "naive_gmacs": 0.8192, "tiled_gmacs": 0.7680, "identical": true}
  ]
}
"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn par_layout_is_locked_on_fixed_rows() {
        let json = par_json(
            (4, 2, 5),
            &[BenchRow {
                name: "conv_forward",
                serial_ms: 3.0,
                parallel_ms: 2.0,
                identical: true,
            }],
            &[
                ObsRow {
                    name: "gemm_forward".to_string(),
                    off_ms: 1.0,
                    on_ms: 1.05,
                },
                ObsRow {
                    name: "gemm_backward".to_string(),
                    off_ms: 2.0,
                    on_ms: 1.9,
                },
            ],
            0.123_456,
            0.000_012_345,
        );
        let expected = r#"{
  "threads": 4,
  "host_parallelism": 2,
  "reps": 5,
  "benches": [
    {"name": "conv_forward", "serial_ms": 3.0000, "parallel_ms": 2.0000, "speedup": 1.5000, "identical": true}
  ],
  "obs": [
    {"name": "gemm_forward", "off_ms": 1.0000, "on_ms": 1.0500, "overhead_pct": 5.0000},
    {"name": "gemm_backward", "off_ms": 2.0000, "on_ms": 1.9000, "overhead_pct": -5.0000}
  ],
  "null_sink": {"ns_per_op": 0.1235, "pct_of_conv_forward": 0.000012}
}
"#;
        assert_eq!(json, expected);
    }
}
