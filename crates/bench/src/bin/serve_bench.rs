//! Open-loop serving benchmark for `appmult-serve` — the CI overload and
//! fairness gate.
//!
//! Thin CLI wrapper over [`appmult_bench::serve_driver::run_serve_bench`]:
//! estimates engine capacity, then drives `steady` / `overload` /
//! `recovery` / `multimodel` phases and writes `results/BENCH_serve.json`
//! with per-phase outcome counts, per-phase latency budgets and the
//! multi-model fairness accounting.
//!
//! Flags: `--duration-ms N` (per phase, default 250), `--overload-x F`
//! (default 2.5), `--chaos N` (panic every Nth batch, 0 disables, default
//! 7), `--assert-overload` (shed under overload + panic recovery must
//! hold), `--assert-fairness` (every model's multimodel throughput share
//! must stay at or above half its fair share and per-phase ok-p99 must fit
//! the SLO budget).

use appmult_bench::serve_driver::{run_serve_bench, ServeBenchOptions};
use appmult_bench::Args;

fn main() {
    let opts = ServeBenchOptions::from_args(&Args::from_env(
        "duration-ms overload-x chaos",
        "assert-overload assert-fairness",
    ));
    let report = run_serve_bench(&opts);
    println!(
        "serve_bench done: served {}/{} (shed {}, lost {}), capacity {:.0} req/s, \
         multimodel min share {:.3} (bound {:.3})",
        report.served,
        report.submitted,
        report.shed,
        report.lost,
        report.capacity_rps,
        report.min_share,
        report.share_bound,
    );
}
