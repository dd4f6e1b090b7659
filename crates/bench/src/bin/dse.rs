//! `dse`: closed-loop multiplier design-space exploration.
//!
//! Seeds a μ+λ evolutionary search with the zoo's gate-level designs of
//! the requested width, mutates netlists (gate substitution, fanin
//! rewire, const-tie, cone deletion), validates every candidate with the
//! `appmult-verify` analysis oracle, and selects on the three-axis
//! (hardware, error, gradient-proxy) Pareto rank. Prints the frontier
//! summary, writes `results/DSE.json` (`appmult-dse/v1`), and exits:
//!
//! - `0` on a nonzero frontier,
//! - `1` when the frontier is empty (search degenerated),
//! - `2` when `--require-dominance` is given and no frontier design
//!   strictly dominates a seed zoo design on (delay, NMED).
//!
//! ```text
//! cargo run --release -p appmult-bench --bin dse -- \
//!     [--bits 6] [--seed 1] [--mu 8] [--lambda 24] [--generations 10] \
//!     [--max-mutations 2] [--include-syn] [--rung] \
//!     [--frontier-out PATH] [--require-dominance]
//! ```
//!
//! `--frontier-out` additionally writes the frontier-only document that
//! must be byte-identical across thread counts for a fixed seed — the
//! artifact the CI determinism check compares.

use std::process::ExitCode;

use appmult_bench::dse_driver::{run_dse_bench, DseBenchConfig};
use appmult_bench::{write_results, Args};

fn main() -> ExitCode {
    let args = Args::from_env(
        "seed bits mu lambda generations max-mutations frontier-out",
        "include-syn rung require-dominance",
    );
    let mut cfg = DseBenchConfig::smoke(args.get_or("seed", 1u64));
    cfg.bits = args.get_or("bits", cfg.bits);
    cfg.mu = args.get_or("mu", cfg.mu);
    cfg.lambda = args.get_or("lambda", cfg.lambda);
    cfg.generations = args.get_or("generations", cfg.generations);
    cfg.max_mutations = args.get_or("max-mutations", cfg.max_mutations);
    cfg.include_syn = args.flag("include-syn");
    cfg.rung = args.flag("rung");

    let outcome = run_dse_bench(&cfg);

    println!(
        "# DSE: {}-bit, seed {}, mu {}, lambda {}, {} generations\n",
        cfg.bits, cfg.seed, cfg.mu, cfg.lambda, cfg.generations
    );
    println!("{}", outcome.summary);
    println!(
        "evaluated {} candidates ({} invalid, discarded); frontier size {}; {} design(s) dominate a zoo baseline",
        outcome.result.evaluated,
        outcome.result.invalid,
        outcome.result.frontier.len(),
        outcome.dominating_designs()
    );
    for baseline in &outcome.baselines {
        println!(
            "baseline {}: delay {:.1} ps, nmed {:.4}%",
            baseline.name,
            baseline.delay_ps,
            baseline.nmed * 100.0
        );
    }

    let path = write_results("DSE.json", &outcome.json);
    println!("wrote {}", path.display());
    if let Some(out) = args.value("frontier-out") {
        std::fs::write(out, &outcome.frontier_json).expect("write frontier file");
        println!("wrote {out}");
    }

    if outcome.result.frontier.is_empty() {
        eprintln!("error: empty Pareto frontier");
        return ExitCode::from(1);
    }
    if args.flag("require-dominance") && outcome.dominating_designs() == 0 {
        eprintln!("error: no frontier design dominates a seed zoo design on (delay, NMED)");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
