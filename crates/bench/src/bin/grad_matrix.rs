//! `grad_matrix`: the gradient-estimator matrix sweep.
//!
//! Retrains one shared pretrained LeNet under every
//! (estimator × multiplier × unsigned/signed) cell of the
//! journal-extension estimator family, prints the accuracy matrix,
//! writes `results/GRAD_MATRIX.json` (`appmult-gradmatrix/v1`), and
//! exits:
//!
//! - `0` on success,
//! - `2` on a usage error (including `--hws 0` or `--lsq-window 0`,
//!   rejected before pretraining), or when `--assert-beats-ste` is given
//!   and no difference-family estimator retrains to higher accuracy than
//!   STE on any design.
//!
//! ```text
//! cargo run --release -p appmult-bench --bin grad_matrix -- \
//!     [--seed 1] [--hws 4] [--lsq-window 3] \
//!     [--pretrain-epochs 3] [--retrain-epochs 3] \
//!     [--grid-out PATH] [--assert-beats-ste]
//! ```
//!
//! `--grid-out` additionally writes the machine-independent grid
//! document that must be byte-identical across thread counts for a
//! fixed seed — the artifact the CI determinism check compares.

use std::process::ExitCode;

use appmult_bench::grad_matrix_driver::{run_grad_matrix, GradMatrixConfig};
use appmult_bench::{write_results, Args};

fn main() -> ExitCode {
    let args = Args::from_env(
        "seed hws lsq-window pretrain-epochs retrain-epochs grid-out",
        "assert-beats-ste",
    );
    let mut cfg = GradMatrixConfig::smoke(args.get_or("seed", 1u64));
    cfg.hws = args.get_or("hws", cfg.hws);
    cfg.lsq_window = args.get_or("lsq-window", cfg.lsq_window);
    cfg.pretrain_epochs = args.get_or("pretrain-epochs", cfg.pretrain_epochs);
    cfg.retrain_epochs = args.get_or("retrain-epochs", cfg.retrain_epochs);
    for (flag, window) in [("hws", cfg.hws), ("lsq-window", cfg.lsq_window)] {
        if window == 0 {
            eprintln!("error: `--{flag}` must be at least 1");
            return ExitCode::from(2);
        }
    }

    let outcome = run_grad_matrix(&cfg);

    println!(
        "# Gradient-estimator matrix: seed {}, hws {}, lsq window {}, {}+{} epochs\n",
        cfg.seed, cfg.hws, cfg.lsq_window, cfg.pretrain_epochs, cfg.retrain_epochs
    );
    println!("float top-1: {:.2}%\n", outcome.float_top1_pct);
    println!("{}", outcome.summary);

    let path = write_results("GRAD_MATRIX.json", &outcome.json);
    println!("wrote {}", path.display());
    if let Some(out) = args.value("grid-out") {
        std::fs::write(out, &outcome.grid_json).expect("write grid file");
        println!("wrote {out}");
    }

    if args.flag("assert-beats-ste") && !outcome.difference_beats_ste() {
        eprintln!("error: no difference-family estimator beat STE on any design");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
