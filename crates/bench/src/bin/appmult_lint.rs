//! `appmult-lint`: static verification sweep over the multiplier zoo.
//!
//! Runs every `appmult_bench::lint` pass — structural netlist lints, a
//! product-table scan against the exact multiplier, LUT metric sanity, and
//! Eq. 5/6 gradient consistency — over all Table I designs (including the
//! cached `_syn` synthesis results) plus deliberately faulty negative
//! controls. Prints a human-readable table, writes the machine-readable
//! report to `results/LINT.json` (`appmult-lint/v3`), and exits:
//!
//! - `0` when the sweep is clean,
//! - `1` when any design carries an error diagnostic,
//! - `2` when the sweep carries warnings but no errors (errors win).
//!
//! ```text
//! cargo run --release -p appmult-bench --bin appmult-lint
//! ```

use std::process::ExitCode;

use appmult_bench::lint::{lint_zoo, MultiplierEquiv, Severity};
use appmult_bench::{markdown_table, write_results, Args};

fn main() -> ExitCode {
    Args::from_env("", "");
    let report = lint_zoo();

    let rows: Vec<Vec<String>> = report
        .designs
        .iter()
        .map(|d| {
            let equivalence = match &d.equivalence {
                MultiplierEquiv::Equivalent { patterns } => {
                    format!("equivalent (proved, {patterns} patterns)")
                }
                MultiplierEquiv::Counterexample(c) => format!("differs: {c}"),
            };
            vec![
                d.name.clone(),
                d.bits.to_string(),
                d.kind.as_str().to_string(),
                d.error_count().to_string(),
                d.warning_count().to_string(),
                equivalence,
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "design",
                "bits",
                "kind",
                "errors",
                "warnings",
                "equivalence vs exact"
            ],
            &rows
        )
    );

    for d in &report.designs {
        for diag in &d.diagnostics {
            if diag.severity >= Severity::Warning {
                println!("{}: {diag}", d.name);
            }
        }
    }

    let lint_path = write_results("LINT.json", &report.to_json());
    println!(
        "\n{} designs, {} errors, {} warnings -> {}",
        report.designs.len(),
        report.error_count(),
        report.warning_count(),
        lint_path.display()
    );

    if report.error_count() > 0 {
        ExitCode::from(1)
    } else if report.warning_count() > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
