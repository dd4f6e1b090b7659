//! Reproduces **Table I**: characteristics of the tested multipliers —
//! area / delay / power from the calibrated gate-level cost model, and
//! ER / NMED / MaxED from exhaustive enumeration under a uniform input
//! distribution (Eq. 2), next to the paper's published values.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin table1
//! cargo run -p appmult-bench --release --bin table1 -- --skip-syn
//! ```
//!
//! `--skip-syn` omits the four `_syn` entries (their ALS runs take a few
//! seconds each on one core).

use appmult_bench::{markdown_table, table1_row, write_results, Args, TABLE1_CSV_HEADER};
use appmult_circuit::CostModel;
use appmult_mult::zoo;

fn main() {
    let args = Args::from_env("", "skip-syn");
    let skip_syn = args.flag("skip-syn");
    let model = CostModel::asap7();

    let mut rows = Vec::new();
    let mut csv = String::from(TABLE1_CSV_HEADER);
    for name in zoo::names() {
        if skip_syn && name.contains("_syn") {
            continue;
        }
        eprintln!("[table1] {name}...");
        let entry = zoo::entry(name).expect("known");
        let row = table1_row(&entry, &model);
        rows.push(row.markdown_cells());
        csv.push_str(&row.csv_line());
    }

    println!("\n## Table I — multiplier characteristics (measured / paper)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Multiplier",
                "Fidelity",
                "Area um^2",
                "Delay ps",
                "Power uW",
                "ER % (ours/paper)",
                "NMED % (ours/paper)",
                "MaxED (ours/paper)",
                "HWS",
            ],
            &rows,
        )
    );
    println!(
        "(paper*) = behavioural-only surrogate: hardware cost taken from the \
         paper's published row; all error metrics are measured on our LUT."
    );
    let path = write_results("table1.csv", &csv);
    eprintln!("[table1] wrote {}", path.display());
}
