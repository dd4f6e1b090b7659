//! Reproduces **Table II**: retraining accuracy with the STE-based gradient
//! vs the difference-based gradient, for every 7- and 8-bit AppMult of
//! Table I, on the CIFAR-10-like task.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin table2 -- --model vgg
//! cargo run -p appmult-bench --release --bin table2 -- --model resnet
//! cargo run -p appmult-bench --release --bin table2 -- --model vgg --quick
//! cargo run -p appmult-bench --release --bin table2 -- --model resnet --full
//! ```
//!
//! Defaults run the CPU-scale configuration (scaled model widths, 16x16
//! synthetic data, short schedule); `--full` switches to paper-scale
//! settings. Results are printed as a markdown table and written to
//! `results/table2_<model>.csv`.

use std::sync::Arc;

use appmult_bench::{
    compare_entry, markdown_table, pretrain_float, select_hws_by_proxy, write_results, Args,
    ComparisonRow, ModelKind, Scale, Workload,
};
use appmult_models::{ResNetDepth, VggDepth};
use appmult_mult::zoo;
use appmult_mult::Multiplier;

fn main() {
    let args = Args::from_env("model epochs", "quick full select-hws");
    let model_name = args.value("model").unwrap_or("vgg").to_string();
    let quick = args.flag("quick");
    let full = args.flag("full");

    let (kind, label) = match model_name.as_str() {
        "vgg" => (
            ModelKind::Vgg(if full { VggDepth::V19 } else { VggDepth::Small }),
            "VGG",
        ),
        "resnet" => (
            ModelKind::ResNet(if full {
                ResNetDepth::R18
            } else {
                ResNetDepth::R10
            }),
            "ResNet",
        ),
        other => {
            eprintln!("unknown --model {other}; use vgg or resnet");
            std::process::exit(2);
        }
    };
    let mut scale = if full {
        Scale::paper_cifar10()
    } else {
        Scale::cpu_cifar10()
    };
    if !full && model_name == "resnet" {
        // The residual stages are ~4x the MACs of the small VGG at equal
        // width; thin the CPU-scale variant so the 17-config sweep stays
        // tractable on one core.
        scale.model.width_div = 8;
        scale.retrain_epochs = 8;
    }
    scale.retrain_epochs = args.get_in("epochs", scale.retrain_epochs, 1..);

    let names: Vec<&str> = if quick {
        vec!["mul8u_rm8", "mul7u_rm6", "mul7u_06Q", "mul8u_1DMU"]
    } else {
        zoo::names()
            .iter()
            .copied()
            .filter(|n| !n.starts_with("mul6") && !n.ends_with("_acc"))
            .collect()
    };

    // HWS per multiplier: Table I's published windows by default;
    // --select-hws re-derives them with the paper's Sec. V-A LeNet proxy
    // (see also the standalone hws_select binary).
    let paper_hws = !args.flag("select-hws");

    eprintln!("[table2] generating workload + pretraining float {label} model...");
    let workload = Workload::generate(&scale);
    let start = std::time::Instant::now();
    let (mut pretrained, float_top1) = pretrain_float(kind, &scale, &workload);
    eprintln!(
        "[table2] float accuracy {:.2}% ({:.1?})",
        float_top1 * 100.0,
        start.elapsed()
    );
    let mut pretrained_lenet = if paper_hws {
        None
    } else {
        Some(pretrain_float(ModelKind::LeNet, &scale, &workload).0)
    };

    // Reference accuracies: exact multiplier + quantization-aware training.
    let mut reference = Vec::new();
    for acc_name in ["mul8u_acc", "mul7u_acc"] {
        let entry = zoo::entry(acc_name).expect("known");
        let t = std::time::Instant::now();
        let row = compare_entry(kind, &scale, &workload, &mut pretrained, &entry, 1);
        eprintln!(
            "[table2] {acc_name}: reference accuracy {:.2}% ({:.1?})",
            row.ste_pct,
            t.elapsed()
        );
        reference.push((acc_name, row));
    }

    let mut rows: Vec<ComparisonRow> = Vec::new();
    for name in &names {
        let entry = zoo::entry(name).expect("known Table I name");
        let t = std::time::Instant::now();
        let hws = match &mut pretrained_lenet {
            Some(lenet) => {
                let lut = Arc::new(entry.multiplier.to_lut());
                match select_hws_by_proxy(&lut, &scale, &workload, lenet) {
                    Ok(sel) => {
                        eprintln!(
                            "[table2] {name}: proxy-selected HWS = {} (paper used {})",
                            sel.best,
                            entry.recommended_hws()
                        );
                        sel.best
                    }
                    Err(e) => {
                        eprintln!(
                            "[table2] {name}: HWS sweep failed ({e}); falling back to paper HWS {}",
                            entry.recommended_hws()
                        );
                        entry.recommended_hws()
                    }
                }
            }
            None => entry.recommended_hws(),
        };
        let row = compare_entry(kind, &scale, &workload, &mut pretrained, &entry, hws);
        eprintln!(
            "[table2] {name}: init {:.2}% | STE {:.2}% | ours {:.2}% | improve {:+.2} ({:.1?})",
            row.initial_pct,
            row.ste_pct,
            row.ours_pct,
            row.improvement(),
            t.elapsed()
        );
        rows.push(row);
    }

    // Render the table.
    let mut md_rows = Vec::new();
    for (name, row) in &reference {
        md_rows.push(vec![
            format!("{name} (reference)"),
            "-".into(),
            format!("{:.2}", row.ste_pct),
            format!("{:.2}", row.ours_pct),
            "-".into(),
            format!("{:.2}", row.norm_power),
            format!("{:.2}", row.norm_delay),
            format!("{:.2}", row.nmed_pct),
        ]);
    }
    for r in &rows {
        md_rows.push(vec![
            r.name.clone(),
            format!("{:.2}", r.initial_pct),
            format!("{:.2}", r.ste_pct),
            format!("{:.2}", r.ours_pct),
            format!("{:+.2}", r.improvement()),
            format!("{:.2}", r.norm_power),
            format!("{:.2}", r.norm_delay),
            format!("{:.2}", r.nmed_pct),
        ]);
    }
    let mean_init = rows.iter().map(|r| r.initial_pct).sum::<f64>() / rows.len() as f64;
    let mean_ste = rows.iter().map(|r| r.ste_pct).sum::<f64>() / rows.len() as f64;
    let mean_ours = rows.iter().map(|r| r.ours_pct).sum::<f64>() / rows.len() as f64;
    md_rows.push(vec![
        format!("**{label} mean**"),
        format!("{mean_init:.2}"),
        format!("{mean_ste:.2}"),
        format!("{mean_ours:.2}"),
        format!("{:+.2}", mean_ours - mean_ste),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    let table = markdown_table(
        &[
            "Multiplier",
            "Initial acc. %",
            "STE %",
            "Ours %",
            "Improve",
            "Norm. power",
            "Norm. delay",
            "NMED %",
        ],
        &md_rows,
    );
    println!(
        "\n## Table II ({label}, {} mode)\n",
        if full { "paper-scale" } else { "CPU-scale" }
    );
    println!("{table}");

    // CSV for fig5.
    let mut csv = String::from("name,initial,ste,ours,norm_power,norm_delay,nmed,bits\n");
    for r in &rows {
        let bits = if r.name.starts_with("mul8") { 8 } else { 7 };
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}\n",
            r.name,
            r.initial_pct,
            r.ste_pct,
            r.ours_pct,
            r.norm_power,
            r.norm_delay,
            r.nmed_pct,
            bits
        ));
    }
    for (name, row) in &reference {
        let bits = if name.starts_with("mul8") { 8 } else { 7 };
        csv.push_str(&format!(
            "{},-,{:.4},{:.4},{:.4},{:.4},0,{}\n",
            name, row.ste_pct, row.ours_pct, row.norm_power, row.norm_delay, bits
        ));
    }
    let path = write_results(&format!("table2_{model_name}.csv"), &csv);
    eprintln!("[table2] wrote {}", path.display());
}
