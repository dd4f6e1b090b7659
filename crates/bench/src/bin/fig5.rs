//! Reproduces **Fig. 5**: ResNet accuracy after retraining vs normalized
//! multiplier power, for 7-bit (a) and 8-bit (b) AppMults, with the
//! AccMult reference lines.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin fig5
//! ```
//!
//! Reuses `results/table2_resnet.csv` when present (run `table2 --model
//! resnet` first); otherwise runs the ResNet comparison itself. Emits
//! `results/fig5.csv` with one `(power, accuracy)` point per
//! (multiplier, method) and prints an ASCII rendition of both panels.

use appmult_bench::{
    compare_entry, pretrain_float, write_results, Args, ComparisonRow, ModelKind, Scale, Workload,
};
use appmult_models::ResNetDepth;
use appmult_mult::zoo;

/// Accuracy reference points: (multiplier name, top-1 %).
type ReferencePoints = Vec<(String, f64)>;

fn load_cached() -> Option<(Vec<ComparisonRow>, ReferencePoints)> {
    let text = std::fs::read_to_string("results/table2_resnet.csv").ok()?;
    let mut rows = vec![];
    let mut refs = vec![];
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() < 8 {
            continue;
        }
        if f[0].ends_with("_acc") {
            refs.push((f[0].to_string(), f[2].parse().ok()?));
            continue;
        }
        rows.push(ComparisonRow {
            name: f[0].to_string(),
            initial_pct: f[1].parse().unwrap_or(0.0),
            ste_pct: f[2].parse().ok()?,
            ours_pct: f[3].parse().ok()?,
            norm_power: f[4].parse().ok()?,
            norm_delay: f[5].parse().ok()?,
            nmed_pct: f[6].parse().unwrap_or(0.0),
        });
    }
    (!rows.is_empty()).then_some((rows, refs))
}

fn compute() -> (Vec<ComparisonRow>, Vec<(String, f64)>) {
    let scale = Scale::cpu_cifar10();
    let kind = ModelKind::ResNet(ResNetDepth::R10);
    eprintln!("[fig5] no cached table2_resnet.csv; running the ResNet comparison...");
    let workload = Workload::generate(&scale);
    let (mut pretrained, _) = pretrain_float(kind, &scale, &workload);
    let mut rows = vec![];
    let mut refs = vec![];
    for name in zoo::names() {
        if name.starts_with("mul6") {
            continue;
        }
        let entry = zoo::entry(name).expect("known");
        let row = compare_entry(
            kind,
            &scale,
            &workload,
            &mut pretrained,
            &entry,
            entry.recommended_hws(),
        );
        eprintln!(
            "[fig5] {name}: STE {:.2}% ours {:.2}%",
            row.ste_pct, row.ours_pct
        );
        if name.ends_with("_acc") {
            refs.push((name.to_string(), row.ste_pct));
        } else {
            rows.push(row);
        }
    }
    (rows, refs)
}

fn panel(rows: &[ComparisonRow], refs: &[(String, f64)], bits: u32) -> String {
    let prefix = format!("mul{bits}");
    let mut s = format!("### Fig. 5 panel — {bits}-bit AppMults\n");
    if let Some((name, acc)) = refs.iter().find(|(n, _)| n.starts_with(&prefix)) {
        s.push_str(&format!("reference ({name}): {acc:.2}%\n"));
    }
    let mut pts: Vec<&ComparisonRow> = rows
        .iter()
        .filter(|r| r.name.starts_with(&prefix))
        .collect();
    pts.sort_by(|a, b| a.norm_power.total_cmp(&b.norm_power));
    for r in pts {
        s.push_str(&format!(
            "power {:.2} | STE {:6.2}% | ours {:6.2}%   {}\n",
            r.norm_power, r.ste_pct, r.ours_pct, r.name
        ));
    }
    s
}

fn main() {
    // No flags: any argument is a usage error.
    Args::from_env("", "");
    let (rows, refs) = load_cached().unwrap_or_else(compute);

    let mut csv = String::from("name,bits,norm_power,method,accuracy_pct\n");
    for r in &rows {
        let bits = if r.name.starts_with("mul8") { 8 } else { 7 };
        csv.push_str(&format!(
            "{},{},{:.4},ste,{:.4}\n{},{},{:.4},ours,{:.4}\n",
            r.name, bits, r.norm_power, r.ste_pct, r.name, bits, r.norm_power, r.ours_pct
        ));
    }
    let path = write_results("fig5.csv", &csv);

    println!("## Fig. 5 — accuracy vs normalized power (ResNet)\n");
    println!("{}", panel(&rows, &refs, 7));
    println!("{}", panel(&rows, &refs, 8));

    // The paper's headline claims for this figure.
    for bits in [7u32, 8] {
        let pts: Vec<_> = rows
            .iter()
            .filter(|r| r.name.starts_with(&format!("mul{bits}")))
            .collect();
        if pts.is_empty() {
            continue;
        }
        let wins = pts.iter().filter(|r| r.ours_pct >= r.ste_pct).count();
        let ste_spread = pts.iter().map(|r| r.ste_pct).fold(f64::INFINITY, f64::min);
        let ours_spread = pts.iter().map(|r| r.ours_pct).fold(f64::INFINITY, f64::min);
        println!(
            "{bits}-bit: ours >= STE on {wins}/{} points; worst-case accuracy STE {ste_spread:.2}% vs ours {ours_spread:.2}%",
            pts.len()
        );
    }
    println!("\nSeries written to {}", path.display());
}
