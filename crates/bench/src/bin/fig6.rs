//! Reproduces **Fig. 6**: top-5 test-accuracy curves per epoch for
//! ResNet-34 (a) and ResNet-50 (b) with the 6-bit `mul6u_rm4` on the
//! CIFAR-100-like task, STE vs difference-based gradients.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin fig6
//! cargo run -p appmult-bench --release --bin fig6 -- --epochs 12
//! ```
//!
//! Emits `results/fig6.csv` with one row per (model, method, epoch).

use std::sync::Arc;

use appmult_bench::{
    pretrain_float, retrain_with_multiplier, write_results, Args, ModelKind, Scale, Workload,
};
use appmult_models::ResNetDepth;
use appmult_mult::{zoo, Multiplier};
use appmult_retrain::GradientMode;

fn main() {
    let args = Args::from_env("epochs", "");
    let mut scale = Scale::cpu_cifar100();
    scale.model.width_div = 12; // R34/R50 are deep; keep the sweep CPU-sized
    scale.retrain_epochs = args.get_in("epochs", scale.retrain_epochs, 1..);

    let entry = zoo::entry("mul6u_rm4").expect("known");
    let lut = Arc::new(entry.multiplier.to_lut());
    let hws = entry.recommended_hws();

    let mut csv = String::from("model,method,epoch,top5_pct,top1_pct\n");
    println!("## Fig. 6 — top-5 accuracy vs epoch (mul6u_rm4, CIFAR-100-like)\n");
    let workload = Workload::generate(&scale);

    for (model_label, depth) in [
        ("ResNet34", ResNetDepth::R34),
        ("ResNet50", ResNetDepth::R50),
    ] {
        let kind = ModelKind::ResNet(depth);
        eprintln!("[fig6] pretraining float {model_label}...");
        let t = std::time::Instant::now();
        let (mut pretrained, float_top1) = pretrain_float(kind, &scale, &workload);
        eprintln!(
            "[fig6] {model_label} float top-1 {:.2}% ({:.1?})",
            float_top1 * 100.0,
            t.elapsed()
        );
        let mut finals = vec![];
        for (method, mode) in [
            ("ste", GradientMode::Ste),
            ("ours", GradientMode::difference_based(hws)),
        ] {
            let t = std::time::Instant::now();
            let outcome =
                retrain_with_multiplier(kind, &scale, &workload, &mut pretrained, &lut, mode);
            for e in &outcome.history.epochs {
                if let (Some(t5), Some(t1)) = (e.test_top5, e.test_top1) {
                    csv.push_str(&format!(
                        "{model_label},{method},{},{:.4},{:.4}\n",
                        e.epoch,
                        t5 * 100.0,
                        t1 * 100.0
                    ));
                }
            }
            let top5 = outcome.history.final_top5() * 100.0;
            eprintln!(
                "[fig6] {model_label} {method}: final top-5 {top5:.2}% ({:.1?})",
                t.elapsed()
            );
            finals.push((method, top5, outcome));
        }
        println!("{model_label}:");
        for (method, top5, outcome) in &finals {
            let curve: Vec<String> = outcome
                .history
                .epochs
                .iter()
                .filter_map(|e| e.test_top5)
                .map(|v| format!("{:.1}", v * 100.0))
                .collect();
            println!(
                "  {method:>4} top-5 per epoch: [{}] -> final {top5:.2}%",
                curve.join(", ")
            );
        }
        let gap = finals[1].1 - finals[0].1;
        println!("  ours - STE (final top-5): {gap:+.2} points\n");
    }

    let path = write_results("fig6.csv", &csv);
    println!("Series written to {}", path.display());
}
