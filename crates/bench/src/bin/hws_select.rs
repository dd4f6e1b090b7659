//! Reproduces the **HWS column of Table I** (Sec. V-A): for each AppMult,
//! sweep the half window size over {1, 2, 4, 8, 16, 32, 64}, retrain a
//! small LeNet for a few epochs with the difference-based gradient, and
//! select the HWS with the smallest final training loss.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin hws_select -- --mult mul7u_rm6
//! cargo run -p appmult-bench --release --bin hws_select            # all (slow)
//! cargo run -p appmult-bench --release --bin hws_select -- --epochs 3
//! ```

use std::sync::Arc;

use appmult_bench::{
    markdown_table, pretrain_float, retrain_with_multiplier, write_results, Args, ModelKind, Scale,
    Workload,
};
use appmult_mult::{zoo, Multiplier};
use appmult_retrain::{candidates_for_bits, select_hws, GradientMode};

fn main() {
    let args = Args::from_env("epochs mult", "");
    let mut scale = Scale::cpu_cifar10();
    scale.retrain_epochs = args.get_in("epochs", 3, 1..);
    let kind = ModelKind::LeNet;

    let names: Vec<&str> = match args.value("mult") {
        Some(m) => {
            let owned = zoo::names()
                .iter()
                .copied()
                .find(|n| *n == m)
                .unwrap_or_else(|| {
                    eprintln!("unknown multiplier {m}");
                    std::process::exit(2);
                });
            vec![owned]
        }
        None => zoo::names()
            .iter()
            .copied()
            .filter(|n| !n.ends_with("_acc"))
            .collect(),
    };

    eprintln!("[hws] generating workload + pretraining float LeNet...");
    let workload = Workload::generate(&scale);
    let (mut pretrained, float_top1) = pretrain_float(kind, &scale, &workload);
    eprintln!("[hws] float accuracy {:.2}%", float_top1 * 100.0);

    let mut rows = vec![];
    let mut csv = String::from("multiplier,hws,train_loss,selected,paper_hws\n");
    for name in names {
        let entry = zoo::entry(name).expect("known");
        let lut = Arc::new(entry.multiplier.to_lut());
        let candidates = candidates_for_bits(lut.bits());
        // `retrain_with_multiplier` copies the pretrained weights out and
        // never mutates them, so every candidate starts from identical
        // initial conditions.
        let selection = select_hws(&candidates, |hws| {
            let outcome = retrain_with_multiplier(
                kind,
                &scale,
                &workload,
                &mut pretrained,
                &lut,
                GradientMode::difference_based(hws),
            );
            let loss = outcome.history.final_train_loss();
            eprintln!("[hws] {name} hws={hws}: train loss {loss:.4}");
            loss
        });
        let selection = match selection {
            Ok(sel) => sel,
            Err(e) => {
                eprintln!("[hws] {name}: sweep failed ({e}); skipping");
                continue;
            }
        };
        for t in &selection.trials {
            csv.push_str(&format!(
                "{name},{},{:.5},{},{}\n",
                t.hws,
                t.train_loss,
                selection.best,
                entry.paper.hws.unwrap_or(0)
            ));
        }
        let trials = selection
            .trials
            .iter()
            .map(|t| format!("{}:{:.3}", t.hws, t.train_loss))
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            name.to_string(),
            selection.best.to_string(),
            entry
                .paper
                .hws
                .map(|h| h.to_string())
                .unwrap_or_else(|| "N/A".into()),
            trials,
        ]);
    }

    println!("\n## HWS selection (Sec. V-A sweep)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Multiplier",
                "Selected HWS",
                "Paper HWS",
                "loss per candidate"
            ],
            &rows
        )
    );
    let path = write_results("hws_select.csv", &csv);
    eprintln!("[hws] wrote {}", path.display());
}
