//! Faulty-hardware retraining sweep.
//!
//! Injects an increasing number of random gate-level defects (stuck-at-0/1,
//! output-invert) into a gate-level multiplier, extracts the defective
//! product table, and retrains a LeNet against it with both gradient rules
//! (STE baseline vs the paper's difference-based rule). The retraining loop
//! runs with the resilience policy enabled — NaN scrubbing, norm clipping,
//! and divergence rollback — since heavily faulted products routinely blow
//! up the loss.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin fault_sweep
//! cargo run -p appmult-bench --release --bin fault_sweep -- --bits 6 --epochs 4
//! cargo run -p appmult-bench --release --bin fault_sweep -- --wallace --seed 7
//! cargo run -p appmult-bench --release --bin fault_sweep -- --faults 0,1,2,4,8,16
//! ```
//!
//! A usage error exits with status 2 before pretraining: among them a
//! `--bits` outside 2..=10, `--hws 0` and `--epochs 0`.

use std::sync::Arc;

use appmult_bench::{
    markdown_table, pretrain_float, retrain_with_multiplier_scheme, write_results, Args, ModelKind,
    Scale, Workload,
};
use appmult_circuit::{fault_sites, FaultKind, FaultSpec, MultiplierCircuit};
use appmult_mult::{ErrorMetrics, MultiplierLut};
use appmult_retrain::{GradientLut, GradientMode, QuantScheme, ResiliencePolicy};
use appmult_rng::Rng64;

/// Draws `count` random faults (site and kind) for a circuit.
fn draw_faults(circuit: &MultiplierCircuit, count: usize, seed: u64) -> Vec<FaultSpec> {
    let sites = fault_sites(circuit.netlist());
    let mut rng = Rng64::seed_from_u64(seed);
    let picked = rng.sample_indices(sites.len(), count.min(sites.len()));
    picked
        .into_iter()
        .map(|i| FaultSpec {
            site: sites[i],
            kind: FaultKind::ALL[rng.index(3)],
        })
        .collect()
}

fn main() {
    let args = Args::from_env("bits seed hws faults epochs", "wallace");
    // 2..=10: the widths both the circuit generator and the quantizer take.
    let bits: u32 = args.get_in("bits", 8, 2..=10);
    let seed: u64 = args.get_or("seed", 1);
    let hws: u32 = args.get_in("hws", 16, 1..);
    let faults_arg = args.value("faults").unwrap_or("0,1,2,4,8");
    let fault_counts: Vec<usize> = faults_arg
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: invalid fault count `{s}` in `--faults {faults_arg}`");
                std::process::exit(2)
            })
        })
        .collect();

    let mut scale = Scale::cpu_cifar10();
    scale.retrain_epochs = args.get_in("epochs", 3, 1..);
    let kind = ModelKind::LeNet;

    let circuit = if args.flag("wallace") {
        MultiplierCircuit::wallace(bits)
    } else {
        MultiplierCircuit::array(bits)
    };
    let base_name = format!(
        "mul{bits}u_{}",
        if args.flag("wallace") {
            "wallace"
        } else {
            "array"
        }
    );
    let total_sites = fault_sites(circuit.netlist()).len();
    eprintln!("[fault] {base_name}: {total_sites} injectable fault sites");

    eprintln!("[fault] generating workload + pretraining float LeNet...");
    let workload = Workload::generate(&scale);
    let (mut pretrained, float_top1) = pretrain_float(kind, &scale, &workload);
    eprintln!("[fault] float accuracy {:.2}%", float_top1 * 100.0);

    let mut rows = vec![];
    let mut csv = String::from(
        "multiplier,faults,nmed_pct,initial_pct,ste_pct,ours_pct,ste_rollbacks,ours_rollbacks,scrubbed\n",
    );
    for &count in &fault_counts {
        let faults = draw_faults(&circuit, count, seed.wrapping_add(count as u64));
        let faulty = circuit
            .with_faults(&faults)
            .expect("sites come from fault_sites");
        let name = format!("{base_name}_fault{}", faults.len());
        let lut = Arc::new(MultiplierLut::from_circuit(name, &faulty));
        let nmed = ErrorMetrics::exhaustive(&lut).nmed_pct();

        let mut run = |mode: GradientMode| {
            retrain_with_multiplier_scheme(
                kind,
                &scale,
                &workload,
                &mut pretrained,
                &lut,
                Arc::new(GradientLut::build(&lut, mode)),
                QuantScheme::Unsigned,
                Some(ResiliencePolicy::default()),
            )
        };
        let ste = run(GradientMode::Ste);
        let ours = run(GradientMode::difference_based(hws));
        let scrubbed = ste.history.total_scrubbed_grads() + ours.history.total_scrubbed_grads();
        eprintln!(
            "[fault] {count} faults (NMED {nmed:.3}%): initial {:.2}%, STE {:.2}% ({} rollbacks), ours {:.2}% ({} rollbacks)",
            ste.initial_pct(),
            ste.final_pct(),
            ste.history.total_rollbacks(),
            ours.final_pct(),
            ours.history.total_rollbacks(),
        );
        csv.push_str(&format!(
            "{base_name},{count},{nmed:.4},{:.3},{:.3},{:.3},{},{},{}\n",
            ste.initial_pct(),
            ste.final_pct(),
            ours.final_pct(),
            ste.history.total_rollbacks(),
            ours.history.total_rollbacks(),
            scrubbed,
        ));
        rows.push(vec![
            count.to_string(),
            format!("{nmed:.3}"),
            format!("{:.2}", ste.initial_pct()),
            format!("{:.2}", ste.final_pct()),
            format!("{:.2}", ours.final_pct()),
            format!("{:+.2}", ours.final_pct() - ste.final_pct()),
            (ste.history.total_rollbacks() + ours.history.total_rollbacks()).to_string(),
        ]);
    }

    let header = [
        "Faults",
        "NMED %",
        "Initial %",
        "STE %",
        "Ours %",
        "Ours-STE",
        "Rollbacks",
    ];
    let table = markdown_table(&header, &rows);
    println!(
        "\n## Retraining accuracy vs fault count ({base_name}, float {:.2}%)\n",
        float_top1 * 100.0
    );
    println!("{table}");
    let md = format!(
        "# Fault sweep: {base_name}\n\nfloat accuracy {:.2}% | hws {hws} | seed {seed} | {} retrain epochs\n\n{table}",
        float_top1 * 100.0,
        scale.retrain_epochs,
    );
    let path = write_results("fault_sweep.md", &md);
    let csv_path = write_results("fault_sweep.csv", &csv);
    eprintln!(
        "[fault] wrote {} and {}",
        path.display(),
        csv_path.display()
    );
}
