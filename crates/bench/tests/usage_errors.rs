//! Zero smoothing windows are usage errors: `fault_sweep --hws 0`,
//! `grad_matrix --hws 0` and `grad_matrix --lsq-window 0` exit with
//! status 2 and name the flag, before any pretraining starts (a run that
//! got that far would take tens of seconds, not the fraction of one these
//! take). So are `fig3 --hws 0`, a `fig3 --wf` past its 7-bit
//! multiplier's operand range, a `fault_sweep --bits` outside 2..=10, and
//! a zero epoch count in every binary that retrains.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("`--{flag}`")),
        "{bin} {args:?} must name `--{flag}`: {stderr}"
    );
    assert!(!stderr.contains("pretraining"), "{bin} {args:?}: {stderr}");
}

#[test]
fn zero_windows_exit_2_naming_the_flag() {
    let fault_sweep = env!("CARGO_BIN_EXE_fault_sweep");
    let grad_matrix = env!("CARGO_BIN_EXE_grad_matrix");
    assert_usage_error(fault_sweep, &["--hws", "0"], "hws");
    assert_usage_error(fault_sweep, &["--bits", "6", "--hws", "0"], "hws");
    assert_usage_error(grad_matrix, &["--hws", "0"], "hws");
    assert_usage_error(grad_matrix, &["--lsq-window", "0"], "lsq-window");
}

#[test]
fn fig3_rejects_a_zero_window_and_an_out_of_range_weight() {
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    assert_usage_error(fig3, &["--hws", "0"], "hws");
    assert_usage_error(fig3, &["--wf", "200"], "wf");
    assert_usage_error(fig3, &["--wf", "128"], "wf");
}

#[test]
fn fault_sweep_rejects_widths_outside_2_to_10() {
    let fault_sweep = env!("CARGO_BIN_EXE_fault_sweep");
    for bits in ["0", "1", "11", "17"] {
        assert_usage_error(fault_sweep, &["--bits", bits], "bits");
    }
    assert_usage_error(fault_sweep, &["--wallace", "--bits", "1"], "bits");
}

#[test]
fn zero_epoch_counts_exit_2_naming_the_flag() {
    let fault_sweep = env!("CARGO_BIN_EXE_fault_sweep");
    let grad_matrix = env!("CARGO_BIN_EXE_grad_matrix");
    assert_usage_error(fault_sweep, &["--epochs", "0"], "epochs");
    assert_usage_error(grad_matrix, &["--pretrain-epochs", "0"], "pretrain-epochs");
    assert_usage_error(grad_matrix, &["--retrain-epochs", "0"], "retrain-epochs");
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    assert_usage_error(fig6, &["--epochs", "0"], "epochs");
    let hws_select = env!("CARGO_BIN_EXE_hws_select");
    assert_usage_error(
        hws_select,
        &["--epochs", "0", "--mult", "mul6u_rm4"],
        "epochs",
    );
    let table2 = env!("CARGO_BIN_EXE_table2");
    assert_usage_error(table2, &["--epochs", "0"], "epochs");
    assert_usage_error(table2, &["--model", "resnet", "--epochs", "0"], "epochs");
}
