//! Zero smoothing windows are usage errors: `fault_sweep --hws 0`,
//! `grad_matrix --hws 0` and `grad_matrix --lsq-window 0` exit with
//! status 2 and name the flag, before any pretraining starts (a run that
//! got that far would take tens of seconds, not the fraction of one these
//! take). So are `fig3 --hws 0` and a `fig3 --wf` past its 7-bit
//! multiplier's operand range.

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
    assert!(!stderr.contains("pretrain"), "{bin} {args:?}: {stderr}");
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
