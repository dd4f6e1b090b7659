//! Reproduces **Fig. 3**: the staircase AppMult slice `AM(W_f = 10, X)`,
//! its Eq. 4 smoothing (HWS = 4), the AccMult line, and the
//! difference-based vs STE gradients for the 7-bit `rm6` multiplier.
//!
//! Usage:
//!
//! ```text
//! cargo run -p appmult-bench --release --bin fig3
//! cargo run -p appmult-bench --release --bin fig3 -- --wf 10 --hws 4
//! ```
//!
//! Emits `results/fig3.csv` with the four series and prints the landmark
//! values (the jumps at X = 31, 63, 95 that the paper's red arrows mark).

use appmult_bench::{fig3_csv, write_results, Args};
use appmult_mult::{zoo, Multiplier};
use appmult_retrain::{GradientLut, GradientMode};

fn main() {
    let args = Args::from_env("wf hws", "");
    let wf: u32 = args.get_or("wf", 10);
    let hws: u32 = args.get_or("hws", 4);

    let lut = zoo::mul7u_rm6().to_lut();
    let row = lut.row(wf).to_vec();
    let ours = GradientLut::build(&lut, GradientMode::difference_based(hws));
    let ste = GradientLut::build(&lut, GradientMode::Ste);
    let raw = GradientLut::build(&lut, GradientMode::least_squares(1));
    let path = write_results("fig3.csv", &fig3_csv(&lut, wf, hws));

    println!("## Fig. 3 — AM(W_f = {wf}, X) for mul7u_rm6 (HWS = {hws})\n");
    println!("Landmarks (the paper's red arrows at X = 31, 63, 95):");
    for jump in [31u32, 63, 95] {
        let step = row[jump as usize + 1] as i64 - row[jump as usize] as i64;
        println!(
            "  X = {jump:3}: AM jumps by {step:+5} | grad_diff near jump = {:.2} | grad_ste = {:.2}",
            (jump.saturating_sub(1)..=jump + 1)
                .map(|x| ours.wrt_x(wf, x))
                .fold(f32::MIN, f32::max),
            ste.wrt_x(wf, jump),
        );
    }
    let zero_raw = (1..127).filter(|&x| raw.wrt_x(wf, x) == 0.0).count();
    let zero_smooth = (0..128).filter(|&x| ours.wrt_x(wf, x) == 0.0).count();
    println!(
        "\nZero-gradient points: raw difference = {zero_raw}/126, smoothed = {zero_smooth}/128"
    );
    println!("Series written to {}", path.display());
}
