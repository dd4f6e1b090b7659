//! Diagnostic: does each gradient mode descend on a single approx layer
//! (a 1×1 conv, i.e. a dense 16 → 8 GEMM)?
use appmult_mult::{zoo, Multiplier};
use appmult_nn::layers::Conv2dSpec;
use appmult_nn::optim::{Adam, Optimizer};
use appmult_nn::{Module, Tensor};
use appmult_retrain::{ApproxConv2d, GradientLut, GradientMode, QuantConfig};
use std::sync::Arc;

fn run(mode: GradientMode, hws_label: &str, lut: &Arc<appmult_mult::MultiplierLut>) {
    let grads = Arc::new(GradientLut::build(lut, mode));
    let spec = Conv2dSpec {
        in_channels: 16,
        out_channels: 8,
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    let weight = appmult_nn::init::uniform_fan_in(&[8, 16], 16, 7);
    let mut layer = ApproxConv2d::with_params(
        spec,
        weight,
        Tensor::zeros(&[8]),
        lut.clone(),
        grads,
        QuantConfig::default(),
    );
    // Fixed random input batch and a fixed random target.
    let x = Tensor::from_vec(
        (0..64 * 16)
            .map(|i| ((i * 37) % 23) as f32 / 11.0 - 1.0)
            .collect(),
        &[64, 16, 1, 1],
    );
    let target = Tensor::from_vec(
        (0..64 * 8)
            .map(|i| ((i * 53) % 17) as f32 / 4.0 - 2.0)
            .collect(),
        &[64, 8],
    );
    let mut opt = Adam::new(3e-3);
    let mut first = 0.0;
    let mut last = 0.0;
    for step in 0..300 {
        let y = layer.forward(&x, true);
        let diff: Vec<f32> = y
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(a, b)| a - b)
            .collect();
        let loss: f32 = diff.iter().map(|d| d * d).sum::<f32>() / diff.len() as f32;
        let grad = Tensor::from_vec(
            diff.iter().map(|d| 2.0 * d / (64.0 * 8.0)).collect(),
            &[64, 8, 1, 1],
        );
        layer.backward(&grad);
        opt.step(&mut layer);
        layer.zero_grad();
        if step == 0 {
            first = loss;
        }
        last = loss;
    }
    println!("{hws_label:20} loss {first:.4} -> {last:.4}");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for name in ["mul8u_rm8", "mul8u_1DMU", "mul8u_2NDH", "mul7u_06Q"] {
        let entry = zoo::entry(name).ok_or_else(|| format!("unknown zoo multiplier {name}"))?;
        let lut = Arc::new(entry.multiplier.to_lut());
        println!("== {name} ==");
        run(GradientMode::Ste, "STE", &lut);
        for h in [2u32, 4, 8, 16, 32] {
            run(
                GradientMode::difference_based(h),
                &format!("diff hws={h}"),
                &lut,
            );
        }
        run(GradientMode::least_squares(1), "raw-diff", &lut);
    }
    Ok(())
}
