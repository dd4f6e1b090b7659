//! Randomized property tests for the deep-learning substrate.
//!
//! Deterministic cases drawn from the in-tree `appmult-rng` stream
//! (proptest is unavailable in the offline build environment).

use appmult_nn::layers::{im2col, im2col_gather, nchw_to_rows, rows_to_nchw, Conv2dSpec};
use appmult_nn::loss::{softmax, softmax_cross_entropy};
use appmult_nn::metrics::top_k_accuracy;
use appmult_nn::Tensor;
use appmult_rng::Rng64;

fn random_data(rng: &mut Rng64, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform_f32(-2.0, 2.0)).collect()
}

/// Matmul distributes over addition: (A + B) C == AC + BC.
#[test]
fn matmul_distributes() {
    let mut rng = Rng64::seed_from_u64(0xA1);
    for _ in 0..48 {
        let a = Tensor::from_vec(random_data(&mut rng, 6), &[3, 2]);
        let b = Tensor::from_vec(random_data(&mut rng, 6), &[3, 2]);
        let c = Tensor::from_vec(random_data(&mut rng, 8), &[2, 4]);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

/// Transpose reverses matmul: (AB)^T == B^T A^T.
#[test]
fn transpose_reverses_matmul() {
    let mut rng = Rng64::seed_from_u64(0xA2);
    for _ in 0..48 {
        let a = Tensor::from_vec(random_data(&mut rng, 6), &[2, 3]);
        let b = Tensor::from_vec(random_data(&mut rng, 6), &[3, 2]);
        let lhs = a.matmul(&b).transpose2d();
        let rhs = b.transpose2d().matmul(&a.transpose2d());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

/// im2col preserves total mass for kernel 1, stride 1 (a permutation).
#[test]
fn unit_kernel_im2col_is_permutation() {
    let mut rng = Rng64::seed_from_u64(0xA3);
    for _ in 0..48 {
        let x = Tensor::from_vec(random_data(&mut rng, 2 * 3 * 4 * 4), &[2, 3, 4, 4]);
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&x, &spec);
        assert_eq!(cols.len(), x.len());
        let mut a: Vec<f32> = x.as_slice().to_vec();
        let mut b: Vec<f32> = cols.as_slice().to_vec();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        assert_eq!(a, b);
    }
}

/// The generic gather commutes with elementwise maps: gathering `f(x)`
/// with pad `f(0.0)` equals mapping `f` over `im2col(x)`, for an `f` into
/// another element type. `im2col` itself matches the definition: each
/// entry is the input tap it names, or 0 where that tap is padding.
#[test]
fn gather_commutes_with_elementwise_maps() {
    let mut rng = Rng64::seed_from_u64(0xA5);
    // An arbitrary non-monotone map into a different element type.
    let f = |v: f32| ((v * 7.3).sin() * 1000.0) as i32 ^ (v.to_bits() as i32 & 3);
    for _ in 0..96 {
        let k = 1 + rng.below(5) as usize;
        let spec = Conv2dSpec {
            in_channels: 1 + rng.below(3) as usize,
            out_channels: 1,
            kernel: k,
            stride: 1 + rng.below(3) as usize,
            padding: rng.below(3) as usize,
        };
        // Smallest input the kernel fits, plus a random (often odd) margin.
        let min_hw = k.saturating_sub(2 * spec.padding).max(1);
        let (h, w) = (
            min_hw + rng.below(6) as usize,
            min_hw + rng.below(6) as usize,
        );
        let n = rng.below(3) as usize;
        let shape = [n, spec.in_channels, h, w];
        let x = Tensor::from_vec(random_data(&mut rng, shape.iter().product()), &shape);
        let cols = im2col(&x, &spec);
        let mapped: Vec<i32> = x.as_slice().iter().map(|&v| f(v)).collect();
        let want: Vec<i32> = cols.as_slice().iter().map(|&v| f(v)).collect();
        // A sentinel `f` never yields: the gather must overwrite all of it.
        let mut gathered = vec![i32::MIN; want.len()];
        im2col_gather(&mapped, &shape, &spec, f(0.0), &mut gathered);
        assert_eq!(gathered, want, "{spec:?} on {shape:?}");

        let (oh, ow) = spec.out_hw(h, w);
        assert_eq!(cols.shape(), &[n * oh * ow, spec.patch_len()]);
        for (r, row) in cols.as_slice().chunks(spec.patch_len()).enumerate() {
            let (ni, oy, ox) = (r / (oh * ow), r / ow % oh, r % ow);
            for (t, &got) in row.iter().enumerate() {
                let (ci, ky, kx) = (t / (k * k), t / k % k, t % k);
                let iy = (oy * spec.stride + ky).checked_sub(spec.padding);
                let ix = (ox * spec.stride + kx).checked_sub(spec.padding);
                let want = match (iy, ix) {
                    (Some(iy), Some(ix)) if iy < h && ix < w => x.at(&[ni, ci, iy, ix]),
                    _ => 0.0,
                };
                assert_eq!(got.to_bits(), want.to_bits(), "{spec:?} row {r} tap {t}");
            }
        }
    }
}

/// rows<->nchw conversion is a bijection.
#[test]
fn rows_nchw_bijection() {
    let mut rng = Rng64::seed_from_u64(0xA4);
    for _ in 0..48 {
        let x = Tensor::from_vec(random_data(&mut rng, 2 * 3 * 2 * 5), &[2, 3, 2, 5]);
        let back = rows_to_nchw(&nchw_to_rows(&x), 2, 3, 2, 5);
        assert_eq!(back, x);
    }
}

/// Cross-entropy loss is non-negative, and its gradient rows sum to 0.
#[test]
fn cross_entropy_invariants() {
    let mut rng = Rng64::seed_from_u64(0xA5);
    for _ in 0..48 {
        let logits = Tensor::from_vec(random_data(&mut rng, 12), &[3, 4]);
        let labels: Vec<usize> = (0..3).map(|_| rng.index(4)).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        assert!(loss >= 0.0);
        for row in grad.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }
}

/// Softmax is shift-invariant.
#[test]
fn softmax_shift_invariant() {
    let mut rng = Rng64::seed_from_u64(0xA6);
    for _ in 0..48 {
        let a = Tensor::from_vec(random_data(&mut rng, 8), &[2, 4]);
        let shift = rng.uniform_f32(-3.0, 3.0);
        let b = a.map(|v| v + shift);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}

/// Top-k accuracy is monotone in k.
#[test]
fn topk_monotone_in_k() {
    let mut rng = Rng64::seed_from_u64(0xA7);
    for _ in 0..48 {
        let logits = Tensor::from_vec(random_data(&mut rng, 30), &[3, 10]);
        let labels: Vec<usize> = (0..3).map(|_| rng.index(10)).collect();
        let mut prev = 0.0;
        for k in 1..=10 {
            let acc = top_k_accuracy(&logits, &labels, k);
            assert!(acc + 1e-12 >= prev, "k={k}: {acc} < {prev}");
            prev = acc;
        }
        assert_eq!(top_k_accuracy(&logits, &labels, 10), 1.0);
    }
}
