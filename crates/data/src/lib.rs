//! Deterministic synthetic CIFAR-style datasets.
//!
//! The paper trains on CIFAR-10 / CIFAR-100, which are not available in
//! this offline environment. This crate substitutes structured synthetic
//! image-classification tasks that exercise exactly the same code paths:
//! each class owns a smooth random spatial prototype; samples are the
//! prototype under random translation, per-sample gain, and Gaussian
//! noise. Convnets must learn translation-tolerant spatial features to
//! separate the classes, and task difficulty is controlled by the noise
//! level — so the STE-vs-difference-gradient comparisons run on a
//! non-trivial workload.
//!
//! All generation is deterministic per seed.
//!
//! # Example
//!
//! ```
//! use appmult_data::{DatasetConfig, SyntheticDataset};
//!
//! let data = SyntheticDataset::generate(&DatasetConfig::tiny());
//! let train = data.train_batches(8);
//! assert!(!train.is_empty());
//! let (images, labels) = &train[0];
//! assert_eq!(images.shape()[0], labels.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use appmult_nn::Tensor;
use appmult_rng::Rng64;

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes.
    pub classes: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height and width.
    pub hw: (usize, usize),
    /// Gaussian pixel-noise standard deviation.
    pub noise: f32,
    /// Maximum random translation in pixels (toroidal shift).
    pub max_shift: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// CIFAR-10-like: 10 classes, 3x32x32.
    pub fn cifar10_like(train_per_class: usize, test_per_class: usize) -> Self {
        Self {
            classes: 10,
            train_per_class,
            test_per_class,
            channels: 3,
            hw: (32, 32),
            noise: 0.35,
            max_shift: 3,
            seed: 2024,
        }
    }

    /// CIFAR-100-like: 100 classes, 3x32x32.
    pub fn cifar100_like(train_per_class: usize, test_per_class: usize) -> Self {
        Self {
            classes: 100,
            ..Self::cifar10_like(train_per_class, test_per_class)
        }
    }

    /// A small 16x16 configuration for CPU-scale experiments.
    pub fn small(classes: usize, train_per_class: usize, test_per_class: usize) -> Self {
        Self {
            classes,
            train_per_class,
            test_per_class,
            channels: 3,
            hw: (16, 16),
            noise: 0.3,
            max_shift: 2,
            seed: 2024,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        Self::small(4, 8, 4)
    }
}

/// A generated dataset with train and test splits.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    config: DatasetConfig,
    train_images: Vec<f32>,
    train_labels: Vec<usize>,
    test_images: Vec<f32>,
    test_labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates the dataset for a configuration (deterministic per seed).
    ///
    /// # Panics
    ///
    /// Panics if any size in the configuration is zero.
    pub fn generate(config: &DatasetConfig) -> Self {
        assert!(
            config.classes > 0
                && config.train_per_class > 0
                && config.test_per_class > 0
                && config.channels > 0
                && config.hw.0 > 0
                && config.hw.1 > 0,
            "all dataset dimensions must be positive"
        );
        let mut rng = Rng64::seed_from_u64(config.seed);
        let prototypes: Vec<Vec<f32>> = (0..config.classes)
            .map(|_| prototype(config, &mut rng))
            .collect();

        let gen_split = |per_class: usize, rng: &mut Rng64| {
            let n = config.classes * per_class;
            let px = config.channels * config.hw.0 * config.hw.1;
            let mut images = Vec::with_capacity(n * px);
            let mut labels = Vec::with_capacity(n);
            for s in 0..n {
                let class = s % config.classes;
                sample(config, &prototypes[class], rng, &mut images);
                labels.push(class);
            }
            (images, labels)
        };
        let (train_images, train_labels) = gen_split(config.train_per_class, &mut rng);
        let (test_images, test_labels) = gen_split(config.test_per_class, &mut rng);
        Self {
            config: config.clone(),
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    fn batches(
        &self,
        images: &[f32],
        labels: &[usize],
        batch_size: usize,
    ) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch_size > 0, "batch size must be positive");
        let (h, w) = self.config.hw;
        let px = self.config.channels * h * w;
        let n = labels.len();
        // Interleave classes within batches by striding through the data.
        let mut order: Vec<usize> = (0..n).collect();
        // Deterministic stride permutation: coprime step.
        let step = coprime_step(n);
        for (i, o) in order.iter_mut().enumerate() {
            *o = (i * step) % n;
        }
        let mut out = vec![];
        for chunk in order.chunks(batch_size) {
            if chunk.len() < batch_size && !out.is_empty() {
                break; // drop ragged tail for uniform batch shapes
            }
            let mut data = Vec::with_capacity(chunk.len() * px);
            let mut lab = Vec::with_capacity(chunk.len());
            for &idx in chunk {
                data.extend_from_slice(&images[idx * px..(idx + 1) * px]);
                lab.push(labels[idx]);
            }
            out.push((
                Tensor::from_vec(data, &[chunk.len(), self.config.channels, h, w]),
                lab,
            ));
        }
        out
    }

    /// Training split as uniform mini-batches (ragged tail dropped).
    pub fn train_batches(&self, batch_size: usize) -> Vec<(Tensor, Vec<usize>)> {
        self.batches(&self.train_images, &self.train_labels, batch_size)
    }

    /// Test split as mini-batches.
    pub fn test_batches(&self, batch_size: usize) -> Vec<(Tensor, Vec<usize>)> {
        self.batches(&self.test_images, &self.test_labels, batch_size)
    }
}

/// Largest step < n that is coprime with n (identity-avoiding stride).
fn coprime_step(n: usize) -> usize {
    if n <= 2 {
        return 1;
    }
    let mut step = n / 2 + 1;
    while gcd(step, n) != 1 {
        step += 1;
    }
    step
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Smooth class prototype: low-resolution random grid, bilinearly
/// upsampled, unit amplitude.
fn prototype(config: &DatasetConfig, rng: &mut Rng64) -> Vec<f32> {
    let (h, w) = config.hw;
    let grid = 4usize;
    let mut out = Vec::with_capacity(config.channels * h * w);
    for _ in 0..config.channels {
        let coarse: Vec<f32> = (0..grid * grid)
            .map(|_| rng.uniform_f32(-1.0, 1.0))
            .collect();
        for y in 0..h {
            for x in 0..w {
                let gy = y as f32 * (grid - 1) as f32 / (h.max(2) - 1) as f32;
                let gx = x as f32 * (grid - 1) as f32 / (w.max(2) - 1) as f32;
                let (y0, x0) = (gy as usize, gx as usize);
                let (y1, x1) = ((y0 + 1).min(grid - 1), (x0 + 1).min(grid - 1));
                let (fy, fx) = (gy - y0 as f32, gx - x0 as f32);
                let v = coarse[y0 * grid + x0] * (1.0 - fy) * (1.0 - fx)
                    + coarse[y0 * grid + x1] * (1.0 - fy) * fx
                    + coarse[y1 * grid + x0] * fy * (1.0 - fx)
                    + coarse[y1 * grid + x1] * fy * fx;
                out.push(v);
            }
        }
    }
    out
}

/// One sample: shifted prototype + gain jitter + Gaussian noise.
fn sample(config: &DatasetConfig, proto: &[f32], rng: &mut Rng64, out: &mut Vec<f32>) {
    let (h, w) = config.hw;
    let ms = config.max_shift as isize;
    let dy = rng.range_i64(-(ms as i64), ms as i64) as isize;
    let dx = rng.range_i64(-(ms as i64), ms as i64) as isize;
    let gain = rng.uniform_f32(0.8, 1.2);
    for c in 0..config.channels {
        let base = c * h * w;
        for y in 0..h {
            for x in 0..w {
                let sy = (y as isize + dy).rem_euclid(h as isize) as usize;
                let sx = (x as isize + dx).rem_euclid(w as isize) as usize;
                let noise = rng.normal_f32() * config.noise;
                out.push(proto[base + sy * w + sx] * gain + noise);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(&DatasetConfig::tiny());
        let b = SyntheticDataset::generate(&DatasetConfig::tiny());
        assert_eq!(a.train_images, b.train_images);
        assert_eq!(a.test_labels, b.test_labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::generate(&DatasetConfig::tiny());
        let mut cfg = DatasetConfig::tiny();
        cfg.seed = 999;
        let b = SyntheticDataset::generate(&cfg);
        assert_ne!(a.train_images, b.train_images);
    }

    #[test]
    fn batches_have_uniform_shape_and_all_classes() {
        let data = SyntheticDataset::generate(&DatasetConfig::tiny());
        let batches = data.train_batches(8);
        assert!(!batches.is_empty());
        let mut seen = std::collections::HashSet::new();
        for (images, labels) in &batches {
            assert_eq!(images.shape(), &[8, 3, 16, 16]);
            assert_eq!(labels.len(), 8);
            seen.extend(labels.iter().copied());
        }
        assert_eq!(seen.len(), 4, "all classes appear");
    }

    #[test]
    fn sample_counts_match_config() {
        let data = SyntheticDataset::generate(&DatasetConfig::small(5, 6, 3));
        assert_eq!(data.train_labels.len(), 30);
        assert_eq!(data.test_labels.len(), 15);
    }

    #[test]
    fn classes_are_separable_by_prototype_correlation() {
        // Nearest-prototype classification on noiseless prototypes should
        // beat chance by a wide margin: the task is learnable.
        let cfg = DatasetConfig::small(6, 4, 8);
        let data = SyntheticDataset::generate(&cfg);
        let px = 3 * 16 * 16;
        // Recover prototypes as per-class training means.
        let mut protos = vec![vec![0.0f32; px]; 6];
        let mut counts = vec![0usize; 6];
        for (i, &lab) in data.train_labels.iter().enumerate() {
            let img = &data.train_images[i * px..(i + 1) * px];
            for (pv, &im) in protos[lab].iter_mut().zip(img) {
                *pv += im;
            }
            counts[lab] += 1;
        }
        for (p, &c) in protos.iter_mut().zip(&counts) {
            for v in p.iter_mut() {
                *v /= c as f32;
            }
        }
        let mut hits = 0;
        for (i, &lab) in data.test_labels.iter().enumerate() {
            let img = &data.test_images[i * px..(i + 1) * px];
            let best = protos
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    let sa: f32 = a.iter().zip(img).map(|(x, y)| x * y).sum();
                    let sb: f32 = b.iter().zip(img).map(|(x, y)| x * y).sum();
                    sa.total_cmp(&sb)
                })
                .map(|(k, _)| k)
                .expect("nonempty");
            if best == lab {
                hits += 1;
            }
        }
        let acc = hits as f64 / data.test_labels.len() as f64;
        assert!(acc > 0.5, "nearest-prototype accuracy only {acc}");
    }

    #[test]
    fn cifar_like_presets_have_right_shapes() {
        let cfg = DatasetConfig::cifar10_like(2, 1);
        assert_eq!(cfg.classes, 10);
        assert_eq!(cfg.hw, (32, 32));
        let cfg100 = DatasetConfig::cifar100_like(1, 1);
        assert_eq!(cfg100.classes, 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_classes() {
        let mut cfg = DatasetConfig::tiny();
        cfg.classes = 0;
        SyntheticDataset::generate(&cfg);
    }
}
