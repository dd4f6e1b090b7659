//! Summary statistics, process probes and parameter digests.

use std::time::Instant;

use appmult_nn::Module;

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// Mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentile `p` (0..=100) of `values`: the smallest sample with at least
/// `p` percent of the samples at or below it. Also returns how many
/// samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0);
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (v[rank - 1], n - rank)
}

/// Tail percentiles, highest first. The ladder stops at p95: on a shared
/// 2-core host, p99 and beyond move from run to run by more than any
/// bound a regression gate could use.
const TAIL_LADDER: [f64; 3] = [95.0, 90.0, 75.0];

/// The tail: the highest ladder percentile with at least ten samples
/// beyond it (the median when none has). Returns `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    TAIL_LADDER
        .iter()
        .map(|&p| (percentile(values, p), p))
        .find(|((_, beyond), _)| *beyond >= 10)
        .map_or_else(|| (percentile(values, 50.0).0, 50.0), |((v, _), p)| (v, p))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// FNV-1a over `bits`, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bits: impl IntoIterator<Item = u32>) -> u64 {
    for b in bits {
        for byte in b.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of `values`' exact bit patterns.
pub fn digest_f32(values: &[f32]) -> u64 {
    fnv1a(FNV_START, values.iter().map(|v| v.to_bits()))
}

/// Digest of every parameter value of `model`, in visitation order.
pub fn param_digest(model: &mut dyn Module) -> u64 {
    let mut hash = FNV_START;
    model.visit_params(&mut |p| {
        hash = fnv1a(hash, p.value.as_slice().iter().map(|v| v.to_bits()));
    });
    hash
}
