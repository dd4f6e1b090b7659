//! Cache-blocked LUT-GEMM kernels for the AppMult layers.
//!
//! The retraining loop spends nearly all of its time evaluating
//! `out[m][j] = Σ_k table[(W[j][k] << B) | X[m][k]]` and the two Eq. 9
//! gradient sums — one dependent table gather per MAC. This crate houses
//! the kernel engine behind those loops:
//!
//! * [`Kernel::Naive`] is the reference scalar triple loop, kept verbatim
//!   as the conformance baseline;
//! * [`Kernel::Tiled`] blocks the iteration space over `(M, J, K)` so the
//!   quantized operand tiles and the LUT rows they touch stay resident in
//!   L1/L2, hoists each weight code's LUT row base (`wv << B`) once per
//!   `(j, k)`-tile and reuses it across every batch row of the M-tile
//!   (turning the 2-D gather into a 1-D indexed load off a register-held
//!   base), and register-blocks the accumulation — a 2×4 forward
//!   micro-kernel with eight independent `i64` accumulators, and K-chunks
//!   of eight `f32` output registers in the backward kernels. All table
//!   indexing is masked (`idx & (len - 1)`, power-of-two tables), which
//!   lets the compiler elide bounds checks without `unsafe`.
//!
//! **Exactness.** The forward accumulator is an exact `i64`, so tiling and
//! re-association are bit-safe: any summation order yields the same
//! integer, and the single dequantization of that integer yields the same
//! `f32`. The backward sums are `f32` and therefore order-sensitive; the
//! tiled backward kernels preserve the naive kernel's per-output
//! accumulation order exactly (ascending `j` for `dX`, ascending `m` for
//! `dW` — tiles only regroup *which rows are visited when*, never the
//! order of additions into one output element), so every kernel in this
//! crate is bit-identical to every other for all shapes and worker
//! partitions. The differential conformance suite in the workspace
//! root enforces this.
//!
//! Kernel selection: the [`set_global_kernel`] override, else
//! [`Kernel::Tiled`]. Layers copy [`Kernel::global`] at construction and
//! can be switched per instance, which is how the tests substitute
//! [`Kernel::Naive`]. The tile extents are compile-time constants
//! (`64 × 16 × 64`; DESIGN.md §11 gives the reasons).
//!
//! The kernels are chunk-level: callers (the `appmult-retrain` layers)
//! partition output rows across `appmult-pool` workers and invoke a kernel
//! per chunk, so tiles compose with worker chunks.
//!
//! # Example
//!
//! ```
//! use appmult_kernels::{forward_acc, GemmShape, Kernel};
//!
//! // 2x2 exact product LUT: table[(w << 1) | x] = w * x for 1-bit codes.
//! let table = [0u32, 0, 0, 1];
//! let shape = GemmShape { j: 1, k: 2, bits: 1 };
//! let wq = [1u16, 1]; // one weight row [1, 1]
//! let xq = [1u16, 0]; // one batch row [1, 0]
//! let mut acc = [0i64; 1];
//! forward_acc(Kernel::Tiled, shape, &table, &wq, &xq, &mut acc);
//! assert_eq!(acc, [1]); // 1*1 + 1*0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Mutex;

/// Batch-dimension (M) tile extent of the tiled kernel: the reuse
/// distance of each hoisted LUT row.
const MJ: usize = 64;
/// Output-dimension (J) tile extent of the tiled forward kernel.
const JK: usize = 16;
/// Reduction-dimension (K) tile extent: the hoisted-row working set
/// (≤ 64 × 2^B × 4 bytes) stays L2-resident while the operand tiles stay
/// in L1.
const KK: usize = 64;

/// Process-wide override installed by [`set_global_kernel`].
static GLOBAL_OVERRIDE: Mutex<Option<Kernel>> = Mutex::new(None);

/// LUT-GEMM kernel selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Reference scalar triple loop: one dependent 2-D table gather per
    /// MAC, no blocking. The conformance baseline.
    Naive,
    /// Cache-blocked kernel with fixed `64 × 16 × 64` tiles along the
    /// batch (M), output (J), and reduction (K) dimensions.
    Tiled,
}

impl Kernel {
    /// [`Kernel::Tiled`]. Kept only because the perfbench harness calls
    /// it; code in this workspace names `Kernel::Tiled`.
    pub const fn tiled_default() -> Self {
        Kernel::Tiled
    }

    /// The [`set_global_kernel`] override if installed, else
    /// [`Kernel::Tiled`].
    pub fn global() -> Self {
        GLOBAL_OVERRIDE
            .lock()
            .expect("kernel override lock")
            .unwrap_or(Kernel::Tiled)
    }

    /// Short human-readable label (`naive`, `tiled:64x16x64`).
    pub fn label(&self) -> String {
        match self {
            Kernel::Naive => "naive".to_string(),
            Kernel::Tiled => format!("tiled:{MJ}x{JK}x{KK}"),
        }
    }
}

/// Installs a process-wide kernel override that replaces the
/// [`Kernel::Tiled`] default (pass `None` to remove it). Intended for
/// benchmark harnesses; tests should prefer the explicit-kernel APIs.
pub fn set_global_kernel(kernel: Option<Kernel>) {
    *GLOBAL_OVERRIDE.lock().expect("kernel override lock") = kernel;
}

/// Shape of one LUT-GEMM: `J` output rows, `K` reduction steps, `B`-bit
/// operand codes (the product/gradient tables are `2^B × 2^B`, row-major
/// in the weight code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Output dimension (weight rows).
    pub j: usize,
    /// Reduction dimension (patch length / input features).
    pub k: usize,
    /// Operand bit width `B`.
    pub bits: u32,
}

impl GemmShape {
    /// Number of batch rows held by an operand slice of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `len` is not a whole number of rows.
    fn rows_of(&self, len: usize, what: &str) -> usize {
        assert!(self.k > 0, "k must be positive");
        assert_eq!(len % self.k, 0, "{what} length {len} not a multiple of k");
        len / self.k
    }

    /// Checks, for every kernel alike, that a table of `len` entries is the
    /// full `2^bits × 2^bits` product or gradient table.
    ///
    /// # Panics
    ///
    /// Panics if it is not.
    fn check_table(&self, len: usize) {
        let n = 1usize << self.bits;
        assert_eq!(len, n * n, "table must be 2^bits x 2^bits");
    }
}

/// Tile/hoist counters accumulated locally and flushed to the global
/// observability sink once per kernel call (the kernels run inside pool
/// workers, so per-tile atomic updates would be needless contention).
#[derive(Default)]
struct TileStats {
    tiles: u64,
    hoists: u64,
}

impl TileStats {
    fn flush(self) {
        if self.tiles > 0 {
            let obs = appmult_obs::global();
            obs.counter_add("kernel.tiles", self.tiles);
            obs.counter_add("kernel.lut_row_hoists", self.hoists);
        }
    }
}

/// Forward LUT-GEMM over one chunk of batch rows: sets
/// `acc[r][ji] = Σ_k table[(wq[ji][k] << bits) | xq[r][k]]` for every row
/// `r` of `xq` (prior `acc` contents are overwritten).
///
/// The accumulator is an exact `i64`, so every kernel produces the same
/// integers; dequantization is left to the caller.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `shape`, if `table` is
/// not `2^bits × 2^bits` (checked under every kernel), or if a code
/// indexes past `table` (codes must be `< 2^bits`).
pub fn forward_acc(
    kernel: Kernel,
    shape: GemmShape,
    table: &[u32],
    wq: &[u16],
    xq: &[u16],
    acc: &mut [i64],
) {
    let GemmShape { j, k, bits } = shape;
    let rows = shape.rows_of(xq.len(), "xq");
    assert_eq!(wq.len(), j * k, "wq length mismatch");
    assert_eq!(acc.len(), rows * j, "acc length mismatch");
    shape.check_table(table.len());
    if let Kernel::Naive = kernel {
        for (x_row, acc_row) in xq.chunks_exact(k).zip(acc.chunks_exact_mut(j)) {
            for (ji, a) in acc_row.iter_mut().enumerate() {
                let w_row = &wq[ji * k..(ji + 1) * k];
                let mut s = 0i64;
                for (wv, xv) in w_row.iter().zip(x_row) {
                    s += i64::from(table[((*wv as usize) << bits) | *xv as usize]);
                }
                *a = s;
            }
        }
        return;
    }

    // `(base | x) & mask` with a power-of-two table length proves the
    // index in range, so LLVM drops the per-gather bounds check. Operand
    // codes are < 2^bits (the quantizer clamps to qmax), so the mask
    // never changes a valid index.
    let mask = table.len() - 1;
    let mut stats = TileStats::default();
    acc.fill(0);
    let mut bases: Vec<u32> = Vec::new();
    for m0 in (0..rows).step_by(MJ) {
        let mt = MJ.min(rows - m0);
        for j0 in (0..j).step_by(JK) {
            let jt = JK.min(j - j0);
            for k0 in (0..k).step_by(KK) {
                let kt = KK.min(k - k0);
                stats.tiles += 1;
                // Hoist the LUT row base (`wv << bits`) of every weight
                // code in this (J-tile, K-tile) block once; each row is
                // then reused by all `mt` batch rows of the M-tile as a
                // 1-D indexed load.
                bases.clear();
                for ji in j0..j0 + jt {
                    for &wv in &wq[ji * k + k0..ji * k + k0 + kt] {
                        bases.push(u32::from(wv) << bits);
                    }
                }
                stats.hoists += (jt * kt) as u64;
                // 2 (J) x 4 (M) register micro-kernel: eight independent
                // i64 accumulators live in registers across the K-inner
                // loop — i64 addition is associative, so any grouping
                // yields the exact same sums.
                let mut jj = 0;
                while jj + 2 <= jt {
                    let b0 = &bases[jj * kt..(jj + 1) * kt];
                    let b1 = &bases[(jj + 1) * kt..(jj + 2) * kt];
                    let mut mm = m0;
                    while mm + 4 <= m0 + mt {
                        let x0 = &xq[mm * k + k0..mm * k + k0 + kt];
                        let x1 = &xq[(mm + 1) * k + k0..(mm + 1) * k + k0 + kt];
                        let x2 = &xq[(mm + 2) * k + k0..(mm + 2) * k + k0 + kt];
                        let x3 = &xq[(mm + 3) * k + k0..(mm + 3) * k + k0 + kt];
                        let (mut a00, mut a01) = (0i64, 0i64);
                        let (mut a10, mut a11) = (0i64, 0i64);
                        let (mut a20, mut a21) = (0i64, 0i64);
                        let (mut a30, mut a31) = (0i64, 0i64);
                        for t in 0..kt {
                            let r0 = b0[t] as usize;
                            let r1 = b1[t] as usize;
                            let (xa, xb) = (x0[t] as usize, x1[t] as usize);
                            let (xc, xd) = (x2[t] as usize, x3[t] as usize);
                            a00 += i64::from(table[(r0 | xa) & mask]);
                            a01 += i64::from(table[(r1 | xa) & mask]);
                            a10 += i64::from(table[(r0 | xb) & mask]);
                            a11 += i64::from(table[(r1 | xb) & mask]);
                            a20 += i64::from(table[(r0 | xc) & mask]);
                            a21 += i64::from(table[(r1 | xc) & mask]);
                            a30 += i64::from(table[(r0 | xd) & mask]);
                            a31 += i64::from(table[(r1 | xd) & mask]);
                        }
                        let ji = j0 + jj;
                        acc[mm * j + ji] += a00;
                        acc[mm * j + ji + 1] += a01;
                        acc[(mm + 1) * j + ji] += a10;
                        acc[(mm + 1) * j + ji + 1] += a11;
                        acc[(mm + 2) * j + ji] += a20;
                        acc[(mm + 2) * j + ji + 1] += a21;
                        acc[(mm + 3) * j + ji] += a30;
                        acc[(mm + 3) * j + ji + 1] += a31;
                        mm += 4;
                    }
                    for mi in mm..m0 + mt {
                        let x_seg = &xq[mi * k + k0..mi * k + k0 + kt];
                        acc[mi * j + j0 + jj] += dot_row(table, mask, b0, x_seg);
                        acc[mi * j + j0 + jj + 1] += dot_row(table, mask, b1, x_seg);
                    }
                    jj += 2;
                }
                if jj < jt {
                    let b0 = &bases[jj * kt..(jj + 1) * kt];
                    for mi in m0..m0 + mt {
                        let x_seg = &xq[mi * k + k0..mi * k + k0 + kt];
                        acc[mi * j + j0 + jj] += dot_row(table, mask, b0, x_seg);
                    }
                }
            }
        }
    }
    stats.flush();
}

/// One hoisted-row dot product: `Σ_t table[(bases[t] | x[t]) & mask]`,
/// unrolled into four independent i64 accumulators (exact under any
/// grouping).
#[inline]
fn dot_row(table: &[u32], mask: usize, bases: &[u32], x: &[u16]) -> i64 {
    let (mut a0, mut a1, mut a2, mut a3) = (0i64, 0i64, 0i64, 0i64);
    let mut bc = bases.chunks_exact(4);
    let mut xc = x.chunks_exact(4);
    for (bs, xs) in (&mut bc).zip(&mut xc) {
        a0 += i64::from(table[(bs[0] as usize | xs[0] as usize) & mask]);
        a1 += i64::from(table[(bs[1] as usize | xs[1] as usize) & mask]);
        a2 += i64::from(table[(bs[2] as usize | xs[2] as usize) & mask]);
        a3 += i64::from(table[(bs[3] as usize | xs[3] as usize) & mask]);
    }
    for (&b, &xv) in bc.remainder().iter().zip(xc.remainder()) {
        a0 += i64::from(table[(b as usize | xv as usize) & mask]);
    }
    a0 + a1 + a2 + a3
}

/// Backward `dX` half of Eq. 9 over one chunk of batch rows: adds
/// `g[r][ji] * scale * (table[(wq[ji][k] << bits) | xq[r][k]] - zero)`
/// into `dx[r][k]`, accumulating over `ji` in ascending order exactly as
/// the naive loop does (rows with `g == 0` are skipped by both kernels).
///
/// # Panics
///
/// Panics on inconsistent slice lengths, a `table` that is not
/// `2^bits × 2^bits` (checked under every kernel), or out-of-range codes.
#[allow(clippy::too_many_arguments)]
pub fn backward_dx(
    kernel: Kernel,
    shape: GemmShape,
    table: &[f32],
    wq: &[u16],
    xq: &[u16],
    g: &[f32],
    scale: f32,
    zero: f32,
    dx: &mut [f32],
) {
    let GemmShape { j, k, bits } = shape;
    let rows = shape.rows_of(xq.len(), "xq");
    assert_eq!(wq.len(), j * k, "wq length mismatch");
    assert_eq!(g.len(), rows * j, "g length mismatch");
    assert_eq!(dx.len(), rows * k, "dx length mismatch");
    shape.check_table(table.len());
    if let Kernel::Naive = kernel {
        for (mi, (dx_row, x_row)) in dx.chunks_exact_mut(k).zip(xq.chunks_exact(k)).enumerate() {
            for ji in 0..j {
                let gv = g[mi * j + ji];
                if gv == 0.0 {
                    continue;
                }
                let w_row = &wq[ji * k..(ji + 1) * k];
                for kk in 0..k {
                    let idx = ((w_row[kk] as usize) << bits) | x_row[kk] as usize;
                    dx_row[kk] += gv * scale * (table[idx] - zero);
                }
            }
        }
        return;
    }

    let mask = table.len() - 1;
    let mut stats = TileStats::default();
    // The f32 accumulation into dx[mi][kk] runs over `ji`; keeping the
    // whole ascending `ji` sweep innermost (per K-chunk of eight outputs
    // held in registers) preserves the naive kernel's addition order
    // exactly, so the sums round identically. The M and J tile extents
    // are irrelevant here — every batch row is visited once and the J
    // sweep cannot be split without reordering additions.
    for mi in 0..rows {
        let g_row = &g[mi * j..(mi + 1) * j];
        for k0 in (0..k).step_by(KK) {
            let kt = KK.min(k - k0);
            stats.tiles += 1;
            let mut c = 0;
            while c + 8 <= kt {
                let o = mi * k + k0 + c;
                let xs: [usize; 8] = core::array::from_fn(|t| xq[o + t] as usize);
                let mut d: [f32; 8] = core::array::from_fn(|t| dx[o + t]);
                for (ji, &gv) in g_row.iter().enumerate() {
                    if gv == 0.0 {
                        continue;
                    }
                    let f = gv * scale;
                    let w = ji * k + k0 + c;
                    for t in 0..8 {
                        let r = (wq[w + t] as usize) << bits;
                        d[t] += f * (table[(r | xs[t]) & mask] - zero);
                    }
                }
                dx[o..o + 8].copy_from_slice(&d);
                c += 8;
            }
            for t in c..kt {
                let o = mi * k + k0 + t;
                let xv = xq[o] as usize;
                let mut d = dx[o];
                for (ji, &gv) in g_row.iter().enumerate() {
                    if gv == 0.0 {
                        continue;
                    }
                    let r = (wq[ji * k + k0 + t] as usize) << bits;
                    d += gv * scale * (table[(r | xv) & mask] - zero);
                }
                dx[o] = d;
            }
        }
    }
    stats.flush();
}

/// Backward `dW` half of Eq. 9 over one chunk of weight rows
/// (`wq_rows`/`dw` hold rows `ji0..ji0 + rows` of the full `[J, K]`
/// buffers): adds `g[m][ji] * scale * (table[idx] - zero)` into
/// `dw[r][k]`, accumulating over `m` in ascending order exactly as the
/// naive loop does.
///
/// `xq` and `g` are the *full* `[M, K]` activation and `[M, J]` gradient
/// buffers (`shape.j` is the full `J`, the stride of `g`).
///
/// # Panics
///
/// Panics on inconsistent slice lengths, a `table` that is not
/// `2^bits × 2^bits` (checked under every kernel), or out-of-range codes.
#[allow(clippy::too_many_arguments)]
pub fn backward_dw(
    kernel: Kernel,
    shape: GemmShape,
    table: &[f32],
    wq_rows: &[u16],
    ji0: usize,
    xq: &[u16],
    g: &[f32],
    scale: f32,
    zero: f32,
    dw: &mut [f32],
) {
    let GemmShape { j, k, bits } = shape;
    let m = shape.rows_of(xq.len(), "xq");
    let rows = shape.rows_of(wq_rows.len(), "wq_rows");
    assert!(ji0 + rows <= j, "weight-row chunk exceeds J");
    assert_eq!(g.len(), m * j, "g length mismatch");
    assert_eq!(dw.len(), rows * k, "dw length mismatch");
    shape.check_table(table.len());
    if let Kernel::Naive = kernel {
        for (r, (dw_row, w_row)) in dw
            .chunks_exact_mut(k)
            .zip(wq_rows.chunks_exact(k))
            .enumerate()
        {
            let ji = ji0 + r;
            for mi in 0..m {
                let gv = g[mi * j + ji];
                if gv == 0.0 {
                    continue;
                }
                let x_row = &xq[mi * k..(mi + 1) * k];
                for kk in 0..k {
                    let idx = ((w_row[kk] as usize) << bits) | x_row[kk] as usize;
                    dw_row[kk] += gv * scale * (table[idx] - zero);
                }
            }
        }
        return;
    }

    let mask = table.len() - 1;
    let mut stats = TileStats::default();
    // The f32 accumulation into dw[ji][kk] runs over `mi`; the whole
    // ascending `mi` sweep stays innermost (per K-chunk of eight outputs
    // held in registers) so the sums round exactly as in the naive
    // kernel. The weight row is fixed per output row, so the eight LUT
    // row bases are hoisted into registers once per K-chunk and reused
    // across *all* M batch rows.
    for (r, (dw_row, w_row)) in dw
        .chunks_exact_mut(k)
        .zip(wq_rows.chunks_exact(k))
        .enumerate()
    {
        let ji = ji0 + r;
        for k0 in (0..k).step_by(KK) {
            let kt = KK.min(k - k0);
            stats.tiles += 1;
            stats.hoists += kt as u64;
            let mut c = 0;
            while c + 8 <= kt {
                let base = k0 + c;
                let rs: [usize; 8] = core::array::from_fn(|t| (w_row[base + t] as usize) << bits);
                let mut d: [f32; 8] = core::array::from_fn(|t| dw_row[base + t]);
                for mi in 0..m {
                    let gv = g[mi * j + ji];
                    if gv == 0.0 {
                        continue;
                    }
                    let f = gv * scale;
                    let o = mi * k + base;
                    for t in 0..8 {
                        let xv = xq[o + t] as usize;
                        d[t] += f * (table[(rs[t] | xv) & mask] - zero);
                    }
                }
                dw_row[base..base + 8].copy_from_slice(&d);
                c += 8;
            }
            for t in c..kt {
                let rb = (w_row[k0 + t] as usize) << bits;
                let mut d = dw_row[k0 + t];
                for mi in 0..m {
                    let gv = g[mi * j + ji];
                    if gv == 0.0 {
                        continue;
                    }
                    let xv = xq[mi * k + k0 + t] as usize;
                    d += gv * scale * (table[(rb | xv) & mask] - zero);
                }
                dw_row[k0 + t] = d;
            }
        }
    }
    stats.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_rng::Rng64;

    type Setup = (Vec<u32>, Vec<f32>, Vec<u16>, Vec<u16>, Vec<f32>);

    fn random_setup(seed: u64, m: usize, j: usize, k: usize, bits: u32) -> Setup {
        let mut rng = Rng64::seed_from_u64(seed);
        let n = 1usize << bits;
        let table: Vec<u32> = (0..n * n).map(|_| rng.next_u32() >> 16).collect();
        let ftable: Vec<f32> = (0..n * n).map(|_| rng.uniform_f32(-4.0, 4.0)).collect();
        let wq: Vec<u16> = (0..j * k).map(|_| rng.below(n as u64) as u16).collect();
        let xq: Vec<u16> = (0..m * k).map(|_| rng.below(n as u64) as u16).collect();
        let g: Vec<f32> = (0..m * j)
            .map(|_| {
                if rng.chance(0.2) {
                    0.0
                } else {
                    rng.uniform_f32(-1.0, 1.0)
                }
            })
            .collect();
        (table, ftable, wq, xq, g)
    }

    /// `(seed, m, j, k)` shapes below, at, one past, and two tiles past
    /// the fixed `64 × 16 × 64` extents, plus a zero batch.
    const CROSSING: [(u64, usize, usize, usize); 8] = [
        (1, 5, 3, 7),
        (2, 64, 16, 64),
        (3, 65, 17, 65),
        (4, 1, 1, 1),
        (5, 7, 2, 130),
        (6, 0, 3, 4),
        (7, 128, 32, 128),
        (8, 129, 33, 130),
    ];

    #[test]
    fn tiled_forward_matches_naive_on_awkward_shapes() {
        for (seed, m, j, k) in CROSSING {
            let bits = 6;
            let shape = GemmShape { j, k, bits };
            let (table, _, wq, xq, _) = random_setup(seed, m, j, k, bits);
            let mut naive = vec![i64::MIN; m * j];
            let mut tiled = vec![i64::MAX; m * j];
            forward_acc(Kernel::Naive, shape, &table, &wq, &xq, &mut naive);
            forward_acc(Kernel::Tiled, shape, &table, &wq, &xq, &mut tiled);
            assert_eq!(naive, tiled, "seed={seed} m={m} j={j} k={k}");
        }
    }

    #[test]
    fn tiled_backward_matches_naive_bit_for_bit() {
        for (seed, m, j, k) in CROSSING {
            let bits = 5;
            let shape = GemmShape { j, k, bits };
            let (_, ftable, wq, xq, g) = random_setup(seed + 10, m, j, k, bits);
            let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let dx = |kernel| {
                let mut dx = vec![0.0f32; m * k];
                backward_dx(kernel, shape, &ftable, &wq, &xq, &g, 0.37, 1.5, &mut dx);
                bits_of(&dx)
            };
            assert_eq!(dx(Kernel::Naive), dx(Kernel::Tiled), "dx seed={seed}");
            let dw = |kernel| {
                let mut dw = vec![0.0f32; j * k];
                backward_dw(
                    kernel, shape, &ftable, &wq, 0, &xq, &g, 0.81, -2.25, &mut dw,
                );
                bits_of(&dw)
            };
            assert_eq!(dw(Kernel::Naive), dw(Kernel::Tiled), "dw seed={seed}");
        }
    }

    #[test]
    fn chunked_invocation_matches_whole_buffer() {
        // Worker partitioning: running the kernel per chunk of batch rows
        // (forward/dx) or weight rows (dw) must reproduce the whole-buffer
        // result exactly — tiles compose with pool chunks, including
        // chunks that start or end inside a tile.
        let (m, j, k, bits) = (133usize, 33usize, 130usize, 6u32);
        let shape = GemmShape { j, k, bits };
        let (table, ftable, wq, xq, g) = random_setup(99, m, j, k, bits);
        let kernel = Kernel::Tiled;

        let mut whole = vec![0i64; m * j];
        forward_acc(kernel, shape, &table, &wq, &xq, &mut whole);
        for split in [1usize, 2, 5, 13] {
            let mut chunked = vec![0i64; m * j];
            let rows_per = m.div_ceil(split);
            for c0 in (0..m).step_by(rows_per.max(1)) {
                let rows = rows_per.min(m - c0);
                forward_acc(
                    kernel,
                    shape,
                    &table,
                    &wq,
                    &xq[c0 * k..(c0 + rows) * k],
                    &mut chunked[c0 * j..(c0 + rows) * j],
                );
            }
            assert_eq!(whole, chunked, "forward split={split}");
        }

        let mut dw_whole = vec![0.0f32; j * k];
        backward_dw(
            kernel,
            shape,
            &ftable,
            &wq,
            0,
            &xq,
            &g,
            0.5,
            0.25,
            &mut dw_whole,
        );
        let mut dw_chunked = vec![0.0f32; j * k];
        for ji0 in 0..j {
            backward_dw(
                kernel,
                shape,
                &ftable,
                &wq[ji0 * k..(ji0 + 1) * k],
                ji0,
                &xq,
                &g,
                0.5,
                0.25,
                &mut dw_chunked[ji0 * k..(ji0 + 1) * k],
            );
        }
        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits_of(&dw_whole), bits_of(&dw_chunked));
    }

    /// A table that is not `2^bits × 2^bits` is rejected by every kernel
    /// and every entry point, even when all codes index inside it.
    #[test]
    fn every_kernel_rejects_a_mis_sized_table() {
        let (m, j, k, bits) = (3usize, 2usize, 5usize, 2u32);
        let shape = GemmShape { j, k, bits };
        let (_, _, wq, xq, g) = random_setup(5, m, j, k, bits);
        // 32 entries where 2^2 × 2^2 = 16 are expected; codes < 4 index
        // at most entry 15, so only the size check can object.
        let table = vec![1u32; 32];
        let ftable = vec![0.5f32; 32];
        let rejects = |run: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("mis-sized table accepted");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("table must be 2^bits x 2^bits"), "{msg}");
        };
        for kernel in [Kernel::Naive, Kernel::Tiled] {
            rejects(&|| forward_acc(kernel, shape, &table, &wq, &xq, &mut vec![0; m * j]));
            rejects(&|| {
                let mut dx = vec![0.0; m * k];
                backward_dx(kernel, shape, &ftable, &wq, &xq, &g, 1.0, 0.0, &mut dx);
            });
            rejects(&|| {
                let mut dw = vec![0.0; j * k];
                backward_dw(kernel, shape, &ftable, &wq, 0, &xq, &g, 1.0, 0.0, &mut dw);
            });
        }
    }

    /// The labels are the `"kernel"` header of every JSON artifact.
    #[test]
    fn labels_name_the_fixed_extents() {
        assert_eq!(Kernel::Naive.label(), "naive");
        assert_eq!(Kernel::Tiled.label(), "tiled:64x16x64");
        assert_eq!(Kernel::tiled_default(), Kernel::Tiled);
    }

    #[test]
    fn tile_counters_reach_the_recording_sink() {
        let obs = appmult_obs::ObsSink::recording();
        appmult_obs::set_global(&obs);
        let (m, j, k, bits) = (65usize, 17usize, 65usize, 4u32);
        let shape = GemmShape { j, k, bits };
        let (table, _, wq, xq, _) = random_setup(7, m, j, k, bits);
        let mut acc = vec![0i64; m * j];
        forward_acc(Kernel::Tiled, shape, &table, &wq, &xq, &mut acc);
        appmult_obs::set_global(&appmult_obs::ObsSink::null());
        // One past each extent: 2 M-tiles × 2 J-tiles × 2 K-tiles. Each
        // M-tile hoists every (j, k) weight code once, 2 × 17 × 65 rows.
        // (>= rather than ==: concurrent sibling tests may also hit the
        // global sink while it is installed.)
        assert!(obs.counter("kernel.tiles") >= 8);
        assert!(obs.counter("kernel.lut_row_hoists") >= 2 * 17 * 65);
    }
}
