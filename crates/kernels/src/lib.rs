//! Cache-blocked LUT-GEMM kernels for the AppMult layers.
//!
//! The retraining loop spends nearly all of its time evaluating
//! `out[m][j] = Σ_k table[(W[j][k] << B) | X[m][k]]` and the two Eq. 9
//! gradient sums — naively one dependent table gather per MAC. This crate
//! houses the kernel engine behind those loops:
//!
//! * [`Kernel::Naive`] is the reference scalar triple loop, kept verbatim
//!   as the conformance baseline;
//! * [`Kernel::Tiled`] blocks the iteration space over `(M, J, K)` so the
//!   quantized operand tiles and the LUT rows they touch stay resident in
//!   L1/L2, hoists each weight code's LUT row base (`wv << B`) once per
//!   `(j, k)`-tile and reuses it across every batch row of the M-tile
//!   (turning the 2-D gather into a 1-D indexed load off a register-held
//!   base), and register-blocks the accumulation — a 2×4 forward
//!   micro-kernel with eight independent `i64` accumulators, and, for
//!   `dW`, K-chunks of eight `f32` output registers swept over a list of
//!   each channel's nonzero output gradients. All its table indexing is
//!   masked (`idx & (len - 1)`, power-of-two tables), which lets the
//!   compiler elide bounds checks without `unsafe`.
//! * `dX` has one row loop for every kernel ([`backward_dx`]): it skips a
//!   zero output gradient once for its whole `K` row, and real gradients
//!   are mostly zero behind a ReLU and max-pool, so no tiled loop beat it.
//! * Where a row table pays, the tiled forward is no longer a gather per
//!   MAC: a [`ForwardPlan`] copies each weight's `2^B`-entry LUT rows once
//!   into a *row table* of eight-channel `u16` lane groups, and each batch
//!   row then costs `K` lane-wise adds per group instead of `J · K`
//!   gathers. A plan that keeps its tables across GEMMs (an eval layer)
//!   builds one at any batch size; a plan that drops them builds one only
//!   above a rows rule. Either way the table must fit a 512 KiB cap.
//! * Without a row table, behind a ReLU most activation codes are 0 and
//!   every workload table has `product(w, 0) = 0`. When the product
//!   table's code-0 column is all zero and at least 3/8 of a chunk's codes
//!   are 0, a [`ForwardPlan`] lists each batch row's nonzero codes once
//!   and gathers only those, eight output channels at a time.
//!
//! **Exactness.** The forward accumulator is an exact `i64`, so tiling and
//! re-association are bit-safe: any summation order yields the same
//! integer, and the single dequantization of that integer yields the same
//! `f32`. The row table's lanes are exact too: a plan builds it only when
//! every entry fits a `u16` and `K` times the largest fits the `u32` lane
//! sum. The zero-code
//! skip leaves out only terms that read an all-zero column, each an exact
//! integer 0. The backward
//! sums are `f32` and therefore order-sensitive. Each output adds its
//! terms in ascending `j` (`dX`) or ascending `m` (`dW`) under every
//! kernel, each term is the product `(g · scale) · (G − zero)`, and every
//! path skips exactly the entries with `g == 0.0` (either sign; NaN is
//! kept). The tiled `dW` only regroups *which rows are visited when*, so
//! every kernel in this crate is bit-identical to every other for all
//! shapes and worker partitions. The differential conformance suite in
//! the workspace root enforces this.
//!
//! Kernel selection: the [`set_global_kernel`] override, else
//! [`Kernel::Tiled`]. Layers copy [`Kernel::global`] at construction and
//! can be switched per instance, which is how the tests substitute
//! [`Kernel::Naive`]. The tile extents are compile-time constants
//! (`64 × 16 × 64`; DESIGN.md §11 gives the reasons).
//!
//! The kernels are chunk-level: the caller (the `appmult-retrain` conv,
//! which the linear layer runs as a 1×1 conv) splits each GEMM into
//! `appmult-pool` blocks, of whole images for the forward and `dX` GEMMs
//! and of whole weight rows for `dW`, and invokes a kernel per image or
//! block, so tiles compose with pool blocks. The forward caller builds one
//! [`ForwardPlan`] per GEMM before it splits, so all blocks share one row
//! table; [`forward_acc`] plans per call. A caller whose weights stay put
//! across GEMMs (an eval layer) keeps the plan's weight-derived tables in
//! a [`PlanTables`] and builds each at most once, so its row table is
//! worth building even for one batch row.
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

use std::borrow::Cow;
use std::sync::Mutex;

/// Batch-dimension (M) tile extent of the tiled kernel: the reuse
/// distance of each hoisted LUT row.
const M_TILE: usize = 64;
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
            Kernel::Tiled => format!("tiled:{M_TILE}x{JK}x{KK}"),
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

/// Least batch rows per activation code (`rows / 2^B`) for which a plan
/// that drops its tables ([`ForwardPlan::new`]) builds a row table: its
/// `K · 2^B · J` entry copies then cost at most 1/8 of the GEMM's
/// `rows · J · K` lookups. A plan that keeps them builds one at any rows.
const ROW_TABLE_MIN_ROWS_PER_CODE: usize = 8;
/// Largest row table a [`ForwardPlan`] builds, in bytes of 16-byte
/// entries: it stays L2-resident and adds little to peak memory. A 1 or
/// 2 MiB cap admitted VGG-S conv4 and conv5, which then ran slower than
/// their zero-code skip (DESIGN.md §11).
const ROW_TABLE_MAX_BYTES: usize = 512 << 10;
/// Output channels per row-table entry: one `[u16; LANES]` group.
const LANES: usize = 8;
/// Batch rows a row-table pass interleaves, as independent chains of
/// lane sums (measured faster than one row or four).
const ROW_BLOCK: usize = 2;
/// Least share `(num, den)` of a chunk's activation codes that must be 0
/// for the hoisted-row path to list each row's nonzero codes and gather
/// only those.
const ZERO_SKIP_MIN_SHARE: (usize, usize) = (3, 8);

/// One forward LUT-GEMM — a kernel, a shape, a product table and the
/// quantized weights — prepared once for any number of calls over chunks
/// of its batch rows. [`run`](Self::run) sets
/// `acc[r][ji] = Σ_k table[(wq[ji][k] << bits) | xq[r][k]]` for every row
/// `r` of a chunk `xq` (prior `acc` contents are overwritten).
///
/// Under [`Kernel::Tiled`] the plan reads a *row table* when it repays
/// its build: `F[g][k][x]` holds, in `u16` lanes for the eight output
/// channels `ji` of group `g`, `table[(wq[ji][k] << bits) | x]`, so a
/// batch row's accumulators are `K` lane-wise `u32` adds of
/// `F[g][k][xq[r][k]]` per group instead of `J · K` scalar gathers. It is
/// read only when all of these hold, with no option to force it either
/// way:
///
/// * the plan keeps its tables ([`with_tables`](Self::with_tables)), so
///   the build serves every later GEMM over the same weights, or it drops
///   them ([`new`](Self::new)) and `rows ≥ 8 · 2^bits` (the build costs
///   at most 1/8 of the lookups);
/// * the table is at most 512 KiB, in 16-byte entries;
/// * every copied entry is at most `u16::MAX`, and `K` times the largest
///   is at most `u32::MAX`, so no lane sum can wrap.
///
/// Otherwise the plan runs the tiled kernel's hoisted-row loop, and checks
/// once whether the table's code-0 column is all zero (`table[w << bits]
/// == 0` for every `w`, as in every unsigned workload table). If it is,
/// [`run`](Self::run) counts a chunk's zero codes, and when at least 3/8
/// of them are 0 it leaves out their terms: per batch row it lists the
/// `(k, code)` pairs with a nonzero code, then per group of eight channels
/// sums `table[(wq[ji][k] << bits) | code]` over that list alone, off
/// weight-row bases (`⌈J/8⌉ × K` lane groups). A row-table plan never
/// skips: there a zero saves one lane-wise add, and listing the row costs
/// about as much.
///
/// The row table and the weight-row bases depend only on the weights, the
/// product table and the shape. [`new`](Self::new) builds the ones its
/// rows need and drops them with the plan; [`with_tables`](Self::with_tables)
/// keeps them in a caller's [`PlanTables`], so GEMMs over unchanged
/// weights build each at most once, whatever their row counts: the row
/// table on the first GEMM, or the weight-row bases if that is refused.
///
/// Integer addition is exact, a left-out term is an exact 0 and the
/// padded lanes past `J` are dropped, so every path yields the same
/// `i64` accumulators for every split of the rows into chunks.
///
/// # Example
///
/// ```
/// use appmult_kernels::{ForwardPlan, GemmShape, Kernel};
///
/// // 4-bit exact products; 128 = 8 · 2^4 batch rows reach the rule.
/// let table: Vec<u32> = (0..256u32).map(|i| (i >> 4) * (i & 15)).collect();
/// let shape = GemmShape { j: 3, k: 2, bits: 4 };
/// let wq = [1u16, 2, 3, 4, 5, 6]; // weight rows [1, 2], [3, 4], [5, 6]
/// let xq = [1u16; 128 * 2];
/// let plan = ForwardPlan::new(Kernel::Tiled, shape, &table, &wq, 128);
/// assert!(plan.uses_row_table());
/// let mut acc = [0i64; 128 * 3];
/// // Any split of the planned rows into chunks gives the same sums.
/// for (x, a) in xq.chunks(64 * 2).zip(acc.chunks_mut(64 * 3)) {
///     plan.run(x, a);
/// }
/// assert_eq!(acc[..3], [3, 7, 11]);
/// ```
///
/// # Panics
///
/// [`new`](Self::new) and [`with_tables`](Self::with_tables) panic if `wq`
/// is not `J × K` or `table` is not `2^bits × 2^bits` (under every
/// kernel), or if a weight code indexes past `table` while building a row
/// table; [`run`](Self::run) panics on slice lengths inconsistent with the
/// shape. Codes must be `< 2^bits`.
#[derive(Debug)]
pub struct ForwardPlan<'a> {
    shape: GemmShape,
    table: &'a [u32],
    wq: &'a [u16],
    tables: Cow<'a, PlanTables>,
    path: Path,
}

/// The loop a [`ForwardPlan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// The reference triple loop ([`Kernel::Naive`]).
    Naive,
    /// Lane-wise adds over the row table.
    RowTable,
    /// The hoisted-row loop, or the zero-code skip where the plan tables
    /// hold weight-row bases and a chunk is mostly zero codes.
    Hoisted,
}

/// The weight-derived tables of a [`ForwardPlan`]: the row table and the
/// zero-code skip's weight-row bases, each built on first need and then
/// kept, so GEMMs over one `(shape, table, wq)` build each at most once
/// (see [`ForwardPlan::with_tables`]). A kept plan tries the row table on
/// its first GEMM, so the bases are built only where it was refused. A
/// new value holds nothing.
#[derive(Debug, Clone, Default)]
pub struct PlanTables {
    /// `F[g][k][x]`, `⌈J/8⌉ × K × 2^bits` entries, once a plan tried it;
    /// `Some(None)` when the size cap, the `u16` guard or the wrap guard
    /// refused it.
    row_table: Option<Option<Vec<[u16; LANES]>>>,
    /// `base[g][k][t] = wq[8g + t][k] << bits` (0 past `J`), `⌈J/8⌉ × K`
    /// entries, once a plan ran without a row table; `Some(None)` when the
    /// product table's code-0 column is not all zero.
    live_bases: Option<Option<Vec<[u32; LANES]>>>,
}

impl PlanTables {
    /// The loop a plan runs, building on first need the table that loop
    /// reads. The row table is tried only when `try_row_table`.
    fn prepare(
        &mut self,
        kernel: Kernel,
        shape: GemmShape,
        table: &[u32],
        wq: &[u16],
        try_row_table: bool,
    ) -> Path {
        assert_eq!(wq.len(), shape.j * shape.k, "wq length mismatch");
        shape.check_table(table.len());
        if kernel == Kernel::Naive {
            return Path::Naive;
        }
        if try_row_table
            && self
                .row_table
                .get_or_insert_with(|| build_row_table(shape, table, wq))
                .is_some()
        {
            return Path::RowTable;
        }
        self.live_bases.get_or_insert_with(|| {
            let zero_column = (0..1usize << shape.bits).all(|w| table[w << shape.bits] == 0);
            zero_column.then(|| build_live_bases(shape, wq))
        });
        Path::Hoisted
    }

    fn row_table(&self) -> Option<&[[u16; LANES]]> {
        self.row_table.as_ref()?.as_deref()
    }

    fn live_bases(&self) -> Option<&[[u32; LANES]]> {
        self.live_bases.as_ref()?.as_deref()
    }
}

impl<'a> ForwardPlan<'a> {
    /// Plans the forward GEMM of `rows` batch rows (the rows of every
    /// chunk later passed to [`run`](Self::run)) against `wq`, trying the
    /// row table when `rows ≥ 8 · 2^bits`. Each table built adds one to
    /// the `kernel.row_tables` counter, each one refused by the cap or a
    /// guard one to `kernel.row_table_refusals`.
    pub fn new(
        kernel: Kernel,
        shape: GemmShape,
        table: &'a [u32],
        wq: &'a [u16],
        rows: usize,
    ) -> Self {
        let mut tables = PlanTables::default();
        let reaches_rule = rows / ROW_TABLE_MIN_ROWS_PER_CODE >= 1 << shape.bits;
        let path = tables.prepare(kernel, shape, table, wq, reaches_rule);
        Self {
            shape,
            table,
            wq,
            tables: Cow::Owned(tables),
            path,
        }
    }

    /// A plan over any number of batch rows that reads and keeps the
    /// weight-derived tables in `tables`: a table this plan needs is built
    /// only if `tables` lacks it. Since the row table then serves every
    /// later GEMM, the plan tries it whatever the batch size, under the
    /// cap and guards alone. `tables` must be new or have served only
    /// plans over the same `shape`, `table` and `wq` contents; the caller
    /// drops or replaces it when any of them changes.
    pub fn with_tables(
        kernel: Kernel,
        shape: GemmShape,
        table: &'a [u32],
        wq: &'a [u16],
        tables: &'a mut PlanTables,
    ) -> Self {
        let path = tables.prepare(kernel, shape, table, wq, true);
        Self {
            shape,
            table,
            wq,
            tables: Cow::Borrowed(tables),
            path,
        }
    }

    /// Whether [`run`](Self::run) reads a row table rather than the
    /// product table.
    pub fn uses_row_table(&self) -> bool {
        self.path == Path::RowTable
    }

    /// Computes the accumulators of one chunk of batch rows.
    ///
    /// # Panics
    ///
    /// Panics if `xq` is not a whole number of `K`-long rows or `acc` is
    /// not `J` per row.
    pub fn run(&self, xq: &[u16], acc: &mut [i64]) {
        let GemmShape { j, k, bits } = self.shape;
        let rows = self.shape.rows_of(xq.len(), "xq");
        assert_eq!(acc.len(), rows * j, "acc length mismatch");
        let (table, wq) = (self.table, self.wq);
        match self.path {
            Path::Naive => {
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
            }
            Path::RowTable => {
                let lanes = self.tables.row_table().expect("planned with a row table");
                run_row_table(self.shape, lanes, xq, acc);
            }
            Path::Hoisted => match self.tables.live_bases() {
                Some(bases) if mostly_zero_codes(xq) => {
                    forward_live_codes(self.shape, table, bases, xq, acc);
                }
                _ => forward_tiled(self.shape, table, wq, xq, acc),
            },
        }
    }
}

/// Whether at least `ZERO_SKIP_MIN_SHARE` of a chunk's activation codes
/// are 0, so that [`forward_live_codes`] beats [`forward_tiled`].
fn mostly_zero_codes(xq: &[u16]) -> bool {
    let zeros = xq.iter().filter(|&&x| x == 0).count();
    zeros * ZERO_SKIP_MIN_SHARE.1 >= xq.len() * ZERO_SKIP_MIN_SHARE.0
}

/// The weight-row bases of [`forward_live_codes`], k-major per lane
/// group: entry `g · K + k` holds `wq[8g + t][k] << bits` in lane `t`,
/// and 0 in the lanes past `J` (those lanes are read and dropped).
#[inline(never)]
fn build_live_bases(shape: GemmShape, wq: &[u16]) -> Vec<[u32; LANES]> {
    let GemmShape { j, k, bits } = shape;
    let mut bases = vec![[0u32; LANES]; j.div_ceil(LANES) * k];
    for (ji, w_row) in wq.chunks_exact(k).enumerate() {
        let group = &mut bases[ji / LANES * k..][..k];
        for (entry, &wv) in group.iter_mut().zip(w_row) {
            entry[ji % LANES] = u32::from(wv) << bits;
        }
    }
    bases
}

/// Hoisted-row forward that leaves out code-0 terms, for a product table
/// whose code-0 column is all zero (each such term adds an exact 0). Per
/// batch row it lists the `(k, code)` pairs with a nonzero code, then per
/// lane group runs eight independent `i64` sums of
/// `table[(base[g][k][t] | code) & mask]` over that list alone.
///
/// Kept out of line, with [`build_live_bases`]: inlined into
/// [`ForwardPlan::run`] and [`ForwardPlan::new`], they moved the code
/// placed after them and `retrain_lenet`, which barely runs them, read
/// 4–6% slower (DESIGN.md §11).
#[inline(never)]
fn forward_live_codes(
    shape: GemmShape,
    table: &[u32],
    bases: &[[u32; LANES]],
    xq: &[u16],
    acc: &mut [i64],
) {
    let GemmShape { j, k, .. } = shape;
    let mask = table.len() - 1;
    let mut live = vec![(0u32, 0u32); k];
    for (x_row, acc_row) in xq.chunks_exact(k).zip(acc.chunks_exact_mut(j)) {
        // Branchless: write every pair and advance past the nonzero ones.
        // A branch on the code mispredicts at real zero shares (measured
        // 0.72–0.80x of this loop at 47–89% zeros).
        let mut n = 0;
        for (kk, &x) in x_row.iter().enumerate() {
            live[n] = (kk as u32, u32::from(x));
            n += usize::from(x != 0);
        }
        let live = &live[..n];
        for (group, out) in bases.chunks_exact(k).zip(acc_row.chunks_mut(LANES)) {
            let mut sums = [0i64; LANES];
            for &(kk, x) in live {
                let base = &group[kk as usize];
                for t in 0..LANES {
                    sums[t] += i64::from(table[(base[t] | x) as usize & mask]);
                }
            }
            for (a, &s) in out.iter_mut().zip(&sums) {
                *a = s;
            }
        }
    }
}

/// Builds the row table of a [`ForwardPlan`] that tries one, or returns
/// `None` when the size cap, the `u16` guard or the wrap guard refuses it,
/// counting `kernel.row_tables` or `kernel.row_table_refusals`. The
/// guards' maximum is taken during the build, so a table that fails one
/// is built and then dropped.
#[inline(never)]
fn build_row_table(shape: GemmShape, table: &[u32], wq: &[u16]) -> Option<Vec<[u16; LANES]>> {
    let GemmShape { j, k, bits } = shape;
    let codes = 1usize << bits;
    let groups = j.div_ceil(LANES);
    let len = k.saturating_mul(codes).saturating_mul(groups);
    let bytes = len.saturating_mul(std::mem::size_of::<[u16; LANES]>());
    let obs = appmult_obs::global();
    if len == 0 || bytes > ROW_TABLE_MAX_BYTES {
        obs.counter_add("kernel.row_table_refusals", 1);
        return None;
    }
    let mut lanes = vec![[0u16; LANES]; len];
    let zeros = vec![0u32; codes];
    let mut max = 0u32;
    // Fill each (group, k) block of `2^bits` entries in order, reading the
    // group's eight product-table rows side by side; lanes past `J` read
    // zeros.
    for (g, group) in lanes.chunks_exact_mut(k * codes).enumerate() {
        for (kk, block) in group.chunks_exact_mut(codes).enumerate() {
            let src: [&[u32]; LANES] = std::array::from_fn(|t| {
                let ji = g * LANES + t;
                if ji < j {
                    &table[(wq[ji * k + kk] as usize) << bits..][..codes]
                } else {
                    &zeros[..]
                }
            });
            for (x, entry) in block.iter_mut().enumerate() {
                let wide: [u32; LANES] = std::array::from_fn(|t| src[t][x]);
                max = max.max(wide.iter().copied().max().unwrap_or(0));
                // Truncates only entries the `u16` guard below refuses.
                *entry = wide.map(|v| v as u16);
            }
        }
    }
    if max > u32::from(u16::MAX) || k as u64 * u64::from(max) > u64::from(u32::MAX) {
        obs.counter_add("kernel.row_table_refusals", 1);
        return None;
    }
    obs.counter_add("kernel.row_tables", 1);
    Some(lanes)
}

/// Row-table forward: per batch row and lane group `g`, `K` lane-wise
/// `u32` adds of the `u16` entries `F[g][k][xq[r][k]]`, widened to `i64`
/// once. The build's wrap guard keeps every lane sum within `u32`.
fn run_row_table(shape: GemmShape, lanes: &[[u16; LANES]], xq: &[u16], acc: &mut [i64]) {
    let GemmShape { j, k, .. } = shape;
    let mut xs = xq.chunks_exact(ROW_BLOCK * k);
    let mut accs = acc.chunks_exact_mut(ROW_BLOCK * j);
    for (x_rows, acc_rows) in (&mut xs).zip(&mut accs) {
        row_table_block::<ROW_BLOCK>(shape, lanes, x_rows, acc_rows);
    }
    let rest = xs.remainder().chunks_exact(k);
    for (x_row, acc_row) in rest.zip(accs.into_remainder().chunks_exact_mut(j)) {
        row_table_block::<1>(shape, lanes, x_row, acc_row);
    }
}

/// [`run_row_table`] over exactly `R` batch rows, one lane group at a
/// time, so the `R × 8` sums stay in registers.
fn row_table_block<const R: usize>(
    shape: GemmShape,
    lanes: &[[u16; LANES]],
    xq: &[u16],
    acc: &mut [i64],
) {
    let GemmShape { j, k, bits } = shape;
    let codes = 1usize << bits;
    // Masking the code keeps the entry index in range for any input, as
    // the tiled kernel's masked gathers do; valid codes are unchanged.
    let mask = codes - 1;
    // `K`-long row slices indexed under `0..K` carry no bounds check; a
    // strided `xq[r * K + k]` kept one per code (measured 7–16% slower).
    let rows: [&[u16]; R] = std::array::from_fn(|r| &xq[r * k..][..k]);
    for (g, group) in lanes.chunks_exact(k * codes).enumerate() {
        let mut sums = [[0u32; LANES]; R];
        for (f, kk) in group.chunks_exact(codes).zip(0..k) {
            for r in 0..R {
                let entry = &f[rows[r][kk] as usize & mask];
                for t in 0..LANES {
                    sums[r][t] += u32::from(entry[t]);
                }
            }
        }
        let lanes_here = LANES.min(j - g * LANES);
        for (r, s) in sums.iter().enumerate() {
            let out = &mut acc[r * j + g * LANES..][..lanes_here];
            for (a, &v) in out.iter_mut().zip(s) {
                *a = i64::from(v);
            }
        }
    }
}

/// Forward LUT-GEMM over one chunk of batch rows: sets
/// `acc[r][ji] = Σ_k table[(wq[ji][k] << bits) | xq[r][k]]` for every row
/// `r` of `xq` (prior `acc` contents are overwritten). This is
/// [`ForwardPlan::new`] over the chunk's own rows, then
/// [`ForwardPlan::run`], so the chunk's size decides whether a row table
/// is built: below the rule each MAC is one table gather, or none for a
/// code 0 that the zero-code skip leaves out.
///
/// The accumulator is an exact `i64`, so every kernel produces the same
/// integers; dequantization is left to the caller.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `shape` or if `table` is
/// not `2^bits × 2^bits`, under every kernel. [`Kernel::Naive`] also
/// panics on a code that indexes past `table`; [`Kernel::Tiled`] masks
/// the index (`idx & (len - 1)`) instead, so such a code reads a wrong
/// entry, except that a row-table build panics on such a weight code.
/// Codes must be `< 2^bits`.
pub fn forward_acc(
    kernel: Kernel,
    shape: GemmShape,
    table: &[u32],
    wq: &[u16],
    xq: &[u16],
    acc: &mut [i64],
) {
    let rows = shape.rows_of(xq.len(), "xq");
    ForwardPlan::new(kernel, shape, table, wq, rows).run(xq, acc);
}

/// The tiled kernel's hoisted-row forward loop over one chunk of batch
/// rows (lengths already checked by [`ForwardPlan`]).
fn forward_tiled(shape: GemmShape, table: &[u32], wq: &[u16], xq: &[u16], acc: &mut [i64]) {
    let GemmShape { j, k, bits } = shape;
    let rows = xq.len() / k;
    // `(base | x) & mask` with a power-of-two table length proves the
    // index in range, so LLVM drops the per-gather bounds check. Operand
    // codes are < 2^bits (the quantizer clamps to qmax), so the mask
    // never changes a valid index.
    let mask = table.len() - 1;
    let mut stats = TileStats::default();
    acc.fill(0);
    let mut bases: Vec<u32> = Vec::new();
    for m0 in (0..rows).step_by(M_TILE) {
        let mt = M_TILE.min(rows - m0);
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
/// into `dx[r][k]`, accumulating over `ji` in ascending order. A zero
/// `g[r][ji]` (either sign) is skipped once for its whole `K` row.
///
/// Every kernel runs this one row loop: the kernel argument no longer
/// selects a loop and is kept so callers that pass one need not change.
/// No tiled loop beat it on real layer shapes, and real output gradients
/// are mostly zero behind a ReLU and max-pool (DESIGN.md §11).
///
/// # Panics
///
/// Panics on inconsistent slice lengths, a `table` that is not
/// `2^bits × 2^bits`, or a code that indexes past `table` (codes must be
/// `< 2^bits`), under every kernel.
#[allow(clippy::too_many_arguments)]
pub fn backward_dx(
    _kernel: Kernel,
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
}

/// Backward `dW` half of Eq. 9 over one chunk of weight rows
/// (`wq_rows`/`dw` hold rows `ji0..ji0 + rows` of the full `[J, K]`
/// buffers): adds `g[m][ji] * scale * (table[idx] - zero)` into
/// `dw[r][k]`, accumulating over `m` in ascending order exactly as the
/// naive loop does. A zero `g[m][ji]` (either sign) adds nothing.
///
/// Under [`Kernel::Tiled`] each channel first lists its nonzero
/// `(m · K, g[m][ji] · scale)` pairs in ascending `m`, then sweeps
/// K-chunks of eight `f32` output registers over that list alone, so the
/// zero rows of a sparse gradient cost nothing past the listing.
///
/// `xq` and `g` are the *full* `[M, K]` activation and `[M, J]` gradient
/// buffers (`shape.j` is the full `J`, the stride of `g`).
///
/// # Panics
///
/// Panics on inconsistent slice lengths or a `table` that is not
/// `2^bits × 2^bits`, under every kernel. [`Kernel::Naive`] also panics
/// on a code that indexes past `table`; [`Kernel::Tiled`] masks the index
/// (`idx & (len - 1)`) instead, so such a code reads a wrong entry. Codes
/// must be `< 2^bits`.
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
    // One channel's nonzero `(m · K, g · scale)` pairs, ascending `m`.
    let mut live: Vec<(usize, f32)> = Vec::with_capacity(m);
    // The f32 accumulation into dw[ji][kk] runs over the listed rows in
    // ascending `m`, innermost per K-chunk of eight outputs held in
    // registers. The list drops exactly the rows the naive loop skips and
    // keeps each product `(g · scale) · (G - zero)`, so the sums round as
    // in the naive kernel. The weight row is fixed per output row, so the
    // eight LUT row bases are hoisted into registers once per K-chunk and
    // reused across every listed row.
    for (r, (dw_row, w_row)) in dw
        .chunks_exact_mut(k)
        .zip(wq_rows.chunks_exact(k))
        .enumerate()
    {
        let ji = ji0 + r;
        live.clear();
        live.extend((0..m).filter_map(|mi| {
            let gv = g[mi * j + ji];
            (gv != 0.0).then(|| (mi * k, gv * scale))
        }));
        for k0 in (0..k).step_by(KK) {
            let kt = KK.min(k - k0);
            stats.tiles += 1;
            stats.hoists += kt as u64;
            let mut c = 0;
            while c + 8 <= kt {
                let base = k0 + c;
                let rs: [usize; 8] = core::array::from_fn(|t| (w_row[base + t] as usize) << bits);
                let mut d: [f32; 8] = core::array::from_fn(|t| dw_row[base + t]);
                for &(o, f) in &live {
                    let xs = &xq[o + base..o + base + 8];
                    for t in 0..8 {
                        d[t] += f * (table[(rs[t] | xs[t] as usize) & mask] - zero);
                    }
                }
                dw_row[base..base + 8].copy_from_slice(&d);
                c += 8;
            }
            for t in c..kt {
                let rb = (w_row[k0 + t] as usize) << bits;
                let mut d = dw_row[k0 + t];
                for &(o, f) in &live {
                    d += f * (table[(rb | xq[o + k0 + t] as usize) & mask] - zero);
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

    /// Real output gradients are mostly zero (ReLU, max-pool), and the
    /// tiled `dW` walks a list of each channel's nonzero rows. Along a
    /// sparsity axis — zero fractions 0, 0.15, 0.9 and 1, then 0.9 with an
    /// all-zero channel and all-zero batch rows, with `-0.0` entries, and
    /// with NaN entries — tiled `dX` and `dW`, run as 1 and 3 chunks, must
    /// match whole-buffer naive bit for bit.
    #[test]
    fn sparse_backward_matches_naive_bit_for_bit() {
        let (m, j, k, bits) = (133usize, 9usize, 75usize, 6u32);
        let shape = GemmShape { j, k, bits };
        let (_, ftable, wq, xq, _) = random_setup(21, m, j, k, bits);
        let mut rng = Rng64::seed_from_u64(22);
        let mut cases = Vec::new();
        for zeros in [0.0, 0.15, 0.9, 1.0] {
            let g: Vec<f32> = (0..m * j)
                .map(|_| {
                    if rng.chance(zeros) {
                        0.0
                    } else {
                        rng.uniform_f32(-1.0, 1.0)
                    }
                })
                .collect();
            cases.push((format!("zeros={zeros}"), g));
        }
        let sparse = cases[2].1.clone();
        let mut g = sparse.clone();
        for row in g.chunks_mut(j) {
            row[4] = 0.0;
        }
        for mi in [0, m / 2, m - 1] {
            g[mi * j..(mi + 1) * j].fill(0.0);
        }
        cases.push(("zero channel and rows".into(), g));
        let mut g = sparse.clone();
        for v in g.iter_mut().skip(1).step_by(2) {
            if *v == 0.0 {
                *v = -0.0;
            }
        }
        cases.push(("negative zeros".into(), g));
        let mut g = sparse;
        g[40 * j + 2] = f32::NAN;
        g[m * j - 1] = f32::NAN;
        cases.push(("NaN entries".into(), g));

        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (label, g) in &cases {
            let mut dx_ref = vec![0.0f32; m * k];
            backward_dx(
                Kernel::Naive,
                shape,
                &ftable,
                &wq,
                &xq,
                g,
                0.37,
                1.5,
                &mut dx_ref,
            );
            let mut dw_ref = vec![0.0f32; j * k];
            backward_dw(
                Kernel::Naive,
                shape,
                &ftable,
                &wq,
                0,
                &xq,
                g,
                0.81,
                -2.25,
                &mut dw_ref,
            );
            for parts in [1usize, 3] {
                let mut dx = vec![0.0f32; m * k];
                let rows_per = m.div_ceil(parts);
                for (c, chunk) in dx.chunks_mut(rows_per * k).enumerate() {
                    let (r0, r1) = (c * rows_per, c * rows_per + chunk.len() / k);
                    let (xs, gs) = (&xq[r0 * k..r1 * k], &g[r0 * j..r1 * j]);
                    backward_dx(Kernel::Tiled, shape, &ftable, &wq, xs, gs, 0.37, 1.5, chunk);
                }
                assert_eq!(bits_of(&dx), bits_of(&dx_ref), "dx {label} parts={parts}");
                let mut dw = vec![0.0f32; j * k];
                let rows_per = j.div_ceil(parts);
                for (c, chunk) in dw.chunks_mut(rows_per * k).enumerate() {
                    let ji0 = c * rows_per;
                    let ws = &wq[ji0 * k..ji0 * k + chunk.len()];
                    backward_dw(
                        Kernel::Tiled,
                        shape,
                        &ftable,
                        ws,
                        ji0,
                        &xq,
                        g,
                        0.81,
                        -2.25,
                        chunk,
                    );
                }
                assert_eq!(bits_of(&dw), bits_of(&dw_ref), "dw {label} parts={parts}");
            }
        }
    }

    /// `backward_dx` runs one loop under every kernel, so a code that
    /// indexes past the table panics under [`Kernel::Tiled`] too.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn tiled_dx_panics_on_a_code_past_the_table() {
        let shape = GemmShape {
            j: 1,
            k: 1,
            bits: 2,
        };
        let table = [0.5f32; 16];
        let mut dx = [0.0f32];
        // Weight code 4 = 2^2 indexes entry (4 << 2) | 0 = 16.
        backward_dx(
            Kernel::Tiled,
            shape,
            &table,
            &[4],
            &[0],
            &[1.0],
            1.0,
            0.0,
            &mut dx,
        );
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

    /// The zero-code skip is planned only for a tiled plan without a row
    /// table whose product table has an all-zero code-0 column, and a
    /// chunk takes it from 3/8 zero codes up.
    #[test]
    fn zero_code_skip_follows_the_code_0_column_and_the_zero_share() {
        let shape = GemmShape {
            j: 3,
            k: 8,
            bits: 4,
        };
        let exact: Vec<u32> = (0..256u32).map(|i| (i >> 4) * (i & 15)).collect();
        let mut one = exact.clone();
        one[3 << 4] = 1;
        let wq = [5u16; 24];
        let skips = |kernel, table: &[u32], rows| {
            let plan = ForwardPlan::new(kernel, shape, table, &wq, rows);
            plan.path == Path::Hoisted && plan.tables.live_bases().is_some()
        };
        assert!(skips(Kernel::Tiled, &exact, 8 * 16 - 1));
        assert!(!skips(Kernel::Tiled, &one, 8 * 16 - 1));
        assert!(!skips(Kernel::Naive, &exact, 8 * 16 - 1));
        assert!(!skips(Kernel::Tiled, &exact, 8 * 16), "row table");
        assert!(mostly_zero_codes(&[0, 0, 0, 1, 1, 1, 1, 1]));
        assert!(!mostly_zero_codes(&[0, 0, 1, 1, 1, 1, 1, 1]));
        assert!(!mostly_zero_codes(&[0, 0, 0, 1, 1, 1, 1, 1, 1]));
    }

    /// The row table's widened lane sums stay exact at their extremes: a
    /// 2-bit table of entries within 8 of `u16::MAX`, `K = 4096` (sums
    /// near 2^28) and `J = 9` fill exactly the 512 KiB cap; one more `k`
    /// is over it. A kept plan reads the table at 1 and 3 rows (the odd
    /// row runs alone) and equals naive on both sides of the cap.
    #[test]
    fn row_table_sums_u16_max_entries_at_the_cap() {
        let (j, bits) = (9usize, 2u32);
        let mut rng = Rng64::seed_from_u64(0xCA9);
        let table: Vec<u32> = (0..16)
            .map(|_| u32::from(u16::MAX) - rng.below(8) as u32)
            .collect();
        for (k, fits) in [(4096usize, true), (4097, false)] {
            let shape = GemmShape { j, k, bits };
            let wq: Vec<u16> = (0..j * k).map(|_| rng.below(4) as u16).collect();
            let mut tables = PlanTables::default();
            for m in [1usize, 3] {
                let xq: Vec<u16> = (0..m * k).map(|_| rng.below(4) as u16).collect();
                let mut want = vec![0i64; m * j];
                forward_acc(Kernel::Naive, shape, &table, &wq, &xq, &mut want);
                let plan = ForwardPlan::with_tables(Kernel::Tiled, shape, &table, &wq, &mut tables);
                assert_eq!(plan.uses_row_table(), fits, "k={k}");
                let mut acc = vec![i64::MIN; m * j];
                plan.run(&xq, &mut acc);
                assert_eq!(acc, want, "k={k} m={m}");
            }
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
