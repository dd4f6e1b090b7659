//! Differential conformance suite for the LUT-GEMM kernel engine.
//!
//! The tiled kernel in `appmult-kernels` promises bit-identity with the
//! naive reference loops for every shape, thread count, and gradient
//! mode. Its tile extents are fixed at `64 × 16 × 64`, so the suite
//! varies shapes × threads, two ways:
//!
//! * at the kernel level, with `appmult_rng::prop`-driven randomized
//!   (shape, seed) cases whose shapes cross every fixed extent — exact
//!   multiples, one past, two tiles past, and zero-sized batches — greedily
//!   shrunk to a minimal failing case;
//! * at the kernel level again, along a gradient-sparsity axis (zero
//!   fractions 0 to 1, all-zero channels and batch rows, `-0.0` and NaN
//!   entries), since both Eq. 9 passes skip zero output gradients;
//! * at the kernel level again, with one `ForwardPlan` per forward GEMM
//!   on both sides of the row-table rule (batch rows `8 · 2^B − 1` and
//!   `8 · 2^B`, a table over the size cap, a largest entry of `u16::MAX`
//!   and one past it), and with a plan that keeps its tables below the
//!   rule, run chunk-wise as the layers run it;
//! * at the kernel level again, along an activation-sparsity axis (zero
//!   code shares 0 to 1, all-zero batch rows, a chunk split across the
//!   3/8 zero-share rule), since the hoisted-row forward leaves out
//!   code-0 terms when the table's code-0 column is all zero, plus two
//!   tables whose code-0 column is not, which must keep those terms;
//! * at the layer level, where `ApproxLinear`/`ApproxConv2d` outputs and
//!   gradients must agree across kernels for all five `GradientMode`s.
//!   Every layer test names both kernels explicitly, so the result does
//!   not depend on the process-wide default; the CI kernel-parity job
//!   runs this file at 1 and 4 threads;
//! * at the layer level again, where one FNV-1a digest per (design,
//!   gradient mode) pins every `ApproxLinear` output and gradient bit
//!   across kernels, train and eval forwards and batch sizes.
//!
//! Comparisons are `to_bits`, never approximate: no case may diverge by
//! even one bit.

use std::sync::Arc;

use appmult::kernels::{
    backward_dw, backward_dx, forward_acc, ForwardPlan, GemmShape, Kernel, PlanTables,
};
use appmult::mult::{zoo, Multiplier, MultiplierLut, SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult::nn::layers::Conv2dSpec;
use appmult::nn::{Module, Tensor};
use appmult::retrain::{ApproxConv2d, ApproxLinear, GradientLut, GradientMode, QuantConfig};
use appmult_pool::Pool;
use appmult_rng::{prop, Rng64};

/// One conformance case: `((m, j, k), seed)`.
type Case = ((usize, usize, usize), u64);

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Corner cases first (exactly one tile, one past every extent, exactly
/// two tiles, two tiles plus a remainder, zero batch), then seeded random
/// shapes that straddle the fixed `64 × 16 × 64` extents in every
/// dimension.
fn generate_case(rng: &mut Rng64, case: usize) -> Case {
    match case {
        0 => ((64, 16, 64), 0),
        1 => ((65, 17, 65), 1),
        2 => ((128, 32, 128), 2),
        3 => ((129, 33, 130), 3),
        4 => ((0, 17, 65), 4),
        _ => (
            (
                rng.below(141) as usize, // m may be 0
                rng.below(40) as usize + 1,
                rng.below(200) as usize + 1,
            ),
            rng.next_u64(),
        ),
    }
}

/// Greedy shrink proposals: halve or decrement each shape dimension
/// (floored so `j`/`k` stay ≥ 1, `m` may reach 0), and try the zero seed.
fn shrink_case(&((m, j, k), seed): &Case) -> Vec<Case> {
    let mut out = vec![
        ((m / 2, j, k), seed),
        ((m.saturating_sub(1), j, k), seed),
        ((m, (j / 2).max(1), k), seed),
        ((m, (j - 1).max(1), k), seed),
        ((m, j, (k / 2).max(1)), seed),
        ((m, j, (k - 1).max(1)), seed),
    ];
    if seed != 0 {
        out.push(((m, j, k), 0));
    }
    out
}

/// `len` output-gradient entries, each `0.0` with probability `zeros`,
/// else uniform in `[-1, 1)`.
fn gradient(rng: &mut Rng64, len: usize, zeros: f64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.chance(zeros) {
                0.0
            } else {
                rng.uniform_f32(-1.0, 1.0)
            }
        })
        .collect()
}

/// The conformance property: for the given case, the tiled kernel — run
/// chunk-wise under worker pools of 1 and 3 threads — must reproduce the
/// whole-buffer naive kernel bit for bit in forward, `dX`, and `dW`.
fn kernel_case_conforms(&((m, j, k), seed): &Case) -> bool {
    gemm_conforms((m, j, k), seed, |rng| gradient(rng, m * j, 0.15))
}

/// [`kernel_case_conforms`] with the output gradient drawn by `make_g`
/// (after the tables and codes, from the same seeded stream).
fn gemm_conforms(
    (m, j, k): (usize, usize, usize),
    seed: u64,
    make_g: impl FnOnce(&mut Rng64) -> Vec<f32>,
) -> bool {
    let bits = 6u32;
    let n = 1usize << bits;
    let mut rng = Rng64::seed_from_u64(seed);
    let table: Vec<u32> = (0..n * n).map(|_| rng.next_u32() >> 16).collect();
    let gw: Vec<f32> = (0..n * n).map(|_| rng.uniform_f32(-3.0, 3.0)).collect();
    let gx: Vec<f32> = (0..n * n).map(|_| rng.uniform_f32(-3.0, 3.0)).collect();
    let wq: Vec<u16> = (0..j * k).map(|_| rng.below(n as u64) as u16).collect();
    let xq: Vec<u16> = (0..m * k).map(|_| rng.below(n as u64) as u16).collect();
    let g = make_g(&mut rng);
    let shape = GemmShape { j, k, bits };
    let tiled = Kernel::Tiled;
    let (sw, zw, sx, zx) = (0.37f32, 3.0f32, 0.59f32, 2.0f32);

    let mut acc_ref = vec![0i64; m * j];
    forward_acc(Kernel::Naive, shape, &table, &wq, &xq, &mut acc_ref);
    let mut dx_ref = vec![0.0f32; m * k];
    backward_dx(Kernel::Naive, shape, &gx, &wq, &xq, &g, sw, zw, &mut dx_ref);
    let mut dw_ref = vec![0.0f32; j * k];
    backward_dw(
        Kernel::Naive,
        shape,
        &gw,
        &wq,
        0,
        &xq,
        &g,
        sx,
        zx,
        &mut dw_ref,
    );

    for threads in [1usize, 3] {
        let pool = Pool::new(threads);
        let mut acc = vec![0i64; m * j];
        pool.run_rows(&mut acc, j, |mi0, chunk| {
            let rows = chunk.len() / j;
            forward_acc(
                tiled,
                shape,
                &table,
                &wq,
                &xq[mi0 * k..(mi0 + rows) * k],
                chunk,
            );
        });
        if acc != acc_ref {
            return false;
        }
        let mut dx = vec![0.0f32; m * k];
        pool.run_rows(&mut dx, k, |mi0, chunk| {
            let rows = chunk.len() / k;
            backward_dx(
                tiled,
                shape,
                &gx,
                &wq,
                &xq[mi0 * k..(mi0 + rows) * k],
                &g[mi0 * j..(mi0 + rows) * j],
                sw,
                zw,
                chunk,
            );
        });
        if bits_of(&dx) != bits_of(&dx_ref) {
            return false;
        }
        let mut dw = vec![0.0f32; j * k];
        pool.run_rows(&mut dw, k, |ji0, chunk| {
            let rows = chunk.len() / k;
            backward_dw(
                tiled,
                shape,
                &gw,
                &wq[ji0 * k..(ji0 + rows) * k],
                ji0,
                &xq,
                &g,
                sx,
                zx,
                chunk,
            );
        });
        if bits_of(&dw) != bits_of(&dw_ref) {
            return false;
        }
    }
    true
}

#[test]
fn tiled_kernels_are_bit_identical_to_naive_across_random_cases() {
    prop::forall_with(
        "tiled LUT-GEMM kernels conform to naive",
        0xC0FFEE,
        48,
        generate_case,
        shrink_case,
        kernel_case_conforms,
    );
}

/// Real output gradients are mostly zero: behind LeNet's ReLU and 2×2
/// max-pool, 81–89% of the entries are. Both Eq. 9 passes skip a zero
/// entry, so sparsity is an axis of its own: zero fractions 0, 0.15, 0.9
/// and 1, then 0.9 with an all-zero output channel and all-zero batch
/// rows, with `-0.0` entries, and with NaN entries (which both paths
/// keep). Shapes: LeNet conv1's `J × K` at 576 rows, two tile-crossing
/// shapes and a small one.
#[test]
fn sparse_gradients_conform() {
    type Variant = fn(&mut [f32], usize, usize);
    let variants: [(&str, Variant); 3] = [
        ("zero channel and rows", |g, m, j| {
            for row in g.chunks_mut(j) {
                row[j / 2] = 0.0;
            }
            for mi in [0, m / 2, m - 1] {
                g[mi * j..(mi + 1) * j].fill(0.0);
            }
        }),
        ("negative zeros", |g, _, _| {
            for v in g.iter_mut().skip(1).step_by(2) {
                if *v == 0.0 {
                    *v = -0.0;
                }
            }
        }),
        ("NaN entries", |g, m, j| {
            g[(m / 3) * j] = f32::NAN;
            g[m * j - 1] = f32::NAN;
        }),
    ];
    for (si, (m, j, k)) in [(576, 6, 75), (129, 33, 130), (65, 17, 65), (7, 3, 9)]
        .into_iter()
        .enumerate()
    {
        let seed = 0x5BA45E + si as u64;
        for zeros in [0.0, 0.15, 0.9, 1.0] {
            assert!(
                gemm_conforms((m, j, k), seed, |rng| gradient(rng, m * j, zeros)),
                "tiled diverged from naive: m={m} j={j} k={k} zeros={zeros}"
            );
        }
        for (label, edit) in variants {
            let make_g = |rng: &mut Rng64| {
                let mut g = gradient(rng, m * j, 0.9);
                edit(&mut g, m, j);
                g
            };
            assert!(
                gemm_conforms((m, j, k), seed, make_g),
                "tiled diverged from naive: m={m} j={j} k={k} {label}"
            );
        }
    }
}

/// The row-table rule of a plan that drops its tables, restated: at
/// least 8 batch rows per activation code and at most 512 KiB of
/// `[u16; 8]` lane groups. (The tables below hold entries that fit a
/// `u16`, as every product table of at most 8 bits does.)
fn row_table_expected(m: usize, j: usize, k: usize, bits: u32) -> bool {
    m >= 8 << bits && k * (1 << bits) * j.div_ceil(8) * 16 <= 512 << 10
}

/// [`plan_matches_naive`] on uniformly random codes.
fn plan_conforms(table: &[u32], shape: GemmShape, m: usize, seed: u64) -> bool {
    let GemmShape { j, k, bits } = shape;
    let mut rng = Rng64::seed_from_u64(seed);
    let n = 1u64 << bits;
    let wq: Vec<u16> = (0..j * k).map(|_| rng.below(n) as u16).collect();
    let xq: Vec<u16> = (0..m * k).map(|_| rng.below(n) as u16).collect();
    plan_matches_naive(table, shape, &wq, &xq, "random codes")
}

/// Builds one `ForwardPlan::new` over all of `xq`'s rows and checks it
/// with [`run_matches_naive`]. Returns whether the plan used a row table.
fn plan_matches_naive(
    table: &[u32],
    shape: GemmShape,
    wq: &[u16],
    xq: &[u16],
    label: &str,
) -> bool {
    let plan = ForwardPlan::new(Kernel::Tiled, shape, table, wq, xq.len() / shape.k);
    run_matches_naive(&plan, table, shape, wq, xq, label)
}

/// Runs `plan` chunk-wise over `xq` under pools of 1 and 3 threads and
/// asserts the result equals the whole-buffer naive kernel. Returns
/// whether the plan used a row table.
fn run_matches_naive(
    plan: &ForwardPlan,
    table: &[u32],
    shape: GemmShape,
    wq: &[u16],
    xq: &[u16],
    label: &str,
) -> bool {
    let GemmShape { j, k, bits } = shape;
    let m = xq.len() / k;
    let mut want = vec![0i64; m * j];
    forward_acc(Kernel::Naive, shape, table, wq, xq, &mut want);
    for threads in [1usize, 3] {
        let mut acc = vec![i64::MIN; m * j];
        Pool::new(threads).run_rows(&mut acc, j, |mi0, chunk| {
            let rows = chunk.len() / j;
            plan.run(&xq[mi0 * k..(mi0 + rows) * k], chunk);
        });
        assert_eq!(
            acc, want,
            "plan diverged from naive: m={m} j={j} k={k} bits={bits} threads={threads} {label}"
        );
    }
    plan.uses_row_table()
}

#[test]
fn forward_plan_matches_naive_on_both_sides_of_the_row_table_rule() {
    for bits in [4u32, 6, 8] {
        let n = 1usize << bits;
        let mut rng = Rng64::seed_from_u64(u64::from(bits));
        let table: Vec<u32> = (0..n * n).map(|_| rng.next_u32() >> 16).collect();
        for m in [8 * n - 1, 8 * n] {
            for j in [1, 7, 8, 9, 17] {
                for k in [1, 75, 130] {
                    let shape = GemmShape { j, k, bits };
                    let used = plan_conforms(&table, shape, m, (m * 1000 + j * 10 + k) as u64);
                    assert_eq!(
                        used,
                        row_table_expected(m, j, k, bits),
                        "row-table rule: m={m} j={j} k={k} bits={bits}"
                    );
                }
            }
        }
    }

    // Over the cap: 130 × 64 codes × 5 lane groups × 16 bytes = 650 KiB.
    let mut rng = Rng64::seed_from_u64(6);
    let table: Vec<u32> = (0..1 << 12).map(|_| rng.next_u32() >> 16).collect();
    let shape = GemmShape {
        j: 33,
        k: 130,
        bits: 6,
    };
    assert!(
        !plan_conforms(&table, shape, 8 * 64, 7),
        "table over the cap"
    );

    // Entries far past a u16 (and 130 of them past a u32 lane): the plan
    // falls back and the i64 sums still match naive.
    let table: Vec<u32> = (0..1 << 8)
        .map(|i| u32::MAX / 100 - i as u32 * 1000)
        .collect();
    let shape = GemmShape {
        j: 9,
        k: 130,
        bits: 4,
    };
    assert!(!plan_conforms(&table, shape, 8 * 16, 8), "table past u16");

    // The u16 guard's boundary: a largest copied entry of 65,535 builds
    // the table, 65,536 refuses it. Row 0 reads that entry, so a table
    // that truncated it would diverge from naive.
    let shape = GemmShape {
        j: 9,
        k: 75,
        bits: 6,
    };
    let mut rng = Rng64::seed_from_u64(9);
    let mut table: Vec<u32> = (0..1 << 12).map(|_| rng.next_u32() >> 17).collect();
    let mut wq: Vec<u16> = (0..9 * 75).map(|_| rng.below(64) as u16).collect();
    let mut xq: Vec<u16> = (0..8 * 64 * 75).map(|_| rng.below(64) as u16).collect();
    (wq[0], xq[0]) = (3, 5);
    for (largest, builds) in [(65_535u32, true), (65_536, false)] {
        table[(3 << 6) | 5] = largest;
        let label = format!("largest entry {largest}");
        let used = plan_matches_naive(&table, shape, &wq, &xq, &label);
        assert_eq!(used, builds, "{label}");
    }
}

/// A plan that keeps its tables (an eval layer's) reads a row table at
/// any batch size the cap and guards allow, while a plan that drops them
/// keeps the rows rule: one image's worth of rows, far below
/// `8 · 2^B`, on the three `serve_vggs` conv shapes whose 7-bit row
/// tables fit the 512 KiB cap, and `9 × 75` at 6 bits.
#[test]
fn kept_plans_read_the_row_table_below_the_rows_rule() {
    let mut rng = Rng64::seed_from_u64(0x4B31);
    for (m, j, k, bits) in [
        (256, 8, 27, 7),
        (256, 8, 72, 7),
        (64, 16, 72, 7),
        (3, 9, 75, 6),
        (1, 9, 75, 6),
    ] {
        let n = 1u64 << bits;
        let shape = GemmShape { j, k, bits };
        assert!(m < 8 << bits);
        let table: Vec<u32> = (0..n * n).map(|_| rng.next_u32() >> 16).collect();
        let wq = codes(&mut rng, j * k, n, 0.0);
        let xq = codes(&mut rng, m * k, n, 0.5);
        let label = format!("m={m} j={j} k={k} bits={bits}");
        assert!(
            !plan_matches_naive(&table, shape, &wq, &xq, &label),
            "new: {label}"
        );
        let mut tables = PlanTables::default();
        for pass in ["first", "kept"] {
            let plan = ForwardPlan::with_tables(Kernel::Tiled, shape, &table, &wq, &mut tables);
            assert!(
                run_matches_naive(&plan, &table, shape, &wq, &xq, &label),
                "with_tables, {pass} plan: {label}"
            );
        }
    }
}

/// `len` activation codes below `n`, each 0 with probability `zeros`
/// and otherwise uniform over `1..n`.
fn codes(rng: &mut Rng64, len: usize, n: u64, zeros: f64) -> Vec<u16> {
    (0..len)
        .map(|_| {
            if rng.chance(zeros) {
                0
            } else {
                1 + rng.below(n - 1) as u16
            }
        })
        .collect()
}

/// Behind a ReLU most activation codes are 0, and every workload table's
/// code-0 column is all zero, so the hoisted-row forward leaves out
/// code-0 terms once at least 3/8 of a chunk's codes are 0. Zero shares
/// 0, 0.3, 0.5, 0.9 and 1, all-zero batch rows, and a split whose first
/// chunk is above that share and whose second is below, on the six
/// `serve_vggs` conv shapes (one 16×16 image, 7-bit codes, below the row
/// table's rows) and two awkward ones.
#[test]
fn zero_activation_codes_conform() {
    let bits = 7u32;
    let n = 1u64 << bits;
    let mut rng = Rng64::seed_from_u64(0x2E80);
    let table: Vec<u32> = (0..n * n)
        .map(|i| if i % n == 0 { 0 } else { rng.next_u32() >> 16 })
        .collect();
    let shapes = [
        (256, 8, 27),
        (256, 8, 72),
        (64, 16, 72),
        (64, 16, 144),
        (16, 32, 144),
        (16, 32, 288),
        (65, 17, 65),
        (7, 3, 9),
    ];
    for (m, j, k) in shapes {
        let shape = GemmShape { j, k, bits };
        let wq = codes(&mut rng, j * k, n, 0.0);
        let mut cases = Vec::new();
        for zeros in [0.0, 0.3, 0.5, 0.9, 1.0] {
            cases.push((format!("zeros={zeros}"), codes(&mut rng, m * k, n, zeros)));
        }
        let mut xq = codes(&mut rng, m * k, n, 0.5);
        for mi in [0, m / 2, m - 1] {
            xq[mi * k..(mi + 1) * k].fill(0);
        }
        cases.push(("all-zero rows".into(), xq));
        for (label, xq) in &cases {
            let used = plan_matches_naive(&table, shape, &wq, xq, label);
            assert!(!used, "m={m} j={j} k={k} must take the hoisted-row path");
        }

        let top = m / 2;
        let mut xq = codes(&mut rng, top * k, n, 0.9);
        xq.extend(codes(&mut rng, (m - top) * k, n, 0.1));
        let mut want = vec![0i64; m * j];
        forward_acc(Kernel::Naive, shape, &table, &wq, &xq, &mut want);
        let plan = ForwardPlan::new(Kernel::Tiled, shape, &table, &wq, m);
        let mut acc = vec![i64::MIN; m * j];
        let (acc_top, acc_rest) = acc.split_at_mut(top * j);
        plan.run(&xq[..top * k], acc_top);
        plan.run(&xq[top * k..], acc_rest);
        assert_eq!(acc, want, "split at row {top}: m={m} j={j} k={k}");
    }
}

/// A table whose code-0 column is not all zero keeps every term, at any
/// zero share: a synthetic table with `table[w << B] = 1`, and a
/// signed-offset table, whose code 0 is the most negative operand and
/// whose entries fold in the `2^(2B-1)` offset.
#[test]
fn tables_with_a_nonzero_code_0_column_keep_code_0_terms() {
    let bits = 7u32;
    let n = 1u64 << bits;
    let mut rng = Rng64::seed_from_u64(0xF411);
    let ones: Vec<u32> = (0..n * n)
        .map(|i| if i % n == 0 { 1 } else { rng.next_u32() >> 16 })
        .collect();
    let offset = SignMagnitudeMultiplier::new(TruncatedMultiplier::new(bits, 6)).to_offset_lut();
    for table in [&ones[..], offset.entries()] {
        for (m, j, k) in [(64, 16, 144), (65, 17, 65), (7, 3, 9)] {
            let shape = GemmShape { j, k, bits };
            let wq = codes(&mut rng, j * k, n, 0.0);
            for zeros in [0.5, 0.9, 1.0] {
                let xq = codes(&mut rng, m * k, n, zeros);
                plan_matches_naive(table, shape, &wq, &xq, &format!("zeros={zeros}"));
            }
        }
    }
}

fn ramp(shape: &[usize], scale: f32) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| (((i * 37) % 29) as f32 / 29.0 - 0.45) * scale)
            .collect(),
        shape,
    )
}

fn all_modes(lut: &MultiplierLut) -> Vec<GradientMode> {
    let n = lut.entries().len();
    vec![
        GradientMode::Ste,
        GradientMode::difference_based(8),
        GradientMode::least_squares(1),
        GradientMode::Custom {
            wrt_w: Arc::new((0..n).map(|i| (i % 7) as f32 * 0.25).collect()),
            wrt_x: Arc::new((0..n).map(|i| (i % 5) as f32 * 0.5).collect()),
        },
    ]
}

/// Forward output, input gradient, and weight gradient of a fresh
/// `ApproxLinear` under the given kernel.
fn linear_run(
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
    m: usize,
    j: usize,
    k: usize,
    kernel: Kernel,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut lin = ApproxLinear::with_params(
        ramp(&[j, k], 1.2),
        ramp(&[j], 0.2),
        lut.clone(),
        grads.clone(),
        QuantConfig::default(),
    );
    lin.set_kernel(kernel);
    let y = lin.forward(&ramp(&[m, k], 1.7), true);
    let dx = lin.backward(&ramp(&[m, j], 0.9));
    let mut dw = Vec::new();
    lin.visit_params(&mut |p| {
        if p.value.shape().len() == 2 {
            dw = bits_of(p.grad.as_slice());
        }
    });
    (bits_of(y.as_slice()), bits_of(dx.as_slice()), dw)
}

#[test]
fn layer_outputs_conform_across_kernels_and_gradient_modes() {
    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    for mode in all_modes(&lut) {
        let label = mode.key();
        let grads = Arc::new(GradientLut::build(&lut, mode));
        for (m, j, k) in [(7, 5, 11), (65, 17, 65)] {
            assert_eq!(
                linear_run(&lut, &grads, m, j, k, Kernel::Naive),
                linear_run(&lut, &grads, m, j, k, Kernel::Tiled),
                "linear mode={label} m={m} j={j} k={k}: tiled diverged from naive"
            );
        }
    }
}

#[test]
fn conv_layer_conforms_across_kernels() {
    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::difference_based(8)));
    // (batch, in, out): the small case, then one whose im2col GEMM
    // (M = batch·25, J = out, K = in·9 = 75 × 17 × 72) crosses the
    // 64 × 16 × 64 tile extents in every dimension.
    let run = |(n, cin, cout): (usize, usize, usize), kernel: Kernel| {
        let mut conv = ApproxConv2d::with_params(
            Conv2dSpec::same(cin, cout, 3),
            ramp(&[cout, cin * 9], 0.8),
            ramp(&[cout], 0.1),
            lut.clone(),
            grads.clone(),
            QuantConfig::default(),
        );
        conv.set_kernel(kernel);
        let y = conv.forward(&ramp(&[n, cin, 5, 5], 1.0), true);
        let dx = conv.backward(&ramp(&[n, cout, 5, 5], 1.0));
        (bits_of(y.as_slice()), bits_of(dx.as_slice()))
    };
    for dims in [(2, 2, 3), (3, 8, 17)] {
        assert_eq!(
            run(dims, Kernel::Naive),
            run(dims, Kernel::Tiled),
            "conv (batch, in, out)={dims:?}: tiled diverged from naive"
        );
    }
}

#[test]
fn degenerate_layer_shapes_conform() {
    let lut = Arc::new(TruncatedMultiplier::new(8, 6).to_lut());
    let grads = Arc::new(GradientLut::build(&lut, GradientMode::Ste));
    // (m, j, k) degenerate cases: single row/column/feature and a
    // zero-sized batch, each under naive and tiled.
    for (m, j, k) in [(1, 1, 1), (1, 4, 3), (5, 1, 3), (5, 4, 1), (0, 4, 3)] {
        assert_eq!(
            linear_run(&lut, &grads, m, j, k, Kernel::Naive),
            linear_run(&lut, &grads, m, j, k, Kernel::Tiled),
            "degenerate m={m} j={j} k={k}"
        );
    }
}

/// FNV-1a over the little-endian bytes of `values`' `to_bits`, continuing
/// from `hash`.
fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Folds into `hash` every output and gradient of a fresh 24 → 10
/// `ApproxLinear` on a batch of `m` rows: a train forward (after a
/// calibrating one, so a huge and a NaN activation clip), its backward,
/// every parameter gradient, then an eval forward on fresh rows.
fn linear_digest(
    hash: u64,
    (lut, grads, config): (&Arc<MultiplierLut>, &Arc<GradientLut>, QuantConfig),
    m: usize,
    kernel: Kernel,
) -> u64 {
    let (j, k) = (10, 24);
    let mut lin = ApproxLinear::with_params(
        ramp(&[j, k], 1.2),
        ramp(&[j], 0.2),
        lut.clone(),
        grads.clone(),
        config,
    );
    lin.set_kernel(kernel);
    lin.forward(&ramp(&[2, k], 1.0), true);
    let mut x = ramp(&[m, k], 1.7);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        match i % 23 {
            5 => *v = 1e6,
            17 => *v = f32::NAN,
            _ => {}
        }
    }
    let mut hash = fnv1a(hash, lin.forward(&x, true).as_slice());
    hash = fnv1a(hash, lin.backward(&ramp(&[m, j], 0.9)).as_slice());
    lin.visit_params(&mut |p| hash = fnv1a(hash, p.grad.as_slice()));
    fnv1a(hash, lin.forward(&ramp(&[m, k], 0.6), false).as_slice())
}

#[test]
fn linear_layer_bytes_are_pinned() {
    // Literals recorded before the linear layer ran through the conv's
    // forward and input-gradient passes; every bit must survive.
    const GOLDEN: [(&str, &str, u64); 6] = [
        ("mul7u_rm6", "ste", 0x6b7c_37b0_b5a0_5b41),
        ("mul7u_rm6", "diff_h4", 0xfe2b_22d6_5dd3_a8a5),
        ("mul6u_rm4", "ste", 0x4b81_5bff_9af7_64cd),
        ("mul6u_rm4", "diff_h4", 0x750b_6ccb_7db7_5825),
        ("mul8u_rm6_signed", "ste", 0x54a8_e841_3de5_b67d),
        ("mul8u_rm6_signed", "diff_h4", 0x169f_936e_a9ee_8a51),
    ];
    let designs = [
        (zoo::mul7u_rm6().to_lut(), QuantConfig::default()),
        (zoo::mul6u_rm4().to_lut(), QuantConfig::default()),
        (
            SignMagnitudeMultiplier::new(TruncatedMultiplier::new(8, 6)).to_offset_lut(),
            QuantConfig::signed(),
        ),
    ];
    let mut golden = GOLDEN.iter();
    for (lut, config) in designs {
        let lut = Arc::new(lut);
        for mode in [GradientMode::Ste, GradientMode::difference_based(4)] {
            let key = mode.key();
            let grads = Arc::new(
                GradientLut::try_build_for(&lut, mode, config.scheme, Pool::global())
                    .expect("built-in estimators build"),
            );
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for kernel in [Kernel::Naive, Kernel::Tiled] {
                for m in [0, 1, 32, 700] {
                    hash = linear_digest(hash, (&lut, &grads, config), m, kernel);
                }
            }
            let &(design, want_key, expected) = golden.next().expect("one golden row per pair");
            assert_eq!(
                (design, want_key),
                (MultiplierLut::name(&lut), key.as_str())
            );
            assert_eq!(hash, expected, "{design}/{key}: got {hash:#018x}");
        }
    }
}

#[test]
fn shrinker_reports_a_minimal_triple() {
    // Plant an artificial divergence — "conformance fails whenever
    // m*j*k > 0 and k >= 3" — and check the harness shrinks the case to
    // the minimal failing triple instead of reporting a random large one.
    let planted = |c: &Case| {
        let ((m, j, k), _) = *c;
        !(m > 0 && j > 0 && k >= 3)
    };
    let err = prop::check_with(0xBAD5EED, 64, generate_case, shrink_case, planted)
        .expect_err("planted divergence must be caught");
    let ((m, j, k), seed) = err.value;
    assert_eq!((m, j, k), (1, 1, 3), "shape shrunk to minimal");
    assert_eq!(seed, 0, "seed shrunk to zero");
}
