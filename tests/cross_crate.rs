//! Cross-crate consistency checks between the hardware substrate, the
//! multiplier library, and the retraining framework.

use appmult::circuit::{
    fault_sites, CostModel, FaultKind, FaultSpec, MultiplierCircuit, MultiplierStructure,
};
use appmult::mult::{zoo, ErrorMetrics, Multiplier, SignMagnitudeMultiplier, TruncatedMultiplier};
use appmult::retrain::{GradientLut, GradientMode, QuantParams, QuantScheme, SmoothingKernel};
use appmult_pool::Pool;
use appmult_rng::Rng64;

#[test]
fn behavioural_and_gate_level_rm_multipliers_agree() {
    // The Fig. 2 construction exists twice: closed-form in appmult-mult
    // and gate-level in appmult-circuit. They must agree bit-exactly.
    for (bits, k) in [(6u32, 4u32), (7, 6), (8, 8)] {
        let behavioural = TruncatedMultiplier::new(bits, k).to_lut();
        let gate_level = MultiplierCircuit::with_removed_columns(
            bits,
            k,
            appmult::circuit::MultiplierStructure::Array,
        )
        .exhaustive_products();
        for w in 0..(1u32 << bits) {
            for x in 0..(1u32 << bits) {
                assert_eq!(
                    gate_level[((w << bits) | x) as usize] as u32,
                    behavioural.product(w, x),
                    "bits={bits} k={k} {w}*{x}"
                );
            }
        }
    }
}

#[test]
fn zoo_luts_feed_gradient_builder_at_every_bitwidth() {
    for name in ["mul6u_rm4", "mul7u_rm6", "mul8u_rm8"] {
        let entry = zoo::entry(name).expect("known");
        let lut = entry.multiplier.to_lut();
        let g = GradientLut::build(
            &lut,
            GradientMode::difference_based(entry.recommended_hws()),
        );
        assert_eq!(g.bits(), lut.bits());
        // Spot-check: gradients are finite everywhere.
        let n = 1u32 << lut.bits();
        for w in (0..n).step_by(17) {
            for x in (0..n).step_by(13) {
                assert!(g.wrt_w(w, x).is_finite());
                assert!(g.wrt_x(w, x).is_finite());
            }
        }
    }
}

#[test]
fn cost_model_ranks_approximate_below_exact() {
    let model = CostModel::asap7();
    for bits in [6u32, 7, 8] {
        let exact = model.estimate(&MultiplierCircuit::array(bits));
        let trunc_entry = TruncatedMultiplier::new(bits, bits);
        let trunc = model.estimate(&trunc_entry.circuit().expect("gate-level"));
        assert!(trunc.area_um2 < exact.area_um2, "{bits}-bit area");
        assert!(trunc.power_uw < exact.power_uw, "{bits}-bit power");
    }
}

#[test]
fn table1_reference_rows_are_calibration_fixed_points() {
    // mul8u_acc drives the calibration, so the model must reproduce its
    // paper row exactly; the 7-/6-bit exact rows should land close.
    let model = CostModel::asap7();
    let m8 = model.estimate(&MultiplierCircuit::array(8));
    assert!((m8.area_um2 - 25.6).abs() < 0.05);
    assert!((m8.power_uw - 22.93).abs() < 0.05);
    let m7 = model.estimate(&MultiplierCircuit::array(7));
    let paper7 = zoo::entry("mul7u_acc").expect("known").paper;
    assert!(
        (m7.power_uw - paper7.power_uw).abs() / paper7.power_uw < 0.25,
        "7-bit power {:.2} vs paper {:.2}",
        m7.power_uw,
        paper7.power_uw
    );
}

#[test]
fn table1_hardware_costs_are_pinned_bit_for_bit() {
    // (name, delay_ps, area_um2, power_uw) of every zoo design with a
    // gate-level structure, as `CostModel::asap7()` scores it. The values
    // print at shortest round-trip, so each literal is the exact f64.
    const GOLDEN: [(&str, f64, f64, f64); 17] = [
        ("mul8u_acc", 730.1, 25.6, 22.93),
        (
            "mul8u_syn1",
            455.75939393939433,
            14.958139534883733,
            13.980608277755897,
        ),
        (
            "mul8u_syn2",
            434.5201212121217,
            14.521892542101055,
            13.359199945980617,
        ),
        (
            "mul8u_2NDH",
            319.4740606060612,
            11.896712109061763,
            10.38714093950812,
        ),
        (
            "mul8u_17C8",
            263.72096969697026,
            8.937931034482775,
            7.647249265650454,
        ),
        (
            "mul8u_17R6",
            221.2424242424247,
            12.674258219727356,
            11.590477488379065,
        ),
        (
            "mul8u_rm8",
            302.659636363637,
            10.339053728949494,
            9.372846719041021,
        ),
        (
            "mul7u_acc",
            539.8315151515154,
            19.022935044105864,
            16.766578225699252,
        ),
        (
            "mul7u_06Q",
            348.67806060606114,
            11.945469125902179,
            10.53570752771883,
        ),
        (
            "mul7u_073",
            302.659636363637,
            12.648596631916611,
            11.729978732889878,
        ),
        (
            "mul7u_rm6",
            302.659636363637,
            10.339053728949494,
            9.372846719041021,
        ),
        (
            "mul7u_syn1",
            347.7930909090915,
            13.202886928628722,
            12.157480344154836,
        ),
        (
            "mul7u_syn2",
            394.69648484848534,
            12.625501202886943,
            11.612161470995392,
        ),
        (
            "mul7u_081",
            259.29612121212176,
            8.809623095429046,
            7.650890377486975,
        ),
        (
            "mul7u_08E",
            402.6612121212126,
            15.3045709703288,
            14.332073035334467,
        ),
        (
            "mul6u_acc",
            377.8820606060611,
            13.410745789895765,
            11.549376140737635,
        ),
        (
            "mul6u_rm4",
            276.99551515151575,
            9.551242983159598,
            8.49595761564475,
        ),
    ];
    // The `_syn` entries run approximate logic synthesis, which dominates
    // unoptimized runtimes; as in lint_zoo.rs they are pinned in release.
    let include_syn = !cfg!(debug_assertions);
    let model = CostModel::asap7();
    let mut checked = Vec::new();
    for name in zoo::names() {
        if !include_syn && name.contains("_syn") {
            continue;
        }
        let entry = zoo::entry(name).expect("zoo::names() entries resolve");
        let Some(circuit) = entry.multiplier.circuit() else {
            continue;
        };
        let &(_, delay, area, power) = GOLDEN
            .iter()
            .find(|g| g.0 == *name)
            .unwrap_or_else(|| panic!("{name} has a netlist but no golden row"));
        let cost = model.estimate(&circuit);
        assert_eq!(cost.delay_ps.to_bits(), delay.to_bits(), "{name} delay_ps");
        assert_eq!(cost.area_um2.to_bits(), area.to_bits(), "{name} area_um2");
        assert_eq!(cost.power_uw.to_bits(), power.to_bits(), "{name} power_uw");
        checked.push(*name);
    }
    let expected: Vec<_> = GOLDEN
        .iter()
        .map(|g| g.0)
        .filter(|n| include_syn || !n.contains("_syn"))
        .collect();
    assert_eq!(checked, expected, "every golden row names a costed design");
}

#[test]
fn quantized_exact_pipeline_is_consistent_end_to_end() {
    // Quantize -> exact LUT multiply -> dequantize equals float multiply
    // to within quantization error, across random value pairs.
    let lut = zoo::mul8u_acc().to_lut();
    let wq = QuantParams::from_range(-1.0, 1.0, 8);
    let xq = QuantParams::from_range(0.0, 2.0, 8);
    for i in 0..50 {
        let w = -1.0 + 0.04 * i as f32;
        let x = 0.04 * i as f32;
        let cw = wq.quantize(w);
        let cx = xq.quantize(x);
        let y = lut.product(cw, cx);
        let deq = appmult::retrain::dequantize_dot(
            &wq,
            &xq,
            i64::from(y),
            i64::from(cw),
            i64::from(cx),
            1,
        );
        assert!(
            (deq - w * x).abs() < wq.scale * 2.0 + xq.scale * 2.0,
            "{w} * {x}: {deq}"
        );
    }
}

#[test]
fn fig3_artifacts_are_reproducible_from_the_public_api() {
    // The exact data series behind Fig. 3 (used by the fig3 binary).
    let lut = zoo::mul7u_rm6().to_lut();
    let row = lut.row(10);
    // Staircase: plateaus of width 8 between multiples of 8.
    assert_eq!(row[8], row[15]);
    assert!(row[16] > row[15]);
    // Eq. 4 smoothing with the Fig. 3 window.
    let smoothed = appmult::retrain::smooth_row(row, 4);
    assert!(smoothed[4].is_some() && smoothed[123].is_some());
    assert!(smoothed[3].is_none() && smoothed[124].is_none());
}

/// Folds the product tables of 8 seeded fault lists on `circuit` into one
/// FNV-1a hash. Each list holds 1-6 faults of all three kinds drawn from
/// `fault_sites`; about a third of the faults reuse a site already in the
/// list, so the last-fault-wins rule is exercised too.
fn faulted_tables_digest(circuit: &MultiplierCircuit, seed: u64) -> u64 {
    let sites = fault_sites(circuit.netlist());
    let mut rng = Rng64::seed_from_u64(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..8 {
        let mut faults: Vec<FaultSpec> = Vec::new();
        for _ in 0..1 + rng.index(6) {
            let site = if !faults.is_empty() && rng.index(3) == 0 {
                faults[rng.index(faults.len())].site
            } else {
                sites[rng.index(sites.len())]
            };
            let kind = FaultKind::ALL[rng.index(3)];
            faults.push(FaultSpec { site, kind });
        }
        let faulty = circuit
            .with_faults(&faults)
            .expect("sites come from fault_sites");
        for product in faulty.exhaustive_products() {
            for byte in product.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn faulted_product_tables_are_pinned_bit_for_bit() {
    // Literals recorded with the earlier fault path, a per-node overlay in
    // the simulator; netlist rewriting must reproduce every faulted table.
    let cases = [
        (
            "array(6)",
            MultiplierCircuit::array(6),
            1,
            0x446a_3f24_8a8e_abc6,
        ),
        (
            "wallace(6)",
            MultiplierCircuit::wallace(6),
            2,
            0xeef8_08c7_00d6_8d2a,
        ),
        (
            "rm6 array(7)",
            MultiplierCircuit::with_removed_columns(7, 6, MultiplierStructure::Array),
            3,
            0x88cc_509f_eeee_7a13,
        ),
    ];
    for (label, circuit, seed, expected) in cases {
        let digest = faulted_tables_digest(&circuit, seed);
        assert_eq!(digest, expected, "{label}: got {digest:#018x}");
    }
}

/// Folds the exhaustive error metrics of one zoo entry into an FNV-1a hash:
/// the `to_bits` of ER, NMED and MED, then MaxED, each as little-endian
/// bytes.
fn zoo_metrics_digest(name: &str) -> u64 {
    let entry = zoo::entry(name).expect("zoo::names() entries resolve");
    let m = ErrorMetrics::exhaustive(&entry.multiplier.to_lut());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in [
        m.error_rate.to_bits(),
        m.nmed.to_bits(),
        m.med.to_bits(),
        m.max_ed,
    ] {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn zoo_error_metrics_are_pinned_bit_for_bit() {
    // Every exact design hashes the same all-zero metrics.
    const GOLDEN: [(&str, u64); 18] = [
        ("mul8u_acc", 0x0c82_1078_4d8a_f5a5),
        ("mul8u_syn1", 0xf59a_a1d1_c4b6_ddba),
        ("mul8u_syn2", 0xfc0e_a9e4_e46a_71c4),
        ("mul8u_2NDH", 0x7c29_cbb6_240a_40c3),
        ("mul8u_17C8", 0x9aec_70eb_2709_6f08),
        ("mul8u_1DMU", 0xa814_7700_22eb_707a),
        ("mul8u_17R6", 0xae24_5dc9_e1ed_4f84),
        ("mul8u_rm8", 0x2ed8_7f88_13f6_f90e),
        ("mul7u_acc", 0x0c82_1078_4d8a_f5a5),
        ("mul7u_06Q", 0x2e9b_c41c_1c76_2332),
        ("mul7u_073", 0xe091_2305_dfe7_c2e2),
        ("mul7u_rm6", 0xb2f7_5620_4fcb_a114),
        ("mul7u_syn1", 0x019f_4ae2_d0a2_5feb),
        ("mul7u_syn2", 0x5c1a_b335_3f18_e0c3),
        ("mul7u_081", 0xbf5c_f7ec_1d17_a60b),
        ("mul7u_08E", 0xc4b5_6ead_237c_ea1d),
        ("mul6u_acc", 0x0c82_1078_4d8a_f5a5),
        ("mul6u_rm4", 0x122d_8a7b_f835_a7fd),
    ];
    assert_eq!(
        GOLDEN.map(|g| g.0).as_slice(),
        zoo::names(),
        "one golden row per zoo entry, in table order"
    );
    // As in lint_zoo.rs, the `_syn` entries are pinned in release only.
    let include_syn = !cfg!(debug_assertions);
    for (name, expected) in GOLDEN {
        if !include_syn && name.contains("_syn") {
            continue;
        }
        let digest = zoo_metrics_digest(name);
        assert_eq!(digest, expected, "{name}: got {digest:#018x}");
    }
}

/// Folds a gradient LUT's `dAM/dW` table, then its `dAM/dX` table, into one
/// FNV-1a hash: the `to_bits` of every entry as little-endian bytes.
fn gradient_tables_digest(grads: &GradientLut) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for table in [grads.wrt_w_table(), grads.wrt_x_table()] {
        for v in table.iter() {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// Every built-in estimator over a `2^bits`-entry operand range, with
/// fixed non-uniform marginals for the weighted one.
fn estimator_modes(bits: u32) -> Vec<GradientMode> {
    let n = 1usize << bits;
    let total = (n * (n + 1) / 2) as f64;
    let rising: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / total).collect();
    let falling: Vec<f64> = rising.iter().rev().copied().collect();
    vec![
        GradientMode::Ste,
        GradientMode::difference_based(4),
        GradientMode::difference_kernel(4, SmoothingKernel::Triangular),
        GradientMode::difference_kernel(4, SmoothingKernel::Gaussian),
        GradientMode::least_squares(1),
        GradientMode::least_squares(3),
        GradientMode::marginal_weighted(4, rising, falling),
        GradientMode::Surrogate,
    ]
}

#[test]
fn gradient_estimator_tables_are_pinned_bit_for_bit() {
    // Literals recorded before the estimator family shared one table
    // builder; every table must keep its bytes.
    const GOLDEN: [(&str, &str, u64); 16] = [
        ("mul7u_rm6", "ste", 0x92fe_2749_ba60_3f25),
        ("mul7u_rm6", "diff_h4", 0xcdca_fc1f_2c3f_2ca9),
        ("mul7u_rm6", "tri_h4", 0x8720_1063_ab10_b3c9),
        ("mul7u_rm6", "gauss_h4", 0xd2f8_aaac_bc28_46d9),
        ("mul7u_rm6", "lsq_w1", 0x8294_cb1b_5a02_71cd),
        ("mul7u_rm6", "lsq_w3", 0x5ea3_85e1_84bc_484d),
        ("mul7u_rm6", "marginal_h4", 0x01d4_2dbd_5587_a35e),
        ("mul7u_rm6", "surrogate", 0xf596_9e4b_009a_9525),
        ("mul8u_rm6_signed", "ste", 0x0b32_8521_384e_ab25),
        ("mul8u_rm6_signed", "diff_h4", 0xe1ec_fed2_5a99_eecd),
        ("mul8u_rm6_signed", "tri_h4", 0xe155_a498_4e19_f281),
        ("mul8u_rm6_signed", "gauss_h4", 0x10eb_3862_6497_e47d),
        ("mul8u_rm6_signed", "lsq_w1", 0x0ef1_40ae_dbea_29dd),
        ("mul8u_rm6_signed", "lsq_w3", 0xda75_dd85_8fd4_012d),
        ("mul8u_rm6_signed", "marginal_h4", 0xd90e_5a93_597b_f8f1),
        ("mul8u_rm6_signed", "surrogate", 0x1e59_fbff_afc5_5b25),
    ];
    let designs = [
        (zoo::mul7u_rm6().to_lut(), QuantScheme::Unsigned),
        (
            SignMagnitudeMultiplier::new(TruncatedMultiplier::new(8, 6)).to_offset_lut(),
            QuantScheme::SignedOffset,
        ),
    ];
    let mut golden = GOLDEN.iter();
    for (lut, scheme) in &designs {
        for mode in estimator_modes(lut.bits()) {
            let key = mode.key();
            let grads = GradientLut::try_build_for(lut, mode, *scheme, Pool::global())
                .expect("built-in estimators build");
            let digest = gradient_tables_digest(&grads);
            let &(design, want_key, expected) = golden.next().expect("one golden row per table");
            assert_eq!((design, want_key), (lut.name(), key.as_str()));
            assert_eq!(digest, expected, "{design}/{key}: got {digest:#018x}");
        }
    }
    assert!(golden.next().is_none(), "every golden row is checked");
}
