//! Randomized property tests for the gate-level substrate.
//!
//! These use the in-tree `appmult-rng` generator (the build environment
//! has no network access for proptest); each test draws a fixed number
//! of deterministic cases from a seeded stream.

use appmult_circuit::{
    fault_sites, synthesize, AlsConfig, FaultKind, FaultSpec, MultiplierCircuit,
    MultiplierStructure, Netlist,
};
use appmult_rng::Rng64;

/// Gate-level array multiplication equals integer multiplication.
#[test]
fn array_multiplier_matches_integers() {
    let mut rng = Rng64::seed_from_u64(0xC1);
    let m = MultiplierCircuit::array(6);
    for _ in 0..48 {
        let (w, x) = (rng.below(64), rng.below(64));
        assert_eq!(m.multiply(w, x), w * x, "{w}*{x}");
    }
}

/// Wallace and array reductions compute the same function, over the
/// whole operand space, at every width the workspace builds a Wallace
/// tree for (8 bits is `fault_sweep --wallace`'s default).
#[test]
fn wallace_equals_array() {
    for bits in 5..=8 {
        assert_eq!(
            MultiplierCircuit::wallace(bits).exhaustive_products(),
            MultiplierCircuit::array(bits).exhaustive_products(),
            "{bits}-bit"
        );
    }
}

/// Truncated multipliers always under-approximate the exact product
/// (removed partial products can only subtract).
#[test]
fn truncation_underestimates() {
    let mut rng = Rng64::seed_from_u64(0xC3);
    for _ in 0..48 {
        let (w, x) = (rng.below(32), rng.below(32));
        let k = 1 + rng.below(4) as u32;
        let m = MultiplierCircuit::with_removed_columns(5, k, MultiplierStructure::Array);
        assert!(m.multiply(w, x) <= w * x, "rm{k}: {w}*{x}");
    }
}

/// Word-parallel simulation is consistent with scalar simulation on a
/// random netlist.
#[test]
fn word_sim_equals_bool_sim() {
    let mut rng = Rng64::seed_from_u64(0xC5);
    for _ in 0..48 {
        let seed_bits: Vec<bool> = (0..4).map(|_| rng.chance(0.5)).collect();
        let n_ops = 1 + rng.index(19);
        let ops: Vec<u8> = (0..n_ops).map(|_| rng.below(6) as u8).collect();

        let mut nl = Netlist::new();
        let mut signals: Vec<_> = (0..4).map(|_| nl.input()).collect();
        for (i, op) in ops.iter().enumerate() {
            let a = signals[i % signals.len()];
            let b = signals[(i * 7 + 3) % signals.len()];
            let s = match op {
                0 => nl.and(a, b),
                1 => nl.or(a, b),
                2 => nl.xor(a, b),
                3 => nl.nand(a, b),
                4 => nl.nor(a, b),
                _ => nl.not(a),
            };
            signals.push(s);
        }
        let last = *signals.last().expect("nonempty");
        nl.set_outputs(vec![last]);

        let scalar = appmult_circuit::simulate_bools(&nl, &seed_bits)[0];
        let words: Vec<u64> = seed_bits
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        let word = appmult_circuit::simulate_words(&nl, &words)[0];
        assert_eq!(word == u64::MAX, scalar);
        assert!(word == 0 || word == u64::MAX);
    }
}

/// Injecting zero faults reproduces the fault-free product table bit for
/// bit, for every generated multiplier structure.
#[test]
fn zero_faults_is_identity() {
    let mut rng = Rng64::seed_from_u64(0xC7);
    for _ in 0..12 {
        let bits = 2 + rng.below(4) as u32;
        let removed = rng.below(u64::from(bits)) as u32;
        let structure = if rng.chance(0.5) {
            MultiplierStructure::Array
        } else {
            MultiplierStructure::Wallace
        };
        let m = MultiplierCircuit::with_removed_columns(bits, removed, structure);
        assert_eq!(
            m.with_faults(&[]).expect("no faults").exhaustive_products(),
            m.exhaustive_products(),
            "{structure:?} rm{removed} {bits}-bit"
        );
    }
}

/// Fault injection is a pure function: the same fault list yields the
/// same table on repeated injection, and the circuit is not mutated
/// (its fault-free table is unchanged afterwards).
#[test]
fn stuck_at_faults_are_deterministic() {
    let mut rng = Rng64::seed_from_u64(0xC8);
    let m = MultiplierCircuit::wallace(5);
    let clean = m.exhaustive_products();
    let sites = fault_sites(m.netlist());
    for _ in 0..12 {
        let n_faults = 1 + rng.index(4);
        let faults: Vec<FaultSpec> = (0..n_faults)
            .map(|_| FaultSpec {
                site: sites[rng.index(sites.len())],
                kind: FaultKind::ALL[rng.index(3)],
            })
            .collect();
        let a = m.with_faults(&faults).expect("valid sites");
        let b = m.with_faults(&faults).expect("valid sites");
        assert_eq!(
            a.netlist(),
            b.netlist(),
            "same faults must give the same netlist"
        );
        let (a, b) = (a.exhaustive_products(), b.exhaustive_products());
        assert_eq!(a, b, "same faults must give the same table");
        assert_eq!(m.exhaustive_products(), clean, "netlist must stay intact");
    }
}

/// A stuck-at fault on a live gate pins that node: re-injecting with the
/// opposite stuck-at value gives a different table unless the gate was
/// already constant.
#[test]
fn stuck_at_values_differ_somewhere() {
    let m = MultiplierCircuit::array(4);
    let sites = fault_sites(m.netlist());
    let mut observed_difference = false;
    for &site in sites.iter().step_by(5) {
        let products = |fault| {
            m.with_faults(&[fault])
                .expect("valid site")
                .exhaustive_products()
        };
        let sa0 = products(FaultSpec::stuck_at_0(site));
        let sa1 = products(FaultSpec::stuck_at_1(site));
        if sa0 != sa1 {
            observed_difference = true;
        }
    }
    assert!(observed_difference, "sa0 and sa1 must be distinguishable");
}

/// ALS never exceeds its NMED budget, for any budget.
#[test]
fn als_respects_any_budget() {
    let mut rng = Rng64::seed_from_u64(0xC6);
    for _ in 0..6 {
        let budget = rng.uniform_f64(0.0, 0.01);
        let seed = rng.below(4);
        let exact = MultiplierCircuit::array(4);
        let cfg = AlsConfig {
            nmed_budget: budget,
            seed,
            ..AlsConfig::default()
        };
        let out = synthesize(&exact, &cfg);
        assert!(
            out.nmed <= budget + 1e-12,
            "budget {budget}, nmed {}",
            out.nmed
        );
        // The rewritten circuit still has the full output bus.
        assert_eq!(out.circuit.exhaustive_products().len(), 256);
    }
}
