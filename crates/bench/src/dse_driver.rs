//! Driver for the `dse` binary: closed-loop multiplier design-space
//! exploration seeded from the zoo's gate-level designs.
//!
//! The driver owns everything around the search itself (which lives in
//! `appmult-dse`): seeding from the zoo, profiling-style marginals,
//! writing `results/DSE.json`, re-loading frontier designs as
//! [`DiscoveredMultiplier`]s, and the dominance comparison against the
//! seed zoo that the CI smoke job gates on.

use std::sync::Arc;

use appmult_circuit::{CostModel, Netlist};
use appmult_dse::{default_marginals, dse_json, frontier_json, run, DseConfig, DseResult, RungFn};
use appmult_mult::{zoo, DiscoveredMultiplier, ErrorMetrics, Multiplier, MultiplierLut};
use appmult_pool::Pool;
use appmult_retrain::GradientMode;

use crate::{markdown_table, pretrain_float, retrain_with_multiplier, ModelKind, Scale, Workload};

/// Knobs of one `dse` bench run.
#[derive(Debug, Clone)]
pub struct DseBenchConfig {
    /// Operand width searched (must have gate-level zoo seeds: 6, 7, 8).
    pub bits: u32,
    /// Master search seed.
    pub seed: u64,
    /// Survivors per generation.
    pub mu: usize,
    /// Offspring per generation.
    pub lambda: usize,
    /// Generation count.
    pub generations: usize,
    /// Max mutations per offspring.
    pub max_mutations: usize,
    /// Also seed from the slow `_syn` ALS designs.
    pub include_syn: bool,
    /// Opt-in mini-retrain rung for frontier members (slow; recorded in
    /// the report, never used for selection).
    pub rung: bool,
}

impl DseBenchConfig {
    /// CI-smoke defaults: 6-bit search, μ=8, λ=24, 10 generations —
    /// small enough for a CI job, large enough that the frontier
    /// reliably discovers zoo-dominating designs from the default seed.
    pub fn smoke(seed: u64) -> Self {
        Self {
            bits: 6,
            seed,
            mu: 8,
            lambda: 24,
            generations: 10,
            max_mutations: 2,
            include_syn: false,
            rung: false,
        }
    }
}

/// A seed zoo design scored on the same basis as the search candidates.
#[derive(Debug, Clone)]
pub struct ZooBaseline {
    /// Zoo design name.
    pub name: String,
    /// Critical-path delay from the shared cost model, ps.
    pub delay_ps: f64,
    /// NMED under the search's profiled marginals.
    pub nmed: f64,
}

/// Which zoo baselines one frontier design strictly dominates on
/// (delay, NMED).
#[derive(Debug, Clone)]
pub struct DominanceRecord {
    /// Frontier design name.
    pub design: String,
    /// Names of the dominated zoo baselines.
    pub dominates: Vec<String>,
}

/// Everything a caller (binary, CI job, schema test) needs from one run.
#[derive(Debug)]
pub struct DseBenchOutcome {
    /// Full `results/DSE.json` contents.
    pub json: String,
    /// Frontier-only document (byte-identical across thread counts).
    pub frontier_json: String,
    /// The raw search result.
    pub result: DseResult,
    /// Frontier designs re-loaded from their own netlist exports.
    pub discovered: Vec<DiscoveredMultiplier>,
    /// Seed zoo designs on the shared scoring basis.
    pub baselines: Vec<ZooBaseline>,
    /// Per-frontier-design dominance vs the baselines.
    pub dominance: Vec<DominanceRecord>,
    /// Human-readable frontier summary (markdown).
    pub summary: String,
}

impl DseBenchOutcome {
    /// Number of frontier designs that dominate at least one zoo baseline.
    pub fn dominating_designs(&self) -> usize {
        self.dominance
            .iter()
            .filter(|d| !d.dominates.is_empty())
            .count()
    }
}

/// Gate-level zoo netlists of the requested width, in zoo order — the
/// deterministic seed population of the search.
pub fn seed_netlists(bits: u32, include_syn: bool) -> Vec<(String, Netlist)> {
    // Filter by *name* before lookup: `zoo::entry` runs (cached) logic
    // synthesis for `_syn` designs, which dwarfs the search itself in
    // debug builds when they are not even wanted as seeds.
    zoo::names()
        .iter()
        .filter(|n| include_syn || !n.contains("_syn"))
        .filter_map(|n| zoo::entry(n))
        .filter(|e| e.multiplier.bits() == bits)
        .filter_map(|e| {
            e.multiplier
                .circuit()
                .map(|c| (e.name.to_string(), c.netlist().clone()))
        })
        .collect()
}

/// Scores the seed zoo on the search's own basis: delay from the shared
/// cost model, NMED under the profiled marginals.
pub fn zoo_baselines(seeds: &[(String, Netlist)], bits: u32) -> Vec<ZooBaseline> {
    let model = CostModel::asap7();
    let (w_probs, x_probs) = default_marginals(bits);
    seeds
        .iter()
        .map(|(name, netlist)| {
            let analysis = appmult_verify::analyze_netlist(netlist, &model);
            let circuit = appmult_circuit::MultiplierCircuit::from_netlist(netlist.clone(), bits)
                .expect("zoo seeds are well-formed multipliers");
            let products: Vec<u32> = circuit
                .exhaustive_products()
                .into_iter()
                .map(|p| p as u32)
                .collect();
            let lut = MultiplierLut::from_entries(name.clone(), bits, products);
            let metrics = ErrorMetrics::with_marginals(&lut, &w_probs, &x_probs);
            ZooBaseline {
                name: name.clone(),
                delay_ps: analysis.cost.delay_ps,
                nmed: metrics.nmed,
            }
        })
        .collect()
}

/// Strict (delay, NMED) dominance: no worse on both, better on at least
/// one.
fn dominates_delay_nmed(delay: f64, nmed: f64, base: &ZooBaseline) -> bool {
    delay <= base.delay_ps && nmed <= base.nmed && (delay < base.delay_ps || nmed < base.nmed)
}

/// A mini-retrain rung: one short LeNet retraining per frontier LUT on a
/// tiny shared workload, returning final top-1 accuracy in percent.
pub fn mini_retrain_rung() -> Box<RungFn> {
    let mut scale = Scale::cpu_cifar10();
    scale.pretrain_epochs = 2;
    scale.retrain_epochs = 2;
    let workload = Workload::generate(&scale);
    let (model, _) = pretrain_float(ModelKind::LeNet, &scale, &workload);
    let state = std::sync::Mutex::new(model);
    Box::new(move |lut: &MultiplierLut| {
        let candidates = appmult_retrain::candidates_for_bits(lut.bits());
        let hws = candidates.get(candidates.len() / 2).copied().unwrap_or(1);
        // The retrain only copies parameters *out* of the pretrained
        // model, so the same instance serves every frontier member.
        let mut pretrained = state.lock().expect("rung state poisoned");
        let outcome = retrain_with_multiplier(
            ModelKind::LeNet,
            &scale,
            &workload,
            &mut pretrained,
            &Arc::new(lut.clone()),
            GradientMode::difference_based(hws),
        );
        outcome.final_pct()
    })
}

/// Runs the full bench: seed, search, score, serialize.
///
/// # Panics
///
/// Panics if the zoo has no gate-level seed of the requested width.
pub fn run_dse_bench(cfg: &DseBenchConfig) -> DseBenchOutcome {
    let seeds = seed_netlists(cfg.bits, cfg.include_syn);
    assert!(
        !seeds.is_empty(),
        "no gate-level zoo seeds of width {}",
        cfg.bits
    );
    let (w_probs, x_probs) = default_marginals(cfg.bits);
    let reference =
        CostModel::asap7().estimate(&appmult_circuit::MultiplierCircuit::array(cfg.bits));
    let search_cfg = DseConfig {
        bits: cfg.bits,
        seed: cfg.seed,
        mu: cfg.mu,
        lambda: cfg.lambda,
        generations: cfg.generations,
        max_mutations: cfg.max_mutations,
        w_probs,
        x_probs,
        reference,
        rung: cfg.rung.then(mini_retrain_rung),
    };
    let seed_netlists: Vec<Netlist> = seeds.iter().map(|(_, n)| n.clone()).collect();
    let result = run(&search_cfg, &seed_netlists, &Pool::global());

    let baselines = zoo_baselines(&seeds, cfg.bits);
    let mut dominance = Vec::with_capacity(result.frontier.len());
    let mut discovered = Vec::with_capacity(result.frontier.len());
    for candidate in &result.frontier {
        let name = candidate.design_name(cfg.bits);
        let text = appmult_circuit::to_netlist_text(&candidate.netlist);
        let loaded = DiscoveredMultiplier::from_netlist_text(&name, cfg.bits, &text)
            .expect("frontier designs passed the oracle and must load");
        discovered.push(loaded);
        let delay = candidate.eval.cost.delay_ps;
        let nmed = candidate.eval.metrics.nmed;
        dominance.push(DominanceRecord {
            design: name,
            dominates: baselines
                .iter()
                .filter(|b| dominates_delay_nmed(delay, nmed, b))
                .map(|b| b.name.clone())
                .collect(),
        });
    }

    let json = dse_json(&search_cfg, &result, &crate::run_config());
    let frontier_doc = frontier_json(&search_cfg, &result);

    let rows: Vec<Vec<String>> = result
        .frontier
        .iter()
        .zip(&dominance)
        .map(|(c, d)| {
            vec![
                c.design_name(cfg.bits),
                format!("{:.1}", c.eval.cost.delay_ps),
                format!("{:.2}", c.eval.cost.area_um2),
                format!("{:.2}", c.eval.cost.power_uw),
                format!("{:.4}", c.eval.metrics.nmed * 100.0),
                c.eval.metrics.max_ed.to_string(),
                c.eval.hws.to_string(),
                format!("{:.5}", c.eval.proxy_loss),
                if d.dominates.is_empty() {
                    "-".to_string()
                } else {
                    d.dominates.join(" ")
                },
            ]
        })
        .collect();
    let summary = markdown_table(
        &[
            "design",
            "delay_ps",
            "area_um2",
            "power_uw",
            "nmed_pct",
            "max_ed",
            "hws",
            "proxy",
            "dominates",
        ],
        &rows,
    );

    DseBenchOutcome {
        json,
        frontier_json: frontier_doc,
        result,
        discovered,
        baselines,
        dominance,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_seeds_exist_for_smoke_width() {
        let seeds = seed_netlists(6, false);
        assert!(seeds.len() >= 2, "expected exact + truncated 6-bit seeds");
        assert!(seeds.iter().any(|(n, _)| n == "mul6u_acc"));
        assert!(seeds.iter().any(|(n, _)| n == "mul6u_rm4"));
        let baselines = zoo_baselines(&seeds, 6);
        let acc = baselines.iter().find(|b| b.name == "mul6u_acc").unwrap();
        let rm4 = baselines.iter().find(|b| b.name == "mul6u_rm4").unwrap();
        assert_eq!(acc.nmed, 0.0);
        assert!(rm4.nmed > 0.0);
        assert!(rm4.delay_ps < acc.delay_ps);
    }
}
