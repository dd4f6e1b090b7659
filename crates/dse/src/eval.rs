//! Per-candidate scoring: oracle validation plus the three-axis objective.

use appmult_circuit::{CostModel, ExhaustiveTable, HardwareCost, MultiplierCircuit, Netlist};
use appmult_mult::{ErrorMetrics, MultiplierLut};
use appmult_pool::Pool;
use appmult_retrain::{candidates_for_bits, select_hws, GradientLut, GradientMode};
use appmult_verify::{analyze_netlist, Severity, StaGate};

/// Optional accuracy-refinement callback applied to frontier members
/// after the search (the "mini-retrain rung"): given the candidate's
/// product LUT, returns a retrained-accuracy-style score. Kept opaque so
/// the crate stays free of the NN stack; the `dse` bench binary wires a
/// short LeNet retraining in behind `--rung`.
pub type RungFn = dyn Fn(&MultiplierLut) -> f64 + Send + Sync;

/// Search configuration. Everything that influences the result is in
/// here, so two runs with equal configs are bit-identical regardless of
/// the evaluation pool's thread count.
pub struct DseConfig {
    /// Operand width `B` of the multipliers being searched (1..=10).
    pub bits: u32,
    /// Master seed; every candidate derives its private RNG stream as
    /// `seed ^ candidate_id`.
    pub seed: u64,
    /// Survivor count per generation (μ).
    pub mu: usize,
    /// Offspring count per generation (λ).
    pub lambda: usize,
    /// Number of generations.
    pub generations: usize,
    /// Maximum mutations applied to one offspring (uniform in
    /// `1..=max_mutations`).
    pub max_mutations: usize,
    /// Profiled marginal distribution of the weight operand (`2^B`
    /// entries, sums to 1).
    pub w_probs: Vec<f64>,
    /// Profiled marginal distribution of the activation operand.
    pub x_probs: Vec<f64>,
    /// Hardware cost of the exact reference design (normalizes the hw
    /// axis; use the array multiplier of the same width).
    pub reference: HardwareCost,
    /// Opt-in mini-retrain rung for frontier members (recorded, not used
    /// for selection, so it never perturbs the deterministic frontier).
    pub rung: Option<Box<RungFn>>,
}

impl std::fmt::Debug for DseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DseConfig")
            .field("bits", &self.bits)
            .field("seed", &self.seed)
            .field("mu", &self.mu)
            .field("lambda", &self.lambda)
            .field("generations", &self.generations)
            .field("max_mutations", &self.max_mutations)
            .field("rung", &self.rung.is_some())
            .finish_non_exhaustive()
    }
}

impl DseConfig {
    /// Small smoke-scale configuration: μ=8, λ=16, 6 generations, the
    /// default profiled marginals, and the exact array multiplier of the
    /// same width as the hardware reference.
    pub fn smoke(bits: u32, seed: u64) -> Self {
        let (w_probs, x_probs) = default_marginals(bits);
        let reference = CostModel::asap7().estimate(&MultiplierCircuit::array(bits));
        Self {
            bits,
            seed,
            mu: 8,
            lambda: 16,
            generations: 6,
            max_mutations: 2,
            w_probs,
            x_probs,
            reference,
            rung: None,
        }
    }
}

/// Deterministic stand-in for operand histograms profiled from a running
/// DNN: quantized weights cluster around mid-range (a discretized
/// Gaussian), post-ReLU activations skew toward small magnitudes (a
/// discretized exponential). Both sum to 1.
pub fn default_marginals(bits: u32) -> (Vec<f64>, Vec<f64>) {
    let n = 1usize << bits;
    let mu = (n as f64 - 1.0) / 2.0;
    let sigma = n as f64 / 4.0;
    let mut w: Vec<f64> = (0..n)
        .map(|v| (-((v as f64 - mu) / sigma).powi(2) / 2.0).exp())
        .collect();
    let tau = n as f64 / 4.0;
    let mut x: Vec<f64> = (0..n).map(|v| (-(v as f64) / tau).exp()).collect();
    for probs in [&mut w, &mut x] {
        let sum: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= sum;
        }
    }
    (w, x)
}

/// The three minimized axes of the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Hardware: mean of delay/area/power, each normalized to the exact
    /// reference design (1.0 = as expensive as the exact array).
    pub hw: f64,
    /// Error: NMED plus MaxED normalized by `2^(2B) - 1`.
    pub err: f64,
    /// Gradient-fidelity proxy: marginal-weighted MSE between the
    /// candidate's difference-based gradients (at its best HWS) and the
    /// exact product's slopes, normalized to `[0, ~1]`.
    pub proxy: f64,
}

impl Objective {
    /// The axes as an array, in `(hw, err, proxy)` order.
    pub fn as_array(&self) -> [f64; 3] {
        [self.hw, self.err, self.proxy]
    }
}

/// Everything the oracle and scorers said about one valid candidate.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Calibrated area/delay/power.
    pub cost: HardwareCost,
    /// Error metrics under the profiled marginals.
    pub metrics: ErrorMetrics,
    /// Best half window size for the difference-based gradient.
    pub hws: u32,
    /// Proxy loss at that HWS.
    pub proxy_loss: f64,
    /// The three-axis objective vector.
    pub objective: Objective,
    /// Levelized logic depth.
    pub depth: u32,
    /// Output-reachable physical gate count.
    pub live_gates: usize,
    /// Critical path from the shared STA.
    pub critical_path: Vec<StaGate>,
}

/// Why a candidate was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Not a `2B`-input / `2B`-output multiplier interface.
    Shape(&'static str),
    /// The analysis oracle reported this many error-severity diagnostics.
    Oracle(usize),
    /// The HWS proxy could not be scored (no candidates or divergent).
    Proxy,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::Shape(what) => write!(f, "interface mismatch: {what}"),
            Reject::Oracle(n) => write!(f, "analysis oracle reported {n} error(s)"),
            Reject::Proxy => write!(f, "HWS proxy scoring failed"),
        }
    }
}

/// Builds the `2^(2B)`-entry product LUT of a multiplier netlist with a
/// **serial** exhaustive simulation (the search already parallelizes over
/// candidates, and a dispatch nested inside a chunk runs inline anyway).
pub(crate) fn build_lut(netlist: &Netlist, bits: u32, name: &str) -> MultiplierLut {
    let table = ExhaustiveTable::build_in(netlist, Pool::serial());
    let values = table.values();
    let n = 1usize << bits;
    // The simulator indexes combinations as `(x << B) | w`; the LUT
    // convention is `(w << B) | x`.
    let mut products = vec![0u32; n * n];
    for w in 0..n {
        for x in 0..n {
            products[(w << bits) | x] = values[(x << bits) | w] as u32;
        }
    }
    MultiplierLut::from_entries(name, bits, products)
}

/// Marginal-weighted MSE between the candidate's difference-based
/// gradients at `hws` and the exact product's slopes (`∂(w·x)/∂x = w`,
/// `∂(w·x)/∂w = x`), normalized by `2(2^B - 1)^2` so a gradient that is
/// wrong by the full operand range everywhere scores ~1.
fn gradient_fidelity_loss(lut: &MultiplierLut, hws: u32, w_probs: &[f64], x_probs: &[f64]) -> f64 {
    let grads =
        GradientLut::build_with_pool(lut, GradientMode::difference_based(hws), Pool::serial());
    let bits = lut.bits();
    let n = 1u32 << bits;
    let range = f64::from(n - 1).max(1.0);
    let mut loss = 0.0;
    for w in 0..n {
        let pw = w_probs[w as usize];
        for x in 0..n {
            let p = pw * x_probs[x as usize];
            if p == 0.0 {
                continue;
            }
            let dx = f64::from(grads.wrt_x(w, x)) - f64::from(w);
            let dw = f64::from(grads.wrt_w(w, x)) - f64::from(x);
            loss += p * (dx * dx + dw * dw);
        }
    }
    loss / (2.0 * range * range)
}

/// Validates and scores one candidate netlist.
///
/// # Errors
///
/// [`Reject::Shape`] if the netlist is not a `2B`-in/`2B`-out multiplier,
/// [`Reject::Oracle`] if [`analyze_netlist`] reports any error-severity
/// diagnostic (cycles, dangling references, over-capacity input counts,
/// STA inconsistencies), [`Reject::Proxy`] if HWS selection fails.
pub fn evaluate_netlist(
    netlist: &Netlist,
    cfg: &DseConfig,
    model: &CostModel,
) -> Result<Evaluation, Reject> {
    let io = 2 * cfg.bits as usize;
    if netlist.num_inputs() != io {
        return Err(Reject::Shape("primary input count"));
    }
    if netlist.outputs().len() != io {
        return Err(Reject::Shape("primary output count"));
    }
    let analysis = analyze_netlist(netlist, model);
    if !analysis.is_valid() {
        let errors = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        return Err(Reject::Oracle(errors));
    }
    let lut = build_lut(netlist, cfg.bits, "candidate");
    let metrics = ErrorMetrics::with_marginals(&lut, &cfg.w_probs, &cfg.x_probs);
    let candidates = candidates_for_bits(cfg.bits);
    let selection = select_hws(&candidates, |hws| {
        gradient_fidelity_loss(&lut, hws, &cfg.w_probs, &cfg.x_probs)
    })
    .map_err(|_| Reject::Proxy)?;
    let proxy_loss = selection
        .trials
        .iter()
        .find(|t| t.hws == selection.best)
        .map(|t| t.train_loss)
        .unwrap_or(f64::INFINITY);
    if !proxy_loss.is_finite() {
        return Err(Reject::Proxy);
    }
    let reference = &cfg.reference;
    let hw = (analysis.cost.delay_ps / reference.delay_ps
        + analysis.cost.area_um2 / reference.area_um2
        + analysis.cost.power_uw / reference.power_uw)
        / 3.0;
    let norm = ((1u64 << (2 * cfg.bits)) - 1) as f64;
    let err = metrics.nmed + metrics.max_ed as f64 / norm;
    Ok(Evaluation {
        cost: analysis.cost,
        metrics,
        hws: selection.best,
        proxy_loss,
        objective: Objective {
            hw,
            err,
            proxy: proxy_loss,
        },
        depth: analysis.depth,
        live_gates: analysis.live_gates,
        critical_path: analysis.sta.critical_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_circuit::MultiplierStructure;

    #[test]
    fn marginals_are_distributions() {
        for bits in [3u32, 4, 6] {
            let (w, x) = default_marginals(bits);
            assert_eq!(w.len(), 1 << bits);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(w.iter().chain(&x).all(|&p| p > 0.0));
        }
    }

    #[test]
    fn exact_multiplier_scores_the_ideal_point() {
        let cfg = DseConfig::smoke(4, 1);
        let model = CostModel::asap7();
        let exact = MultiplierCircuit::array(4);
        let eval = evaluate_netlist(exact.netlist(), &cfg, &model).unwrap();
        // By construction the reference *is* this design: hw = 1.
        assert!((eval.objective.hw - 1.0).abs() < 1e-12);
        // An exact product has zero error; its difference gradients match
        // the exact slopes up to operand-range boundary clamping, so the
        // proxy is near (not exactly) zero.
        assert_eq!(eval.metrics.max_ed, 0);
        assert_eq!(eval.objective.err, 0.0);
        assert!(
            eval.objective.proxy < 1e-2,
            "proxy={}",
            eval.objective.proxy
        );
        assert!(!eval.critical_path.is_empty());
    }

    #[test]
    fn truncated_multiplier_trades_error_for_hardware() {
        let cfg = DseConfig::smoke(4, 1);
        let model = CostModel::asap7();
        let rm = MultiplierCircuit::with_removed_columns(4, 2, MultiplierStructure::default());
        let eval = evaluate_netlist(rm.netlist(), &cfg, &model).unwrap();
        assert!(eval.objective.hw < 1.0, "truncation must be cheaper");
        assert!(eval.objective.err > 0.0, "truncation must err");
    }

    #[test]
    fn oracle_rejects_cyclic_candidates() {
        let cfg = DseConfig::smoke(4, 1);
        let model = CostModel::asap7();
        let mut nl = MultiplierCircuit::array(4).netlist().clone();
        // Create a combinational cycle via a forward-referencing rewire.
        let last = appmult_circuit::Signal::from_index(nl.num_nodes() - 1);
        let victim = nl
            .iter()
            .find(|(_, g)| g.kind.arity() == 2)
            .map(|(s, _)| s)
            .unwrap();
        nl.set_fanin(victim, 0, last).unwrap();
        match evaluate_netlist(&nl, &cfg, &model) {
            Err(Reject::Oracle(n)) => assert!(n > 0),
            other => panic!("expected oracle rejection, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let cfg = DseConfig::smoke(4, 1);
        let model = CostModel::asap7();
        let wrong_width = MultiplierCircuit::array(3);
        assert!(matches!(
            evaluate_netlist(wrong_width.netlist(), &cfg, &model),
            Err(Reject::Shape("primary input count"))
        ));
    }
}
