//! Static timing analysis over a gate netlist.
//!
//! Replays the arrival-time recurrence of
//! [`CostModel::estimate_netlist`] — raw per-gate delays accumulated in
//! netlist order, scaled to picoseconds once at the end — so the reported
//! top-level delay is **bit-identical** to the cost model's `delay_ps`.
//! On top of that single scalar it derives what the cost model never
//! exposed: per-gate arrival/required times and slack, per-output delays,
//! and an explicit gate-by-gate critical path from a primary input to the
//! slowest primary output.
//!
//! Unlike the cost model, the pass never panics on malformed netlists:
//! out-of-range fanins contribute arrival 0 (the structural lints report
//! them as errors separately), which keeps the pass safe to run inside
//! the zoo sweep's negative controls.

use appmult_circuit::{CostModel, GateCosts, GateKind, Netlist, Signal};
use appmult_obs::json::{JsonWriter, Layout};

use crate::analysis::AnalysisContext;
use crate::diag::Diagnostic;

/// One gate on the critical path, in input-to-output order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaGate {
    /// The signal on the path.
    pub signal: Signal,
    /// Its gate kind.
    pub kind: GateKind,
    /// Calibrated propagation delay of this gate, in ps.
    pub delay_ps: f64,
    /// Arrival time at this gate's output, in ps.
    pub arrival_ps: f64,
}

impl StaGate {
    /// Writes the gate as one inline JSON object (`signal`, `gate`,
    /// `delay_ps`, `arrival_ps`), the critical-path row of the ANALYZE
    /// report.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(Layout::Inline, |w| {
            w.key("signal").str(&self.signal.to_string());
            w.key("gate").str(&self.kind.to_string());
            w.key("delay_ps").f64(self.delay_ps);
            w.key("arrival_ps").f64(self.arrival_ps);
        });
    }
}

/// Full static timing report of one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Critical-path delay in ps; bit-identical to
    /// [`CostModel::estimate_netlist`]'s `delay_ps` on any netlist the
    /// cost model accepts.
    pub delay_ps: f64,
    /// Arrival time per node, in ps.
    pub arrival_ps: Vec<f64>,
    /// Required time per node, in ps (`f64::INFINITY` for nodes that
    /// reach no primary output and are therefore unconstrained).
    pub required_ps: Vec<f64>,
    /// Slack per node: `required - arrival` (`f64::INFINITY` when
    /// unconstrained). Every node on the critical path has slack 0.
    pub slack_ps: Vec<f64>,
    /// Arrival time of each primary output, in registration order.
    pub output_delays_ps: Vec<f64>,
    /// The slowest primary output (the critical endpoint), if any.
    pub critical_output: Option<Signal>,
    /// The critical path as a connected input-to-output gate chain whose
    /// per-gate delays sum to [`StaReport::delay_ps`].
    pub critical_path: Vec<StaGate>,
}

/// Runs static timing analysis using the calibrated per-gate delays of
/// `model`, borrowing cached views from `ctx`.
pub fn sta(ctx: &AnalysisContext<'_>, model: &CostModel) -> StaReport {
    let netlist = ctx.netlist();
    let n = netlist.num_nodes();
    let scale = model.delay_scale_ps();

    // Forward pass: raw arrivals, operation-for-operation the recurrence
    // inside `CostModel::estimate_netlist` (same match shape, same
    // iteration order, same `f64::max` fold) so the scaled top-level delay
    // is bit-identical. Out-of-range fanins read 0.0 instead of panicking.
    let mut arrival = vec![0.0f64; n];
    for (sig, gate) in netlist.iter() {
        let d = GateCosts::of(gate.kind).delay;
        let at = |s: Signal| arrival.get(s.index()).copied().unwrap_or(0.0);
        let fan_arrival = match gate.kind.arity() {
            0 => 0.0,
            1 => at(gate.fanins[0]),
            _ => at(gate.fanins[0]).max(at(gate.fanins[1])),
        };
        arrival[sig.index()] = fan_arrival + d;
    }
    let delay_raw = netlist
        .outputs()
        .iter()
        .filter_map(|s| arrival.get(s.index()).copied())
        .fold(0.0f64, f64::max);

    // Backward pass: required time under a single timing constraint equal
    // to the critical delay. A fanin must arrive by `required(gate) -
    // delay(gate)`.
    let mut required = vec![f64::INFINITY; n];
    for &o in netlist.outputs() {
        if let Some(r) = required.get_mut(o.index()) {
            *r = r.min(delay_raw);
        }
    }
    for i in (0..n).rev() {
        if required[i].is_infinite() {
            continue;
        }
        let gate = netlist.gate(Signal::from_index(i));
        let d = GateCosts::of(gate.kind).delay;
        for slot in 0..gate.kind.arity() {
            let f = gate.fanins[slot].index();
            // Only backward edges carry timing (forward references are
            // structural errors and read stale values in the simulator).
            if f < i {
                required[f] = required[f].min(required[i] - d);
            }
        }
    }

    // Critical path: start at the first output achieving the maximum
    // arrival, then repeatedly step to the fanin that set the max (slot 0
    // preferred on ties, matching `f64::max`'s left bias in the forward
    // recurrence).
    let critical_output = netlist
        .outputs()
        .iter()
        .copied()
        .find(|s| arrival.get(s.index()).copied() == Some(delay_raw));
    let mut chain_rev = Vec::new();
    if let Some(endpoint) = critical_output {
        let mut cur = endpoint;
        loop {
            chain_rev.push(cur);
            let gate = netlist.gate(cur);
            let next = match gate.kind.arity() {
                0 => None,
                1 => Some(gate.fanins[0]),
                _ => {
                    let a0 = arrival.get(gate.fanins[0].index()).copied().unwrap_or(0.0);
                    let a1 = arrival.get(gate.fanins[1].index()).copied().unwrap_or(0.0);
                    Some(if a0 >= a1 {
                        gate.fanins[0]
                    } else {
                        gate.fanins[1]
                    })
                }
            };
            match next {
                // The strict decrease also terminates the walk on cyclic
                // rewires (forward fanins never extend the path).
                Some(f) if f.index() < cur.index() => cur = f,
                _ => break,
            }
        }
    }
    let critical_path: Vec<StaGate> = chain_rev
        .into_iter()
        .rev()
        .map(|s| {
            let kind = netlist.gate(s).kind;
            StaGate {
                signal: s,
                kind,
                delay_ps: GateCosts::of(kind).delay * scale,
                arrival_ps: arrival[s.index()] * scale,
            }
        })
        .collect();

    let slack_ps = arrival
        .iter()
        .zip(&required)
        .map(|(&a, &r)| if r.is_infinite() { r } else { (r - a) * scale })
        .collect();
    StaReport {
        delay_ps: delay_raw * scale,
        arrival_ps: arrival.iter().map(|a| a * scale).collect(),
        required_ps: required
            .iter()
            .map(|r| if r.is_infinite() { *r } else { r * scale })
            .collect(),
        slack_ps,
        output_delays_ps: netlist
            .outputs()
            .iter()
            .map(|s| arrival.get(s.index()).copied().unwrap_or(0.0) * scale)
            .collect(),
        critical_output,
        critical_path,
    }
}

impl StaReport {
    /// Histogram of slack over live physical gates: `buckets` equal-width
    /// bins spanning `[0, delay_ps]`, with out-of-range slack clamped into
    /// the end bins. Used by the `ANALYZE.json` report.
    pub fn slack_histogram(&self, netlist: &Netlist, live: &[bool], buckets: usize) -> Vec<u32> {
        let mut hist = vec![0u32; buckets.max(1)];
        let width = self.delay_ps / hist.len() as f64;
        for (sig, gate) in netlist.iter() {
            let i = sig.index();
            if !gate.kind.is_physical() || !live.get(i).copied().unwrap_or(false) {
                continue;
            }
            let slack = self.slack_ps[i];
            let bucket = if !slack.is_finite() || width <= 0.0 {
                hist.len() - 1
            } else {
                ((slack / width) as usize).min(hist.len() - 1)
            };
            hist[bucket] += 1;
        }
        hist
    }

    /// Self-check diagnostics proving this report consistent with the cost
    /// model and with itself:
    ///
    /// - `sta` (error): the top-level delay differs from
    ///   [`CostModel::estimate_netlist`] by even one bit;
    /// - `sta` (error): the critical path is not a connected fanin chain,
    ///   or its per-gate delays do not sum to the reported delay.
    ///
    /// The cost-model comparison is skipped on netlists the cost model
    /// would reject (out-of-range references, more than 24 inputs); the
    /// structural self-checks always run.
    pub fn consistency_diagnostics(&self, model: &CostModel, netlist: &Netlist) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let n = netlist.num_nodes();
        let in_range = netlist
            .iter()
            .all(|(_, g)| (0..g.kind.arity()).all(|k| g.fanins[k].index() < n))
            && netlist.outputs().iter().all(|s| s.index() < n);
        if in_range && netlist.num_inputs() <= 24 {
            let cost = model.estimate_netlist(netlist);
            if cost.delay_ps.to_bits() != self.delay_ps.to_bits() {
                diags.push(Diagnostic::error(
                    "sta",
                    "delay",
                    format!(
                        "STA delay {} ps is not bit-identical to the cost model's {} ps",
                        self.delay_ps, cost.delay_ps
                    ),
                ));
            }
        }
        for pair in self.critical_path.windows(2) {
            let gate = netlist.gate(pair[1].signal);
            let connected = (0..gate.kind.arity()).any(|k| gate.fanins[k] == pair[0].signal);
            if !connected {
                diags.push(Diagnostic::error(
                    "sta",
                    format!("{}", pair[1].signal),
                    format!(
                        "critical path is disconnected: {} is not a fanin of {}",
                        pair[0].signal, pair[1].signal
                    ),
                ));
            }
        }
        let sum: f64 = self.critical_path.iter().map(|g| g.delay_ps).sum();
        if (sum - self.delay_ps).abs() > 1e-9 * self.delay_ps.abs().max(1.0) {
            diags.push(Diagnostic::error(
                "sta",
                "critical-path",
                format!(
                    "critical-path gate delays sum to {sum} ps but the reported delay is {} ps",
                    self.delay_ps
                ),
            ));
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_circuit::MultiplierCircuit;

    fn analyzed(netlist: &Netlist) -> StaReport {
        sta(&AnalysisContext::new(netlist), &CostModel::asap7())
    }

    #[test]
    fn sta_matches_cost_model_on_multipliers() {
        let model = CostModel::asap7();
        for circuit in [
            MultiplierCircuit::array(4),
            MultiplierCircuit::array(8),
            MultiplierCircuit::wallace(6),
        ] {
            let report = analyzed(circuit.netlist());
            let cost = model.estimate(&circuit);
            assert_eq!(
                report.delay_ps.to_bits(),
                cost.delay_ps.to_bits(),
                "{circuit:?}"
            );
            assert!(report
                .consistency_diagnostics(&model, circuit.netlist())
                .is_empty());
        }
    }

    #[test]
    fn critical_path_is_connected_and_zero_slack() {
        let circuit = MultiplierCircuit::array(6);
        let report = analyzed(circuit.netlist());
        assert!(!report.critical_path.is_empty());
        let first = report.critical_path.first().unwrap();
        assert_eq!(first.kind.arity(), 0, "path starts at an input/constant");
        let last = report.critical_path.last().unwrap();
        assert_eq!(Some(last.signal), report.critical_output);
        assert_eq!(last.arrival_ps.to_bits(), report.delay_ps.to_bits());
        for pair in report.critical_path.windows(2) {
            let gate = circuit.netlist().gate(pair[1].signal);
            assert!((0..gate.kind.arity()).any(|k| gate.fanins[k] == pair[0].signal));
        }
        for g in &report.critical_path {
            let slack = report.slack_ps[g.signal.index()];
            assert!(
                slack.abs() < 1e-9,
                "critical node {} slack {slack}",
                g.signal
            );
        }
    }

    #[test]
    fn required_and_slack_semantics() {
        // y = and(xor(a, b), c): the XOR branch is critical, the direct
        // `c` fanin has positive slack, dead logic is unconstrained.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let x = nl.xor(a, b);
        let y = nl.and(x, c);
        let dead = nl.or(a, b);
        nl.set_outputs(vec![y]);
        let report = analyzed(&nl);
        assert!(report.slack_ps[x.index()].abs() < 1e-12);
        assert!(report.slack_ps[c.index()] > 0.0);
        assert!(report.slack_ps[dead.index()].is_infinite());
        assert_eq!(report.output_delays_ps, vec![report.delay_ps]);
    }

    #[test]
    fn empty_and_malformed_netlists_do_not_panic() {
        let nl = Netlist::new();
        let report = analyzed(&nl);
        assert_eq!(report.delay_ps, 0.0);
        assert!(report.critical_path.is_empty());

        // Dangling fanin: the cost model would panic; STA must not.
        let gates = vec![
            appmult_circuit::Gate {
                kind: GateKind::Input,
                fanins: [Signal::from_index(0); 2],
            },
            appmult_circuit::Gate {
                kind: GateKind::And,
                fanins: [Signal::from_index(0), Signal::from_index(9)],
            },
        ];
        let nl = Netlist::from_raw_parts(
            gates,
            vec![Signal::from_index(0)],
            vec![Signal::from_index(1)],
        );
        let report = analyzed(&nl);
        assert!(report.delay_ps > 0.0);
        // The cost-model comparison is skipped, the self-checks pass.
        assert!(report
            .consistency_diagnostics(&CostModel::asap7(), &nl)
            .is_empty());
    }

    #[test]
    fn slack_histogram_counts_live_physical_gates() {
        let circuit = MultiplierCircuit::array(5);
        let nl = circuit.netlist();
        let report = analyzed(nl);
        let live = nl.live_mask();
        let hist = report.slack_histogram(nl, &live, 8);
        let total: u32 = hist.iter().sum();
        assert_eq!(total as usize, nl.live_gate_count());
        // The critical path puts at least one gate in the zero-slack bin.
        assert!(hist[0] > 0);
    }
}
