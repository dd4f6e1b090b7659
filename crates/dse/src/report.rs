//! `results/DSE.json` serialization (schema `appmult-dse/v1`).
//!
//! Built through the workspace's one JSON encoder
//! ([`appmult_obs::json`]), like every other report. Every float is
//! emitted twice: once as the shortest-round-trip decimal for humans, once
//! as its IEEE-754 bit pattern (`*_bits` / `objective_bits`) so the
//! determinism regression can compare frontiers bit-for-bit without
//! parsing decimals.
//!
//! [`frontier_json`] deliberately excludes anything machine-dependent
//! (thread count, kernel): two runs with the same config must produce
//! byte-identical frontier files regardless of `APPMULT_THREADS`. The
//! full [`dse_json`] adds the run environment in its config header.

use appmult_obs::json::{self, JsonWriter, Layout};
use appmult_obs::Value;

use crate::eval::{DseConfig, Objective};
use crate::search::{Candidate, DseResult};

/// Version tag in the `schema` field of `results/DSE.json`.
pub const DSE_SCHEMA_VERSION: &str = "appmult-dse/v1";

fn write_objective(o: &Objective, key: &str, w: &mut JsonWriter) {
    w.key(key).object(Layout::Inline, |w| {
        w.key("hw").f64(o.hw);
        w.key("err").f64(o.err);
        w.key("proxy").f64(o.proxy);
    });
    w.key(&format!("{key}_bits")).array(Layout::Inline, |w| {
        for v in [o.hw, o.err, o.proxy] {
            w.raw(v.to_bits());
        }
    });
}

fn frontier_entry(cfg: &DseConfig, c: &Candidate, w: &mut JsonWriter) {
    let e = &c.eval;
    w.key("name").str(&c.design_name(cfg.bits));
    w.key("id").raw(c.id);
    w.key("parent");
    match c.parent {
        Some(p) => w.raw(p),
        None => w.null(),
    };
    w.key("bits").raw(cfg.bits);
    w.key("mutations").array(Layout::Inline, |w| {
        for m in &c.mutations {
            w.str(m);
        }
    });
    write_objective(&e.objective, "objective", w);
    for (key, value) in [
        ("delay_ps", e.cost.delay_ps),
        ("area_um2", e.cost.area_um2),
        ("power_uw", e.cost.power_uw),
        ("nmed", e.metrics.nmed),
        ("error_rate", e.metrics.error_rate),
    ] {
        w.key(key).f64(value);
        w.key(&format!("{key}_bits")).raw(value.to_bits());
    }
    w.key("max_ed").raw(e.metrics.max_ed);
    w.key("hws").raw(e.hws);
    w.key("rung");
    match c.rung {
        Some(r) => w.f64(r),
        None => w.null(),
    };
    w.key("depth").raw(e.depth);
    w.key("live_gates").raw(e.live_gates);
    w.key("critical_path").array(Layout::Pretty, |w| {
        for g in &e.critical_path {
            g.write_json(w);
        }
    });
    w.key("netlist")
        .str(&appmult_circuit::to_netlist_text(&c.netlist));
}

fn frontier_array(cfg: &DseConfig, result: &DseResult, w: &mut JsonWriter) {
    w.key("frontier").array(Layout::Pretty, |w| {
        for c in &result.frontier {
            w.object(Layout::Pretty, |w| frontier_entry(cfg, c, w));
        }
    });
}

/// Frontier-only JSON: everything that must be **byte-identical** across
/// thread counts for the same `(config, seeds)`.
pub fn frontier_json(cfg: &DseConfig, result: &DseResult) -> String {
    json::document(|w| {
        w.key("schema").str(DSE_SCHEMA_VERSION);
        w.key("seed").raw(cfg.seed);
        w.key("bits").raw(cfg.bits);
        frontier_array(cfg, result, w);
    })
}

/// The full `results/DSE.json` document: config header ending in the run
/// environment `env` (`threads`, `kernel`), per-generation statistics, and
/// the frontier.
pub fn dse_json(cfg: &DseConfig, result: &DseResult, env: &[(&str, Value)]) -> String {
    json::document(|w| {
        w.key("schema").str(DSE_SCHEMA_VERSION);
        w.key("config").object(Layout::Pretty, |w| {
            w.key("seed").raw(cfg.seed);
            w.key("bits").raw(cfg.bits);
            w.key("mu").raw(cfg.mu);
            w.key("lambda").raw(cfg.lambda);
            w.key("generations").raw(cfg.generations);
            w.key("max_mutations").raw(cfg.max_mutations);
            w.key("rung").raw(cfg.rung.is_some());
            for (key, value) in env {
                w.key(key).value(value);
            }
        });
        w.key("evaluated").raw(result.evaluated);
        w.key("invalid").raw(result.invalid);
        w.key("generations").array(Layout::Pretty, |w| {
            for s in &result.stats {
                w.object(Layout::Inline, |w| {
                    w.key("generation").raw(s.generation);
                    w.key("evaluated").raw(s.evaluated);
                    w.key("invalid").raw(s.invalid);
                    w.key("frontier_size").raw(s.frontier_size);
                    write_objective(&s.best, "best", w);
                });
            }
        });
        frontier_array(cfg, result, w);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::run;
    use appmult_circuit::MultiplierCircuit;
    use appmult_pool::Pool;

    fn tiny_result() -> (DseConfig, DseResult) {
        let mut cfg = DseConfig::smoke(3, 5);
        cfg.mu = 4;
        cfg.lambda = 6;
        cfg.generations = 2;
        let seeds = vec![MultiplierCircuit::array(3).netlist().clone()];
        let result = run(&cfg, &seeds, &Pool::serial());
        (cfg, result)
    }

    #[test]
    fn json_documents_are_balanced_and_tagged() {
        let (cfg, result) = tiny_result();
        for doc in [
            frontier_json(&cfg, &result),
            dse_json(
                &cfg,
                &result,
                &[("threads", 1u64.into()), ("kernel", "scalar".into())],
            ),
        ] {
            assert!(doc.contains(DSE_SCHEMA_VERSION));
            let opens = doc.matches('{').count();
            let closes = doc.matches('}').count();
            assert_eq!(opens, closes, "unbalanced braces");
            assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        }
    }

    #[test]
    fn frontier_netlists_parse_back() {
        let (cfg, result) = tiny_result();
        let doc = frontier_json(&cfg, &result);
        // The netlist text is embedded with \n escapes; the first member
        // of the frontier must round-trip through the parser.
        let needle = "\"netlist\": \"";
        let start = doc.find(needle).expect("frontier has a netlist") + needle.len();
        let end = start + doc[start..].find('"').unwrap();
        let text = doc[start..end].replace("\\n", "\n");
        let parsed = appmult_circuit::from_netlist_text(&text).expect("embedded netlist parses");
        assert_eq!(parsed.num_inputs(), 2 * cfg.bits as usize);
    }

    #[test]
    fn full_json_embeds_run_environment() {
        let (cfg, result) = tiny_result();
        let doc = dse_json(
            &cfg,
            &result,
            &[("threads", 8u64.into()), ("kernel", "unrolled".into())],
        );
        assert!(doc.contains("\"threads\": 8"));
        assert!(doc.contains("\"kernel\": \"unrolled\""));
        assert!(doc.contains("\"generations\": ["));
        // The frontier serialization is shared with frontier_json.
        let frontier = frontier_json(&cfg, &result);
        let tail = &frontier[frontier.find("\"frontier\"").unwrap()..];
        assert!(doc.contains(tail.trim_end_matches("}\n").trim_end()));
    }
}
