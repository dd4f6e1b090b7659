//! Acceptance test of the static verification layer: the full zoo sweep
//! must lint clean, prove the exact designs, and report concrete
//! counterexamples for the faulty negative controls — verified by parsing
//! the machine-readable `results/LINT.json` report.

/// Minimal line-oriented parse of one design block of the
/// `appmult-lint/v3` schema.
#[derive(Debug, Default, Clone)]
struct DesignRecord {
    name: String,
    kind: String,
    errors: u32,
    status: String,
    exhaustive: bool,
    counterexample_fields: u32,
}

fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let prefix = format!("\"{key}\": ");
    let rest = line.trim().strip_prefix(&prefix)?;
    Some(rest.trim_end_matches(','))
}

fn parse_designs(json: &str) -> Vec<DesignRecord> {
    let mut designs = Vec::new();
    let mut current: Option<DesignRecord> = None;
    for line in json.lines() {
        if let Some(v) = field(line, "name") {
            if let Some(done) = current.take() {
                designs.push(done);
            }
            current = Some(DesignRecord {
                name: v.trim_matches('"').to_string(),
                ..DesignRecord::default()
            });
        }
        let Some(d) = current.as_mut() else { continue };
        if let Some(v) = field(line, "kind") {
            d.kind = v.trim_matches('"').to_string();
        }
        if let Some(v) = field(line, "errors") {
            d.errors = v.parse().expect("errors is an integer");
        }
        if let Some(v) = field(line, "status") {
            d.status = v.trim_matches('"').to_string();
        }
        if let Some(v) = field(line, "exhaustive") {
            d.exhaustive = v == "true";
        }
        for key in ["w", "x", "got", "expected"] {
            if field(line, key).map(|v| v.parse::<u64>().is_ok()) == Some(true) {
                d.counterexample_fields += 1;
            }
        }
    }
    designs.extend(current);
    designs
}

#[test]
fn zoo_lint_report_meets_the_acceptance_criteria() {
    // The `_syn` entries run approximate logic synthesis, which dominates
    // unoptimized runtimes; as in zoo_coverage.rs they are covered by
    // `appmult-mult`'s own tests and by the release-mode CI sweep.
    let include_syn = !cfg!(debug_assertions);
    let report = appmult_bench::lint::lint_zoo_filtered(include_syn);
    let json = report.to_json();

    // Persist the same artefact the appmult-lint binary writes, so the
    // assertions below genuinely go through the serialized report.
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/LINT.json", &json).expect("write LINT.json");
    let json = std::fs::read_to_string("results/LINT.json").expect("read LINT.json");

    assert!(json.contains("\"schema\": \"appmult-lint/v3\""));
    // No design may carry an error diagnostic.
    assert!(
        !json.contains("\"severity\": \"error\""),
        "error diagnostics in LINT.json"
    );

    let designs = parse_designs(&json);
    // 14 (18 minus the four `_syn`) zoo entries + stuck-at control +
    // corrupted-LUT control.
    let floor = if include_syn { 20 } else { 16 };
    assert!(
        designs.len() >= floor,
        "only {} designs parsed",
        designs.len()
    );
    assert!(designs.iter().all(|d| d.errors == 0), "{designs:?}");

    // Every exact design is *proved* equivalent (a scan of all 2^(2B)
    // products).
    let exact: Vec<_> = designs.iter().filter(|d| d.kind == "exact").collect();
    assert!(exact.len() >= 3);
    for d in &exact {
        assert_eq!(d.status, "equivalent", "{}", d.name);
        assert!(d.exhaustive, "{} must be proved", d.name);
    }

    // Approximate designs all differ from the exact multiplier.
    let approx: Vec<_> = designs.iter().filter(|d| d.kind == "approximate").collect();
    assert!(approx.len() >= if include_syn { 15 } else { 11 });
    for d in &approx {
        assert_eq!(d.status, "counterexample", "{}", d.name);
    }

    // At least one deliberately faulty design reports a concrete
    // counterexample (all four operand/product fields present).
    let faulty: Vec<_> = designs.iter().filter(|d| d.kind == "faulty").collect();
    assert!(faulty.len() >= 2);
    assert!(
        faulty
            .iter()
            .any(|d| d.status == "counterexample" && d.counterexample_fields == 4),
        "{faulty:?}"
    );
}

#[test]
fn generated_multipliers_carry_no_dead_gate() {
    // Every gate the generators build reaches an output. In particular the
    // Wallace tree's top column gets a lone sum XOR where a half adder's
    // carry AND would have no column to land in (7 to 10 bits).
    use appmult::circuit::MultiplierCircuit;
    for bits in 2..=10 {
        for (kind, circuit) in [
            ("array", MultiplierCircuit::array(bits)),
            ("wallace", MultiplierCircuit::wallace(bits)),
        ] {
            let dead: Vec<String> = appmult_bench::lint::lint_netlist(circuit.netlist())
                .iter()
                .filter(|d| d.pass == "dead-gate")
                .map(ToString::to_string)
                .collect();
            assert!(dead.is_empty(), "{kind}({bits}): {dead:?}");
        }
    }
}
