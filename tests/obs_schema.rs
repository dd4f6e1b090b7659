//! Acceptance test of the observability layer: the `obs_demo` run must
//! produce an `appmult-obs/v1` report with per-layer forward/backward
//! latency histograms, per-epoch loss/gradient-norm events, and resilience
//! intervention counts — verified by parsing the serialized
//! `results/OBS.json`, the same artifact the `obs_demo` binary writes.

/// Both tests in this file install a process-global recording `ObsSink`
/// (`run_obs_demo` and `run_serve_bench` each call
/// `appmult_obs::set_global`), so they must not run concurrently in the
/// same test binary.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Minimal line-oriented field extraction, as in `lint_zoo.rs`.
fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let prefix = format!("\"{key}\": ");
    let rest = line.trim().strip_prefix(&prefix)?;
    Some(rest.trim_end_matches(','))
}

/// Extracts `"key": <u64>` from a single-line JSON object.
fn inline_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn obs_demo_report_meets_the_acceptance_criteria() {
    let _guard = obs_lock();
    let demo = appmult_bench::run_obs_demo();

    // Persist the same artifacts the obs_demo binary writes, then go
    // through the serialized report for every assertion below.
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/OBS.json", &demo.report_json).expect("write OBS.json");
    std::fs::write("results/OBS_events.jsonl", &demo.events_jsonl).expect("write events");
    let json = std::fs::read_to_string("results/OBS.json").expect("read OBS.json");

    assert!(json.contains("\"schema\": \"appmult-obs/v1\""));
    assert!(json.contains("\"recording\": true"));

    // The report header embeds the run configuration (additive `config`
    // object): resolved thread count and active kernel label.
    assert!(json.contains("\"config\": {"), "config header missing");
    let threads = json
        .lines()
        .find_map(|l| field(l, "threads"))
        .expect("config.threads present");
    assert!(threads.parse::<u64>().expect("threads is an integer") >= 1);
    let kernel = json
        .lines()
        .find_map(|l| field(l, "kernel"))
        .expect("config.kernel present");
    assert!(
        kernel.contains("naive") || kernel.contains("tiled"),
        "unrecognized kernel label {kernel}"
    );

    // Counters: LUT traffic plus the full resilience-intervention
    // inventory. The demo's learning-rate spike must have fired the policy.
    let mut counters = std::collections::BTreeMap::new();
    for line in json.lines() {
        for key in [
            "lut.lookups",
            "lut.live_lookups",
            "gradlut.lookups",
            "gradient_lut.builds",
            "resilience.rollbacks",
            "resilience.scrubbed_grads",
            "resilience.norm_clips",
            "observer.rejections",
        ] {
            if let Some(v) = field(line, key) {
                counters.insert(key, v.parse::<u64>().expect("counter is an integer"));
            }
        }
    }
    for key in [
        "lut.lookups",
        "lut.live_lookups",
        "gradlut.lookups",
        "gradient_lut.builds",
        "resilience.rollbacks",
        "resilience.scrubbed_grads",
        "resilience.norm_clips",
        "observer.rejections",
    ] {
        assert!(counters.contains_key(key), "missing counter {key}");
    }
    assert!(counters["lut.lookups"] > 0);
    assert!(counters["lut.live_lookups"] > 0);
    assert!(counters["lut.live_lookups"] <= counters["lut.lookups"]);
    assert!(counters["gradlut.lookups"] > 0);
    assert!(counters["gradient_lut.builds"] >= 1);
    assert!(
        counters["resilience.rollbacks"] >= 1,
        "the LR spike must trigger a rollback: {counters:?}"
    );
    assert!(counters["resilience.norm_clips"] >= 1);

    // Histograms: per-layer forward and backward latency, gradient norms,
    // and weight-update magnitudes, each with log2 buckets.
    let hist_names: Vec<&str> = json
        .lines()
        .filter_map(|l| field(l, "name"))
        .map(|v| v.trim_matches('"'))
        .collect();
    assert!(
        hist_names.iter().any(|n| n.ends_with("linear.forward")),
        "no per-layer forward latency histogram in {hist_names:?}"
    );
    assert!(
        hist_names.iter().any(|n| n.ends_with("linear.backward")),
        "no per-layer backward latency histogram in {hist_names:?}"
    );
    assert!(hist_names.contains(&"grad_norm"));
    assert!(hist_names.contains(&"weight_update_magnitude"));
    assert!(hist_names.iter().any(|n| n.ends_with("pool.worker")));
    assert!(json.contains("\"log2\": "), "histograms must carry buckets");
    assert!(
        json.contains("\"busy_us\": "),
        "per-thread busy time missing"
    );

    // Events: one per epoch, each carrying loss and gradient-norm fields,
    // plus at least one rollback event; identical in the report and the
    // JSONL stream.
    let epoch_lines: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"kind\": \"epoch\""))
        .collect();
    assert_eq!(
        epoch_lines.len(),
        demo.history.epochs.len(),
        "one epoch event per epoch"
    );
    for (i, line) in epoch_lines.iter().enumerate() {
        assert_eq!(inline_u64(line, "epoch"), Some(i as u64 + 1));
        assert!(line.contains("\"train_loss\": "), "{line}");
        assert!(line.contains("\"grad_norm\": "), "{line}");
        assert!(line.contains("\"lr\": "), "{line}");
        assert!(line.contains("\"scrubbed_grads\": "), "{line}");
        assert!(line.contains("\"rollbacks\": "), "{line}");
    }
    assert!(
        json.lines().any(|l| l.contains("\"kind\": \"rollback\"")),
        "rollback event missing"
    );
    let jsonl_epochs = demo
        .events_jsonl
        .lines()
        .filter(|l| l.contains("\"kind\": \"epoch\""))
        .count();
    assert_eq!(jsonl_epochs, epoch_lines.len());

    // The summary table mentions the same signals.
    for needle in ["counters:", "histograms", "thread busy time:", "events: "] {
        assert!(demo.summary.contains(needle), "summary missing {needle}");
    }

    // And the run itself stayed healthy: the rollback recovered it.
    assert!(demo.history.final_train_loss().is_finite());
    assert!(demo.history.total_rollbacks() >= 1);
}

/// Locks the extended `BENCH_serve.json` schema: the fairness object
/// (per-model throughput shares of the multimodel phase) and the
/// per-phase latency/SLO-budget array are additive, CI-consumed fields —
/// a miniature bench run must always emit them, well-formed and free of
/// non-JSON values like `NaN`.
#[test]
fn bench_serve_schema_locks_fairness_and_latency_fields() {
    let _guard = obs_lock();
    let opts = appmult_bench::serve_driver::ServeBenchOptions {
        duration: std::time::Duration::from_millis(40),
        overload_x: 2.0,
        chaos: 0,
        assert_overload: false,
        assert_fairness: false,
    };
    let report = appmult_bench::serve_driver::run_serve_bench(&opts);
    let json = &report.json;

    // Never emit non-JSON float spellings, even for empty percentile sets.
    for bad in ["NaN", "inf"] {
        assert!(!json.contains(bad), "{bad} leaked into BENCH_serve.json");
    }

    // Config header and the five driving phases.
    assert!(json.contains("\"config\": {"), "config header missing");
    assert!(json.contains("\"drr_quantum_macs\": "), "DRR knob missing");
    for phase in ["estimate", "steady", "overload", "recovery", "multimodel"] {
        assert!(
            json.contains(&format!("\"phase\": \"{phase}\"")),
            "phase {phase} missing"
        );
    }

    // Per-phase latency entries: p50/p99 plus the SLO budget verdict.
    assert!(json.contains("\"phase_latency_ms\": ["));
    let latency_lines: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"budget_p99\": "))
        .collect();
    assert_eq!(latency_lines.len(), 5, "one latency entry per phase");
    for line in &latency_lines {
        for key in ["ok_p50", "ok_p99", "budget_p99", "within_budget"] {
            assert!(
                line.contains(&format!("\"{key}\": ")),
                "{key} missing: {line}"
            );
        }
    }

    // The fairness object: bound is half the fair share, and every model
    // row carries share + latency percentiles.
    assert!(json.contains("\"fairness\": {\"phase\": \"multimodel\""));
    for key in ["fair_share", "bound", "min_share", "holds", "models"] {
        assert!(
            json.contains(&format!("\"{key}\": ")),
            "fairness.{key} missing"
        );
    }
    let model_lines: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"ok_p50_ms\": "))
        .collect();
    assert_eq!(model_lines.len(), 2, "one fairness row per model");
    for line in &model_lines {
        for key in [
            "model",
            "submitted",
            "served",
            "share",
            "ok_p50_ms",
            "ok_p99_ms",
        ] {
            assert!(
                line.contains(&format!("\"{key}\": ")),
                "{key} missing: {line}"
            );
        }
    }

    // The books balanced and the warm-prefetch path fired for both LUTs.
    assert!(json.contains("\"lost\": 0"));
    assert!(json.contains("\"luts_prefetched\": "));
    assert_eq!(report.lost, 0);
    assert_eq!(report.shares.len(), 2);
    assert!((report.share_bound - 0.25).abs() < 1e-9);
    assert!(report.phase_p99_ms.iter().all(|ms| ms.is_finite()));
}
