//! Acceptance test of the observability layer: the `obs_demo` run must
//! produce an `appmult-obs/v1` report with per-layer forward/backward
//! latency histograms, per-epoch loss/gradient-norm events, and resilience
//! intervention counts — verified by parsing the serialized
//! `results/OBS.json`, the same artifact the `obs_demo` binary writes.

/// `run_obs_demo` installs a process-global recording `ObsSink`
/// (`appmult_obs::set_global`); any test in this file that also installs
/// one must hold this lock, so the two never record into each other.
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
