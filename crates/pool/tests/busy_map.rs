//! The observability busy map sees the pool's persistent workers under
//! their names, not as one new `ThreadId(..)` entry per dispatch. Kept in
//! its own test binary: the map is process-wide, so any other test running
//! alongside could add tags of its own.

use appmult_obs::ObsSink;
use appmult_pool::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn busy_map_holds_one_tag_per_reused_worker() {
    let obs = ObsSink::recording();
    appmult_obs::set_global(&obs);
    let mut out = vec![0u32; 12];
    for _ in 0..50 {
        // Each of the three blocks waits until all have started, so the
        // two helpers run one each instead of the caller running them all.
        let started = AtomicUsize::new(0);
        Pool::new(3).run_rows(&mut out, 2, |first, chunk| {
            started.fetch_add(1, Ordering::SeqCst);
            let t = Instant::now();
            while started.load(Ordering::SeqCst) < 3 && t.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            chunk.fill(first as u32);
        });
    }
    appmult_obs::set_global(&ObsSink::null());
    let json = obs.to_json();
    let tags: Vec<&str> = json
        .split("\"thread\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(!tags.is_empty(), "no busy time attributed:\n{json}");
    assert!(
        tags.iter().all(|t| !t.starts_with("ThreadId(")),
        "unnamed thread tags: {tags:?}"
    );
    let workers = tags
        .iter()
        .filter(|t| t.starts_with("appmult-pool-"))
        .count();
    assert!(
        (1..=2).contains(&workers),
        "{workers} worker tags: {tags:?}"
    );
}
