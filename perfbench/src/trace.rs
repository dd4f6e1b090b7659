//! Bench-side spans: recorded around calls into the library's public
//! functions, kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    step: Option<u64>,
}

/// In-memory span store. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name self time: occurrences and total self nanoseconds.
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
}

impl SelfTime {
    /// Mean self time per occurrence, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e6
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span; returns its id (`None` when disabled), to
    /// be passed as the parent of spans it encloses.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        step: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            step,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` as a leaf span named `name` and returns its result.
    pub fn time<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, None);
        out
    }

    /// Self time by span name: each span's duration minus the part of it
    /// its child spans cover (children run sequentially on one thread).
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_ns += (s.end_ns - s.start_ns).saturating_sub(*child);
        }
        out
    }

    /// Writes every span, then the self-time table, as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            if let Some(step) = s.step {
                let _ = write!(out, ", \"step\": {step}");
            }
            out.push_str("}\n");
        }
        for (name, t) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"self_time\": \"{name}\", \"count\": {}, \"mean_ms\": {}}}",
                t.count,
                t.mean_ms()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
