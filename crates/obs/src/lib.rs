//! Zero-dependency observability for the retraining workspace.
//!
//! A retraining run that diverges, or a parallel kernel that underperforms,
//! used to be invisible beyond ad-hoc `println!`s: the loop produced a CSV
//! at the end and nothing in between. This crate makes per-layer timing,
//! gradient statistics, and kernel counters first-class signals:
//!
//! * **Scoped spans** — [`ObsSink::span`] returns a guard that measures
//!   wall-clock time with [`std::time::Instant`] and records it into a
//!   log2 latency histogram on drop. Spans nest: a span opened while
//!   another is live on the same thread records under the joined path
//!   (`"epoch/batch/linear.forward"`), and *root* spans additionally
//!   attribute busy time to the current thread, so `appmult-pool` workers
//!   show up individually in the report.
//! * **Metrics registry** — monotonic counters ([`ObsSink::counter_add`]),
//!   gauges ([`ObsSink::gauge_set`]), and fixed-bucket log2 histograms
//!   ([`ObsSink::observe`]) keyed by name.
//! * **Structured events** — [`ObsSink::event`] appends a typed record
//!   (epoch loss, learning rate, rollbacks, ...) with a sequence number
//!   and a timestamp relative to sink creation. Events render as JSONL
//!   ([`ObsSink::events_jsonl`]) and are embedded in the full report.
//!
//! Everything hangs off an [`ObsSink`] handle. The default sink is a
//! no-op **null sink**: every method is a single `Option` check, no
//! allocation, no locking, no clock reads — cheap enough to leave in the
//! hot kernels permanently (the `par_scale` benchmark asserts the
//! overhead). A recording sink ([`ObsSink::recording`]) accumulates into
//! an internal registry and serializes to the `appmult-obs/v1` JSON
//! schema ([`ObsSink::to_json`]) plus a plain-text summary table
//! ([`ObsSink::summary`]).
//!
//! The crate also owns the workspace's one JSON encoder, [`json`]: every
//! report file (LINT, GRAD_MATRIX, the BENCH files and this
//! crate's own report) is written through it.
//!
//! Hot paths that have no configuration handle (the LUT-GEMM kernels, the
//! pool) read the process-wide sink via [`global`]; it defaults to the
//! null sink and is installed by [`set_global`]. The fast path is one
//! relaxed atomic load.
//!
//! # Example
//!
//! ```
//! let obs = appmult_obs::ObsSink::recording();
//! {
//!     let _span = obs.span("demo.work");
//!     obs.counter_add("demo.items", 3);
//! }
//! obs.event("epoch", &[("epoch", 1u64.into()), ("loss", 0.25f64.into())]);
//! let json = obs.to_json();
//! assert!(json.contains("\"schema\": \"appmult-obs/v1\""));
//! assert!(json.contains("\"demo.items\": 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use json::{JsonWriter, Layout};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "appmult-obs/v1";

/// A typed field value attached to an [`event`](ObsSink::event).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// String (escaped on serialization).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Self::F64(f64::from(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

/// Number of fixed log2 buckets per histogram: exponents `-32..=31`.
pub const HIST_BUCKETS: usize = 64;
const MIN_EXP: i32 = -32;
const MAX_EXP: i32 = 31;

/// Bucket index (the floor of `log2(v)`, clamped) for a histogram sample.
/// Non-positive and subnormal-small values land in the lowest bucket.
fn log2_bucket(v: f64) -> i32 {
    if v > 0.0 {
        (v.log2().floor() as i32).clamp(MIN_EXP, MAX_EXP)
    } else {
        MIN_EXP
    }
}

/// One fixed-bucket log2 histogram: 64 buckets covering `2^-32 ..= 2^32`,
/// stored sparsely, plus count/sum/min/max for exact means.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    /// Occupied buckets: `floor(log2(sample))` → sample count.
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(log2_bucket(v)).or_insert(0) += 1;
    }

    /// Mean of the recorded samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One structured event: a kind plus typed fields, stamped with a
/// sequence number and microseconds since the sink was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// 0-based position in the event stream.
    pub seq: u64,
    /// Microseconds since the recording sink was created.
    pub t_us: u64,
    /// Event kind, e.g. `"epoch"` or `"rollback"`.
    pub kind: String,
    /// Typed payload fields in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Renders the event as a single-line JSON object (one JSONL record).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut JsonWriter) {
        w.object(Layout::Inline, |w| {
            w.key("seq").raw(self.seq);
            w.key("t_us").raw(self.t_us);
            w.key("kind").str(&self.kind);
            for (k, v) in &self.fields {
                w.key(k).value(v);
            }
        });
    }
}

/// Mutable registry state behind the recorder's mutex.
#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    /// Busy nanoseconds attributed per thread tag by root spans.
    threads: BTreeMap<String, u64>,
    events: Vec<Event>,
}

/// The shared recording backend of a non-null [`ObsSink`].
#[derive(Debug)]
struct Recorder {
    start: Instant,
    inner: Mutex<Inner>,
}

thread_local! {
    /// Per-thread stack of live span names; joined into hierarchical paths.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Tag identifying the current thread in the report: its name when set
/// (`main`, test names), else the numeric `ThreadId` debug form.
fn thread_tag() -> String {
    let current = std::thread::current();
    match current.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", current.id()),
    }
}

/// A cheaply clonable handle to either the null sink or a shared recorder.
///
/// All methods are safe to call from any thread; the null sink turns every
/// one of them into a single branch.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    rec: Option<Arc<Recorder>>,
}

impl ObsSink {
    /// The no-op sink: records nothing, costs one branch per call.
    pub fn null() -> Self {
        Self { rec: None }
    }

    /// A fresh recording sink with an empty registry.
    pub fn recording() -> Self {
        Self {
            rec: Some(Arc::new(Recorder {
                start: Instant::now(),
                inner: Mutex::new(Inner::default()),
            })),
        }
    }

    /// Whether this sink records anything. Use to gate instrumentation
    /// whose *inputs* are expensive to compute (e.g. a full gradient norm).
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(rec) = &self.rec {
            let mut inner = rec.inner.lock().expect("obs registry poisoned");
            *inner.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(rec) = &self.rec {
            let mut inner = rec.inner.lock().expect("obs registry poisoned");
            inner.gauges.insert(name.to_string(), value);
        }
    }

    /// Records `value` into the log2 histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(rec) = &self.rec {
            let mut inner = rec.inner.lock().expect("obs registry poisoned");
            inner
                .hists
                .entry(name.to_string())
                .or_default()
                .record(value);
        }
    }

    /// Appends a structured event of `kind` with the given fields.
    pub fn event(&self, kind: &str, fields: &[(&str, Value)]) {
        if let Some(rec) = &self.rec {
            let t_us = rec.start.elapsed().as_micros() as u64;
            let mut inner = rec.inner.lock().expect("obs registry poisoned");
            let seq = inner.events.len() as u64;
            inner.events.push(Event {
                seq,
                t_us,
                kind: kind.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Opens a scoped span named `name`. The returned guard measures
    /// wall-clock time until drop and records it (in microseconds) into
    /// the histogram `span.<path>`, where `<path>` joins all live span
    /// names on this thread with `/`. Root spans (no enclosing span on
    /// this thread) also attribute their duration to the current thread's
    /// busy time. The null sink returns an inert guard without touching
    /// the clock.
    #[must_use = "the span measures until the guard is dropped"]
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(rec) = &self.rec else {
            return SpanGuard { live: None };
        };
        let (path, is_root) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let is_root = stack.is_empty();
            stack.push(name.to_string());
            (stack.join("/"), is_root)
        });
        SpanGuard {
            live: Some(LiveSpan {
                rec: Arc::clone(rec),
                path,
                is_root,
                start: Instant::now(),
            }),
        }
    }

    /// Current value of counter `name` (0 when absent or on the null sink).
    pub fn counter(&self, name: &str) -> u64 {
        self.rec.as_ref().map_or(0, |rec| {
            let inner = rec.inner.lock().expect("obs registry poisoned");
            inner.counters.get(name).copied().unwrap_or(0)
        })
    }

    /// Snapshot of histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.rec.as_ref().and_then(|rec| {
            let inner = rec.inner.lock().expect("obs registry poisoned");
            inner.hists.get(name).cloned()
        })
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.rec.as_ref().map_or_else(Vec::new, |rec| {
            rec.inner
                .lock()
                .expect("obs registry poisoned")
                .events
                .clone()
        })
    }

    /// All recorded events as JSONL: one JSON object per line.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Serializes the full registry as an `appmult-obs/v1` report: pretty,
    /// one field per line (the workspace's line-oriented-parse convention,
    /// like `LINT.json`), with events embedded as single-line objects.
    pub fn to_json(&self) -> String {
        self.to_json_with_config(&[])
    }

    /// Like [`to_json`](Self::to_json), but embeds a `"config"` object
    /// right after the schema header describing the run that produced the
    /// report (threads, kernel, batch policy, ...). An empty slice omits
    /// the object entirely, keeping the schema additive.
    pub fn to_json_with_config(&self, config: &[(&str, Value)]) -> String {
        let Some(rec) = &self.rec else {
            return json::document(|w| {
                w.key("schema").str(SCHEMA);
                w.key("recording").raw(false);
            });
        };
        let inner = rec.inner.lock().expect("obs registry poisoned");
        json::document(|w| {
            w.key("schema").str(SCHEMA);
            if !config.is_empty() {
                w.key("config").object(Layout::Pretty, |w| {
                    for (key, value) in config {
                        w.key(key).value(value);
                    }
                });
            }
            w.key("recording").raw(true);
            w.key("counters").object(Layout::Pretty, |w| {
                for (name, value) in &inner.counters {
                    w.key(name).raw(value);
                }
            });
            w.key("gauges").object(Layout::Pretty, |w| {
                for (name, value) in &inner.gauges {
                    w.key(name).f64(*value);
                }
            });
            w.key("histograms").array(Layout::Pretty, |w| {
                for (name, hist) in &inner.hists {
                    let empty = hist.count == 0;
                    w.object(Layout::Pretty, |w| {
                        w.key("name").str(name);
                        w.key("count").raw(hist.count);
                        w.key("sum").f64(hist.sum);
                        w.key("min").f64(if empty { f64::NAN } else { hist.min });
                        w.key("max").f64(if empty { f64::NAN } else { hist.max });
                        w.key("buckets").array(Layout::Inline, |w| {
                            for (exp, count) in &hist.buckets {
                                w.object(Layout::Inline, |w| {
                                    w.key("log2").raw(exp);
                                    w.key("count").raw(count);
                                });
                            }
                        });
                    });
                }
            });
            w.key("threads").array(Layout::Pretty, |w| {
                for (tag, nanos) in &inner.threads {
                    w.object(Layout::Inline, |w| {
                        w.key("thread").str(tag);
                        w.key("busy_us").f64(*nanos as f64 / 1_000.0);
                    });
                }
            });
            w.key("events").array(Layout::Pretty, |w| {
                for event in &inner.events {
                    event.write(w);
                }
            });
        })
    }

    /// Renders the registry as a plain-text end-of-run summary table.
    pub fn summary(&self) -> String {
        let Some(rec) = &self.rec else {
            return "observability: disabled (null sink)\n".to_string();
        };
        let inner = rec.inner.lock().expect("obs registry poisoned");
        let mut out = String::new();
        let _ = writeln!(out, "== observability summary ({SCHEMA}) ==");
        if !inner.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &inner.counters {
                let _ = writeln!(out, "  {name:<44} {value}");
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &inner.gauges {
                let _ = writeln!(out, "  {name:<44} {value:.6}");
            }
        }
        if !inner.hists.is_empty() {
            out.push_str("histograms (count / mean / min / max):\n");
            for (name, hist) in &inner.hists {
                let _ = writeln!(
                    out,
                    "  {name:<44} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                    hist.count,
                    hist.mean(),
                    hist.min,
                    hist.max
                );
            }
        }
        if !inner.threads.is_empty() {
            out.push_str("thread busy time:\n");
            for (tag, nanos) in &inner.threads {
                let _ = writeln!(out, "  {tag:<44} {:>12.3} ms", *nanos as f64 / 1e6);
            }
        }
        let _ = writeln!(out, "events: {}", inner.events.len());
        out
    }
}

/// Live half of a [`SpanGuard`] on a recording sink.
#[derive(Debug)]
struct LiveSpan {
    rec: Arc<Recorder>,
    path: String,
    is_root: bool,
    start: Instant,
}

/// RAII guard returned by [`ObsSink::span`]; records on drop.
#[derive(Debug)]
#[must_use = "the span measures until the guard is dropped"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let elapsed = live.start.elapsed();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let name = format!("span.{}", live.path);
        let tag = if live.is_root {
            Some(thread_tag())
        } else {
            None
        };
        let mut inner = live.rec.inner.lock().expect("obs registry poisoned");
        inner
            .hists
            .entry(name)
            .or_default()
            .record(elapsed.as_secs_f64() * 1e6);
        if let Some(tag) = tag {
            *inner.threads.entry(tag).or_insert(0) += elapsed.as_nanos() as u64;
        }
    }
}

/// Fast-path flag mirroring whether the installed global sink records.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed global sink (null until [`set_global`]).
static GLOBAL_SINK: RwLock<Option<ObsSink>> = RwLock::new(None);

/// The process-wide sink used by hot paths with no configuration handle
/// (LUT-GEMM kernels, gradient-table builds, the pool). Defaults to the
/// null sink; the disabled fast path is one relaxed atomic load.
pub fn global() -> ObsSink {
    if !GLOBAL_ENABLED.load(Ordering::Relaxed) {
        return ObsSink::null();
    }
    GLOBAL_SINK
        .read()
        .expect("global obs sink poisoned")
        .clone()
        .unwrap_or_default()
}

/// Installs `sink` as the process-wide sink returned by [`global`].
/// Install the null sink to disable again.
pub fn set_global(sink: &ObsSink) {
    let enabled = sink.is_enabled();
    *GLOBAL_SINK.write().expect("global obs sink poisoned") = Some(sink.clone());
    GLOBAL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Opens a span on the [`global`] sink: `let _g = appmult_obs::span!("gemm");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_records_nothing_and_reports_disabled() {
        let obs = ObsSink::null();
        assert!(!obs.is_enabled());
        obs.counter_add("x", 5);
        obs.observe("h", 1.0);
        obs.event("e", &[("k", 1u64.into())]);
        {
            let _g = obs.span("s");
        }
        assert_eq!(obs.counter("x"), 0);
        assert!(obs.events().is_empty());
        assert!(obs.to_json().contains("\"recording\": false"));
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let obs = ObsSink::recording();
        obs.counter_add("lut.lookups", 10);
        obs.counter_add("lut.lookups", 5);
        obs.gauge_set("lr", 0.1);
        obs.gauge_set("lr", 0.05);
        assert_eq!(obs.counter("lut.lookups"), 15);
        let json = obs.to_json();
        assert!(json.contains("\"lut.lookups\": 15"));
        assert!(json.contains("\"lr\": 0.05"));
    }

    #[test]
    fn config_header_is_embedded_and_additive() {
        let obs = ObsSink::recording();
        obs.counter_add("x", 1);
        let json = obs.to_json_with_config(&[
            ("threads", Value::from(4u64)),
            ("kernel", Value::from("tiled-64x16x64")),
        ]);
        assert!(json.contains("\"config\": {"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"kernel\": \"tiled-64x16x64\""));
        // Without a config the object is omitted entirely (schema stays
        // byte-identical to pre-config reports).
        assert!(!obs.to_json().contains("\"config\""));
        assert!(obs.to_json().contains("\"x\": 1"));
    }

    #[test]
    fn histogram_buckets_follow_log2() {
        assert_eq!(log2_bucket(1.0), 0);
        assert_eq!(log2_bucket(1.5), 0);
        assert_eq!(log2_bucket(2.0), 1);
        assert_eq!(log2_bucket(1023.0), 9);
        assert_eq!(log2_bucket(0.25), -2);
        assert_eq!(log2_bucket(0.0), MIN_EXP);
        assert_eq!(log2_bucket(-3.0), MIN_EXP);
        assert_eq!(log2_bucket(1e300), MAX_EXP);

        let obs = ObsSink::recording();
        for v in [1.0, 1.9, 4.0, 0.3] {
            obs.observe("h", v);
        }
        let h = obs.histogram("h").expect("recorded");
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[&0], 2);
        assert_eq!(h.buckets[&2], 1);
        assert_eq!(h.buckets[&-2], 1);
        assert!((h.mean() - (1.0 + 1.9 + 4.0 + 0.3) / 4.0).abs() < 1e-12);
        assert_eq!(h.min, 0.3);
        assert_eq!(h.max, 4.0);
    }

    #[test]
    fn spans_nest_into_paths_and_attribute_thread_busy_time() {
        let obs = ObsSink::recording();
        {
            let _outer = obs.span("epoch");
            {
                let _inner = obs.span("batch");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let outer = obs.histogram("span.epoch").expect("outer span");
        let inner = obs.histogram("span.epoch/batch").expect("inner span");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            outer.sum >= inner.sum,
            "outer {} inner {}",
            outer.sum,
            inner.sum
        );
        // Only the root span contributes busy time, exactly once.
        let json = obs.to_json();
        assert!(json.contains("\"threads\": ["));
        assert_eq!(json.matches("\"busy_us\":").count(), 1);
    }

    #[test]
    fn spans_on_other_threads_tag_separately() {
        let obs = ObsSink::recording();
        {
            let _main = obs.span("main_work");
        }
        let worker = obs.clone();
        std::thread::spawn(move || {
            let _s = worker.span("worker_work");
        })
        .join()
        .expect("worker");
        let json = obs.to_json();
        assert_eq!(json.matches("\"busy_us\":").count(), 2);
        assert_eq!(obs.histogram("span.worker_work").expect("hist").count, 1);
    }

    #[test]
    fn events_carry_typed_fields_in_order() {
        let obs = ObsSink::recording();
        obs.event(
            "epoch",
            &[
                ("epoch", 3u64.into()),
                ("loss", 0.5f64.into()),
                ("note", "ok".into()),
                ("diverged", false.into()),
            ],
        );
        obs.event("rollback", &[("loss", f64::NAN.into())]);
        let jsonl = obs.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\": 0, "));
        assert!(lines[0].contains("\"kind\": \"epoch\""));
        assert!(
            lines[0].contains("\"epoch\": 3, \"loss\": 0.5, \"note\": \"ok\", \"diverged\": false")
        );
        // Non-finite floats must stay parseable JSON.
        assert!(lines[1].contains("\"loss\": null"));
    }

    /// A recording sink with fixed contents: no clock reads, so the
    /// report's bytes depend only on what is recorded here.
    fn fixed_sink() -> ObsSink {
        let mut inner = Inner::default();
        inner.counters.insert("lut.lookups".into(), 15);
        inner.counters.insert("odd \"name\"".into(), 0);
        inner.gauges.insert("lr".into(), 0.05);
        inner.gauges.insert("poisoned".into(), f64::NAN);
        let mut hist = Histogram::default();
        for v in [1.0, 1.9, 4.0, 0.3] {
            hist.record(v);
        }
        inner.hists.insert("span.epoch".into(), hist);
        inner.hists.insert("unused".into(), Histogram::default());
        inner.threads.insert("main".into(), 1_234_567);
        inner.threads.insert("ThreadId(7)".into(), 500);
        inner.events.push(Event {
            seq: 0,
            t_us: 42,
            kind: "epoch".into(),
            fields: vec![
                ("epoch".into(), 3u64.into()),
                ("loss".into(), 0.5f64.into()),
                ("delta".into(), (-2i64).into()),
                ("note".into(), "tab\there".into()),
                ("diverged".into(), false.into()),
            ],
        });
        inner.events.push(Event {
            seq: 1,
            t_us: 1_000_001,
            kind: "rollback".into(),
            fields: vec![("loss".into(), f64::INFINITY.into())],
        });
        ObsSink {
            rec: Some(Arc::new(Recorder {
                start: Instant::now(),
                inner: Mutex::new(inner),
            })),
        }
    }

    #[test]
    fn report_layout_is_locked_on_fixed_contents() {
        let json = fixed_sink().to_json_with_config(&[
            ("threads", 2u64.into()),
            ("kernel", "tiled-64x16x64".into()),
        ]);
        let expected = r#"{
  "schema": "appmult-obs/v1",
  "config": {
    "threads": 2,
    "kernel": "tiled-64x16x64"
  },
  "recording": true,
  "counters": {
    "lut.lookups": 15,
    "odd \"name\"": 0
  },
  "gauges": {
    "lr": 0.05,
    "poisoned": null
  },
  "histograms": [
    {
      "name": "span.epoch",
      "count": 4,
      "sum": 7.2,
      "min": 0.3,
      "max": 4,
      "buckets": [{"log2": -2, "count": 1}, {"log2": 0, "count": 2}, {"log2": 2, "count": 1}]
    },
    {
      "name": "unused",
      "count": 0,
      "sum": 0,
      "min": null,
      "max": null,
      "buckets": []
    }
  ],
  "threads": [
    {"thread": "ThreadId(7)", "busy_us": 0.5},
    {"thread": "main", "busy_us": 1234.567}
  ],
  "events": [
    {"seq": 0, "t_us": 42, "kind": "epoch", "epoch": 3, "loss": 0.5, "delta": -2, "note": "tab\there", "diverged": false},
    {"seq": 1, "t_us": 1000001, "kind": "rollback", "loss": null}
  ]
}
"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn empty_report_and_event_lines_are_locked() {
        let json = ObsSink::recording().to_json();
        let expected = r#"{
  "schema": "appmult-obs/v1",
  "recording": true,
  "counters": {
  },
  "gauges": {
  },
  "histograms": [
  ],
  "threads": [
  ],
  "events": [
  ]
}
"#;
        assert_eq!(json, expected);
        assert_eq!(
            ObsSink::null().to_json(),
            "{\n  \"schema\": \"appmult-obs/v1\",\n  \"recording\": false\n}\n"
        );
        let jsonl = fixed_sink().events_jsonl();
        assert_eq!(
            jsonl,
            "{\"seq\": 0, \"t_us\": 42, \"kind\": \"epoch\", \"epoch\": 3, \"loss\": 0.5, \
             \"delta\": -2, \"note\": \"tab\\there\", \"diverged\": false}\n\
             {\"seq\": 1, \"t_us\": 1000001, \"kind\": \"rollback\", \"loss\": null}\n"
        );
    }

    #[test]
    fn global_sink_roundtrip() {
        // Serialized against other tests by the write-install pair.
        let _ = global().is_enabled();
        let obs = ObsSink::recording();
        set_global(&obs);
        global().counter_add("g.counter", 2);
        assert_eq!(obs.counter("g.counter"), 2);
        {
            let _g = span!("g.span");
        }
        assert!(obs.histogram("span.g.span").is_some());
        set_global(&ObsSink::null());
        assert!(!global().is_enabled());
        global().counter_add("g.counter", 2);
        assert_eq!(obs.counter("g.counter"), 2, "detached sink unaffected");
    }

    #[test]
    fn summary_mentions_every_section() {
        let obs = ObsSink::recording();
        obs.counter_add("c", 1);
        obs.gauge_set("g", 2.0);
        obs.observe("h", 3.0);
        obs.event("e", &[]);
        let s = obs.summary();
        for needle in ["counters:", "gauges:", "histograms", "events: 1"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
