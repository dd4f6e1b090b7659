//! Zero-dependency scoped data parallelism for the workspace's hot loops.
//!
//! The LUT-GEMM kernels, gradient-table builds, and exhaustive circuit
//! simulations all share one shape: a large output buffer whose rows can be
//! computed independently from shared read-only inputs. [`Pool::run_rows`]
//! partitions such a buffer into contiguous, *disjoint* `&mut` chunks — one
//! per worker — and runs them under [`std::thread::scope`]. Because every
//! output element is written by exactly one worker and each worker iterates
//! its rows in the same order as the serial loop, results are bit-identical
//! to a serial run regardless of the thread count; no atomics, no locks, no
//! floating-point reassociation.
//!
//! The pool is *scoped*, not persistent: threads are spawned per call and
//! joined before the call returns, so borrowed inputs need no `'static`
//! lifetimes and a panicking worker propagates to the caller. Spawn cost is
//! tens of microseconds, negligible against the `O(M·J·K)` loops it covers.
//!
//! Thread count resolution for [`Pool::global`], in order:
//!
//! 1. [`set_global_threads`] override (used by benchmarks),
//! 2. the `APPMULT_THREADS` environment variable (a positive integer;
//!    `1` forces fully serial execution),
//! 3. [`std::thread::available_parallelism`].
//!
//! On a 1-core host — or with `APPMULT_THREADS=1` — every entry point
//! degrades to a plain serial loop on the calling thread with no spawns.
//!
//! # Example
//!
//! ```
//! use appmult_pool::Pool;
//!
//! // 4 rows of 3 columns; each worker fills its own rows.
//! let mut out = vec![0usize; 12];
//! Pool::new(4).run_rows(&mut out, 3, |first_row, chunk| {
//!     for (r, row) in chunk.chunks_mut(3).enumerate() {
//!         for (c, v) in row.iter_mut().enumerate() {
//!             *v = (first_row + r) * 10 + c;
//!         }
//!     }
//! });
//! assert_eq!(out[3..6], [10, 11, 12]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Name of the environment variable that pins the worker count.
pub const THREADS_ENV: &str = "APPMULT_THREADS";

/// Why an `APPMULT_THREADS` value could not be parsed. Surfaces once per
/// offending value as an `env.parse_error` event on the global
/// [`appmult_obs`] sink before falling back to auto-detection.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ThreadsParseError {
    /// The value is not a base-10 unsigned integer.
    NotANumber(String),
    /// The value parsed but a pool needs at least one worker.
    Zero,
}

impl std::fmt::Display for ThreadsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotANumber(v) => {
                write!(f, "{THREADS_ENV}: {v:?} is not a positive integer")
            }
            Self::Zero => write!(f, "{THREADS_ENV}: thread count must be at least 1"),
        }
    }
}

/// Parses an `APPMULT_THREADS` value into a worker count. Leading and
/// trailing whitespace is ignored; empty strings, zero, and garbage are
/// errors ([`threads_from_env`] decides which of them stay silent).
fn parse_threads(value: &str) -> Result<usize, ThreadsParseError> {
    let trimmed = value.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(ThreadsParseError::Zero),
        Ok(n) => Ok(n),
        Err(_) => Err(ThreadsParseError::NotANumber(trimmed.to_string())),
    }
}

/// Values that already produced an `env.parse_error` event, so each
/// offending setting warns exactly once per process (keyed by value: tests
/// exercising different garbage strings stay independent).
static WARNED_VALUES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Emits a one-time `env.parse_error` event for a bad env value. Returns
/// true when this call was the first sighting (used by tests).
fn warn_env_once(value: &str, error: &ThreadsParseError) -> bool {
    let mut warned = WARNED_VALUES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.iter().any(|w| w == value) {
        return false;
    }
    warned.push(value.to_string());
    appmult_obs::global().event(
        "env.parse_error",
        &[
            ("var", THREADS_ENV.into()),
            ("value", value.into()),
            ("error", error.to_string().into()),
            ("fallback", "available_parallelism".into()),
        ],
    );
    true
}

/// Process-wide override installed by [`set_global_threads`]
/// (0 = no override).
static GLOBAL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// A fixed worker count for scoped data-parallel loops.
///
/// `Pool` is a tiny value type (it owns no threads); copy it freely. Use
/// [`Pool::global`] for production paths and [`Pool::new`] where an explicit
/// count is needed (parity tests, benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    /// Work-size floor: buffers smaller than this many elements run
    /// serially regardless of the worker count (0 = no floor).
    min_elems: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            min_elems: 0,
        }
    }

    /// A single-worker pool: every call runs serially on the caller.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The pool configured by the environment: the [`set_global_threads`]
    /// override if installed, else `APPMULT_THREADS`, else
    /// [`std::thread::available_parallelism`].
    pub fn global() -> Self {
        let o = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
        if o > 0 {
            return Self::new(o);
        }
        Self::new(threads_from_env(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// Worker count of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns a copy of this pool with a work-size floor: any
    /// [`run_rows`](Self::run_rows) call whose output buffer has fewer than
    /// `min_elems` elements runs serially on the calling thread, skipping
    /// spawn overhead that would dominate tiny shapes (the small-shape
    /// regression recorded in `BENCH_par.json`). Because the serial path is
    /// bit-identical to the parallel one, the floor never changes results —
    /// only where they are computed. Zero disables the floor.
    #[must_use]
    pub fn with_min_elems(mut self, min_elems: usize) -> Self {
        self.min_elems = min_elems;
        self
    }

    /// The work-size floor installed by [`with_min_elems`](Self::with_min_elems).
    pub fn min_elems(&self) -> usize {
        self.min_elems
    }

    /// Splits `out` into one contiguous chunk of whole rows per worker and
    /// runs `f(first_row_index, chunk)` on each chunk in parallel.
    ///
    /// Rows are `row_len` elements long and are distributed as evenly as
    /// possible (the first `rows % workers` chunks get one extra row), in
    /// order, so chunk boundaries — and therefore per-element evaluation
    /// order — never depend on the worker count. With one worker (or fewer
    /// than two rows) `f` runs once, inline, on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero or does not divide `out.len()`, or if
    /// any worker panics.
    pub fn run_rows<T, F>(&self, out: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "row_len must be positive");
        assert_eq!(
            out.len() % row_len,
            0,
            "buffer length {} is not a whole number of rows of {row_len}",
            out.len()
        );
        let rows = out.len() / row_len;
        let workers = if out.len() < self.min_elems {
            1 // below the work-size floor: spawn cost would dominate
        } else {
            self.threads.min(rows).max(1)
        };
        // Per-worker busy-time attribution (a no-op branch unless a
        // recording sink is installed process-wide).
        let obs = appmult_obs::global();
        if workers == 1 {
            if rows > 0 {
                let _span = obs.span("pool.worker");
                f(0, out);
            }
            return;
        }
        let base = rows / workers;
        let extra = rows % workers;
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut first_row = 0usize;
            for w in 0..workers {
                let chunk_rows = base + usize::from(w < extra);
                let (chunk, tail) = rest.split_at_mut(chunk_rows * row_len);
                rest = tail;
                let start = first_row;
                first_row += chunk_rows;
                let f = &f;
                let obs = &obs;
                if w + 1 == workers {
                    // Run the final chunk on the calling thread; the scope
                    // still joins the spawned workers before returning.
                    let _span = obs.span("pool.worker");
                    f(start, chunk);
                } else {
                    scope.spawn(move || {
                        let _span = obs.span("pool.worker");
                        f(start, chunk);
                    });
                }
            }
        });
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::global()
    }
}

/// Installs a process-wide worker-count override that takes precedence over
/// `APPMULT_THREADS` (pass 0 to remove it). Intended for benchmark harnesses
/// that flip between serial and parallel runs of code using [`Pool::global`];
/// tests that need a specific count should construct [`Pool::new`] instead.
pub fn set_global_threads(threads: usize) {
    GLOBAL_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Resolves a worker count from an `APPMULT_THREADS`-style value: a positive
/// integer is taken as-is; anything else (unset, empty, `0`, garbage) falls
/// back to [`std::thread::available_parallelism`]. Unset and empty values
/// are silent (CI matrices legitimately export `APPMULT_THREADS=""`), but a
/// present-and-malformed value additionally emits a one-time
/// `env.parse_error` event on the global [`appmult_obs`] sink so the typo is
/// visible instead of silently ignored.
fn threads_from_env(value: Option<&str>) -> usize {
    let fallback = || std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    match value {
        None => fallback(),
        Some(v) if v.trim().is_empty() => fallback(),
        Some(v) => match parse_threads(v) {
            Ok(n) => n,
            Err(e) => {
                warn_env_once(v, &e);
                fallback()
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every row is written exactly once, with the right first-row offset.
    #[test]
    fn run_rows_covers_every_row_exactly_once() {
        for threads in [1, 2, 3, 4, 7, 16] {
            for rows in [0usize, 1, 2, 3, 5, 16, 31] {
                let row_len = 3;
                let mut out = vec![usize::MAX; rows * row_len];
                Pool::new(threads).run_rows(&mut out, row_len, |first, chunk| {
                    for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                        for v in row.iter_mut() {
                            assert_eq!(*v, usize::MAX, "row written twice");
                            *v = first + r;
                        }
                    }
                });
                let expect: Vec<usize> = (0..rows)
                    .flat_map(|r| std::iter::repeat_n(r, row_len))
                    .collect();
                assert_eq!(out, expect, "threads={threads} rows={rows}");
            }
        }
    }

    /// The partition is independent of the worker count, so a parallel fill
    /// is bit-identical to the serial one.
    #[test]
    fn parallel_fill_matches_serial() {
        let fill = |pool: Pool| {
            let mut out = vec![0.0f32; 13 * 7];
            pool.run_rows(&mut out, 7, |first, chunk| {
                for (r, row) in chunk.chunks_mut(7).enumerate() {
                    let mut acc = (first + r) as f32 * 0.1;
                    for (c, v) in row.iter_mut().enumerate() {
                        acc += (c as f32 + 0.3).sin();
                        *v = acc;
                    }
                }
            });
            out
        };
        let serial = fill(Pool::serial());
        for threads in [2, 3, 5, 8] {
            assert_eq!(fill(Pool::new(threads)), serial, "threads={threads}");
        }
    }

    /// More workers than rows clamps; one worker never spawns (observable as
    /// `f` running on the calling thread).
    #[test]
    fn serial_pool_runs_inline() {
        let caller = std::thread::current().id();
        let mut out = vec![0u8; 4];
        Pool::serial().run_rows(&mut out, 1, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    /// Workers actually run concurrently when asked to (the spawned chunks
    /// exist as distinct invocations).
    #[test]
    fn chunk_count_matches_worker_clamp() {
        let calls = AtomicUsize::new(0);
        let mut out = vec![0u8; 10];
        Pool::new(4).run_rows(&mut out, 1, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        // Clamp: 3 rows can use at most 3 workers.
        calls.store(0, Ordering::Relaxed);
        let mut small = vec![0u8; 3];
        Pool::new(16).run_rows(&mut small, 1, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn env_parsing_falls_back_on_garbage() {
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 8 ")), 8);
        let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        assert_eq!(threads_from_env(None), fallback);
        assert_eq!(threads_from_env(Some("")), fallback);
        assert_eq!(threads_from_env(Some("0")), fallback);
        assert_eq!(threads_from_env(Some("lots")), fallback);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_buffer_is_rejected() {
        let mut out = vec![0u8; 7];
        Pool::new(2).run_rows(&mut out, 3, |_, _| {});
    }

    /// With a recording sink installed, every chunk shows up as a
    /// `pool.worker` span and spawned workers appear in the per-thread
    /// busy map.
    #[test]
    fn worker_busy_time_is_attributed_when_recording() {
        let obs = appmult_obs::ObsSink::recording();
        appmult_obs::set_global(&obs);
        let mut out = vec![0u64; 4 * 8];
        Pool::new(4).run_rows(&mut out, 8, |first, chunk| {
            for (r, row) in chunk.chunks_mut(8).enumerate() {
                for v in row.iter_mut() {
                    *v = (first + r) as u64;
                }
            }
        });
        appmult_obs::set_global(&appmult_obs::ObsSink::null());
        let hist = obs
            .histogram("span.pool.worker")
            .expect("worker spans recorded");
        // >= rather than ==: sibling tests running concurrently may also
        // hit the global sink while it is installed.
        assert!(hist.count >= 4, "count {}", hist.count);
        assert!(obs.to_json().contains("\"busy_us\":"));
    }

    #[test]
    fn global_override_wins() {
        set_global_threads(5);
        assert_eq!(Pool::global().threads(), 5);
        set_global_threads(0);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn parse_threads_is_strict() {
        assert_eq!(parse_threads("3"), Ok(3));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("0"), Err(ThreadsParseError::Zero));
        assert_eq!(
            parse_threads("lots"),
            Err(ThreadsParseError::NotANumber("lots".to_string()))
        );
        assert_eq!(
            parse_threads(""),
            Err(ThreadsParseError::NotANumber(String::new()))
        );
        assert_eq!(
            parse_threads("-2"),
            Err(ThreadsParseError::NotANumber("-2".to_string()))
        );
        let msg = ThreadsParseError::NotANumber("lots".into()).to_string();
        assert!(msg.contains(THREADS_ENV) && msg.contains("lots"), "{msg}");
    }

    /// Digit runs at and just past `usize::MAX`, and a zero-padded run.
    fn long_digit_runs() -> [String; 4] {
        [
            usize::MAX.to_string(),
            format!("{}0", usize::MAX),
            (usize::MAX as u128 + 1).to_string(),
            "0".repeat(40) + "5",
        ]
    }

    /// The reference reading of an `APPMULT_THREADS` value: after trimming,
    /// an optional `+` then ASCII digits whose value is positive and fits
    /// in `usize` (computed with checked arithmetic, not `str::parse`).
    fn expected_threads(value: &str) -> Option<usize> {
        let t = value.trim();
        let digits = t.strip_prefix('+').unwrap_or(t);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let n = digits.bytes().try_fold(0usize, |n, b| {
            n.checked_mul(10)?.checked_add(usize::from(b - b'0'))
        })?;
        (n > 0).then_some(n)
    }

    /// Fuzz of the env decoder: it never panics, always yields at least one
    /// worker, and returns `n` exactly when the trimmed value is a positive
    /// decimal that fits in `usize` — every other value, from the empty
    /// string to NUL bytes and overflowing digit runs, gets the fallback.
    #[test]
    fn threads_env_decoder_accepts_exactly_positive_decimals() {
        // Digits, signs, ASCII and Unicode whitespace, NUL, a BOM,
        // non-ASCII digits, and the long runs.
        let fragments: Vec<String> = [
            "0", "1", "7", "9", "+", "-", "+0", " ", "\t", "\n", "\u{a0}", "\u{2003}", "\u{3000}",
            "\u{85}", "\u{feff}", "\0", "x", ".", "_", "e3", "\u{663}", "\u{ff11}",
        ]
        .map(String::from)
        .into_iter()
        .chain(long_digit_runs())
        .collect();
        let corners: Vec<String> = [
            "",
            "\0",
            "0",
            "+0",
            "-0",
            "+1",
            "-1",
            "++1",
            "00",
            "007",
            " \t8\n",
            "\u{3000}4\u{3000}",
            "1\u{0}2",
            "1 2",
            "\u{663}",
        ]
        .map(String::from)
        .into_iter()
        .chain(long_digit_runs())
        .chain([format!("+{}", usize::MAX)])
        .collect();
        let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        appmult_rng::prop::forall_with(
            "APPMULT_THREADS decodes exactly the positive decimals",
            0x7EAD5,
            400,
            |rng, case| {
                corners.get(case).cloned().unwrap_or_else(|| {
                    (0..rng.below(7))
                        .map(|_| fragments[rng.index(fragments.len())].as_str())
                        .collect()
                })
            },
            |v: &String| {
                // Drop one character at a time.
                v.char_indices()
                    .map(|(i, ch)| format!("{}{}", &v[..i], &v[i + ch.len_utf8()..]))
                    .collect()
            },
            |v: &String| {
                let got = std::panic::catch_unwind(|| threads_from_env(Some(v)));
                matches!(got, Ok(n) if n >= 1 && n == expected_threads(v).unwrap_or(fallback))
            },
        );
    }

    /// A malformed (present, non-empty) env value warns exactly once per
    /// offending value on the global obs sink; empty values are silent.
    #[test]
    fn env_parse_failure_warns_once() {
        let obs = appmult_obs::ObsSink::recording();
        appmult_obs::set_global(&obs);
        // A value no other test uses, so the per-value dedup is ours alone.
        let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        assert_eq!(threads_from_env(Some("warn-once-probe")), fallback);
        assert_eq!(threads_from_env(Some("warn-once-probe")), fallback);
        assert_eq!(threads_from_env(Some("   ")), fallback); // silent
        appmult_obs::set_global(&appmult_obs::ObsSink::null());
        let hits = obs
            .events()
            .iter()
            .filter(|e| e.kind == "env.parse_error" && e.to_json_line().contains("warn-once-probe"))
            .count();
        assert_eq!(hits, 1, "expected exactly one warning event");
    }

    /// Below the work-size floor the pool never spawns: the closure runs
    /// once, inline, on the calling thread. At or above the floor the
    /// normal partition applies — and the outputs are identical either way.
    #[test]
    fn work_size_floor_forces_serial_below_threshold() {
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let mut out = vec![0u8; 64];
        Pool::new(8)
            .with_min_elems(65)
            .run_rows(&mut out, 4, |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(std::thread::current().id(), caller);
            });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "floor must run inline");

        calls.store(0, Ordering::Relaxed);
        Pool::new(8)
            .with_min_elems(64)
            .run_rows(&mut out, 4, |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
        assert_eq!(calls.load(Ordering::Relaxed), 8, "at the floor, parallel");

        // Identical results with and without the floor.
        let fill = |pool: Pool| {
            let mut buf = vec![0u32; 60];
            pool.run_rows(&mut buf, 5, |first, chunk| {
                for (r, row) in chunk.chunks_mut(5).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((first + r) * 100 + c) as u32;
                    }
                }
            });
            buf
        };
        assert_eq!(fill(Pool::new(4).with_min_elems(1000)), fill(Pool::new(4)));
    }
}
