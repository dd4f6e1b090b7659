//! Zero-dependency data parallelism for the workspace's hot loops.
//!
//! The LUT-GEMM kernels, gradient-table builds, and exhaustive circuit
//! simulations all share one shape: a large output buffer whose rows can be
//! computed independently from shared read-only inputs. [`Pool::run_rows`]
//! partitions such a buffer into contiguous, *disjoint* `&mut` blocks of
//! whole rows and runs them in parallel: the caller and each helper thread
//! take the next unclaimed block from a shared counter until none is left,
//! so a slow or late thread simply takes fewer blocks. Because every
//! output element is written by exactly one thread and each block iterates
//! its rows in the same order as the serial loop, results are
//! bit-identical to a serial run for any thread count and block split; no
//! locks on the output, no floating-point reassociation.
//!
//! **Block rule.** A pool with a work-size floor
//! ([`Pool::with_min_elems`]) runs buffers below the floor serially and
//! splits larger ones into blocks of at least the floor each, at least one
//! and at most eight per worker. A pool with no floor cannot size its
//! blocks and keeps one block per worker.
//!
//! The worker threads are persistent: one process-wide set of named threads
//! (`appmult-pool-<i>`), spawned lazily up to the largest worker count any
//! [`Pool`] asks for, parked on a condvar between dispatches. Each
//! [`Pool::run_rows`] call still behaves like a scoped fork-join: it
//! borrows its inputs, returns only after every block it handed out has
//! finished, and re-raises a panic on the caller with its original payload.
//! Once the caller finds no block left it retracts the job, so it waits
//! only for the helpers that already joined, never for one that has not
//! woken yet. A dispatch that finds the workers owned by another dispatch
//! (a concurrent caller, or a `run_rows` nested inside a block) runs all
//! of its blocks inline on its own thread, in order, instead of waiting.
//!
//! Thread count resolution for [`Pool::global`], in order:
//!
//! 1. [`set_global_threads`] override (used by benchmarks),
//! 2. the `APPMULT_THREADS` environment variable (a positive integer;
//!    `1` forces fully serial execution), read once per process,
//! 3. [`std::thread::available_parallelism`], likewise resolved once.
//!
//! On a 1-core host — or with `APPMULT_THREADS=1` — every entry point
//! degrades to a plain serial loop on the calling thread with no workers.
//!
//! # Example
//!
//! ```
//! use appmult_pool::Pool;
//!
//! // 4 rows of 3 columns; each block fills its own rows.
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

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
    let mut warned = WARNED_VALUES.lock().unwrap_or_else(PoisonError::into_inner);
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

/// A fixed worker count for fork-join data-parallel loops.
///
/// `Pool` is a tiny value type (it owns no threads; every `Pool` shares the
/// process-wide workers); copy it freely. Use
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
    /// [`std::thread::available_parallelism`]. The last two are resolved
    /// once per process; the override is read on every call.
    pub fn global() -> Self {
        static RESOLVED: OnceLock<usize> = OnceLock::new();
        let o = GLOBAL_OVERRIDE.load(Ordering::Relaxed);
        if o > 0 {
            return Self::new(o);
        }
        Self::new(
            *RESOLVED.get_or_init(|| threads_from_env(std::env::var(THREADS_ENV).ok().as_deref())),
        )
    }

    /// Worker count of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns a copy of this pool with a work-size floor: any
    /// [`run_rows`](Self::run_rows) call whose output buffer has fewer than
    /// `min_elems` elements runs serially on the calling thread, skipping
    /// dispatch overhead that would dominate tiny shapes (the small-shape
    /// regression recorded in `BENCH_par.json`). Above the floor it is also
    /// the least work per block: a dispatch splits into blocks of at least
    /// `min_elems` elements (rounded up to whole rows), unless that leaves
    /// fewer blocks than workers. Because every split is bit-identical to
    /// the serial loop, the floor never changes results — only where they
    /// are computed. Zero disables the floor.
    #[must_use]
    pub fn with_min_elems(mut self, min_elems: usize) -> Self {
        self.min_elems = min_elems;
        self
    }

    /// The work-size floor installed by [`with_min_elems`](Self::with_min_elems).
    pub fn min_elems(&self) -> usize {
        self.min_elems
    }

    /// How many blocks a buffer of `rows` rows of `row_len` elements splits
    /// into: one below the floor or with one worker, one per worker with no
    /// floor, else as many blocks of at least the floor (in whole rows) as
    /// fit, clamped to `[workers, BLOCKS_PER_WORKER * workers]`; never more
    /// than `rows`.
    fn blocks(&self, rows: usize, row_len: usize) -> usize {
        let workers = self.threads;
        let wanted = if rows * row_len < self.min_elems || workers == 1 {
            1
        } else if self.min_elems == 0 {
            workers
        } else {
            let min_rows = self.min_elems.div_ceil(row_len);
            (rows / min_rows).clamp(workers, BLOCKS_PER_WORKER * workers)
        };
        wanted.min(rows)
    }

    /// Splits `out` into contiguous blocks of whole rows and runs
    /// `f(first_row_index, block)` on each block, in parallel.
    ///
    /// Rows are `row_len` elements long; the block count follows the block
    /// rule (crate docs), with rows spread as evenly as possible (the first
    /// `rows % blocks` blocks get one extra row). The calling thread and up
    /// to `threads - 1` helpers take the next unclaimed block until none is
    /// left, each under one `pool.worker` span; the caller then retracts
    /// the job and waits only for helpers that joined. Block boundaries
    /// move with the worker count and the floor, but every element is
    /// written once, in serial row order. With one block (one worker, one
    /// row, or a buffer below the floor) `f` runs once, inline, on the
    /// calling thread; with zero rows it never runs. If the shared workers
    /// are busy with another dispatch, every block runs inline on the
    /// calling thread, in order.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero or does not divide `out.len()`, or if
    /// a block panics, with that block's own payload. It never returns or
    /// unwinds while a helper still runs one of its blocks.
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
        let blocks = self.blocks(rows, row_len);
        // Per-worker busy-time attribution (a no-op branch unless a
        // recording sink is installed process-wide).
        let obs = appmult_obs::global();
        if blocks <= 1 {
            if rows > 0 {
                let _span = obs.span("pool.worker");
                f(0, out);
            }
            return;
        }
        let (base, extra) = (rows / blocks, rows % blocks);
        let mut slots = Vec::with_capacity(blocks);
        let mut rest = out;
        let mut first_row = 0usize;
        for b in 0..blocks {
            let block_rows = base + usize::from(b < extra);
            let (block, tail) = rest.split_at_mut(block_rows * row_len);
            rest = tail;
            slots.push(Mutex::new(Some((first_row, block))));
            first_row += block_rows;
        }
        // Each fetch hands out one block index, so each slot is taken
        // exactly once, by whichever thread drew its index.
        let next = AtomicUsize::new(0);
        let claim_loop = || {
            let _span = obs.span("pool.worker");
            while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                let taken = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some((start, block)) = taken {
                    f(start, block);
                }
            }
        };
        match Dispatch::claim() {
            Some(dispatch) => dispatch.run(self.threads.min(blocks) - 1, &claim_loop),
            None => claim_loop(),
        }
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

/// Spin iterations the dispatching thread makes while waiting for its
/// helpers before it starts yielding its time slice instead.
const SPIN_LIMIT: u32 = 4096;

/// Most blocks a dispatch above the floor makes per worker: enough for a
/// fast thread to take over a slow or late one's share, few enough that
/// each block stays large.
const BLOCKS_PER_WORKER: usize = 8;

/// A dispatch's claim loop as the workers hold it. Only `Dispatch::run`
/// makes one, valid for the span of that call.
type Job = &'static (dyn Fn() + Sync);

/// What the owning dispatch publishes to the workers.
struct Board {
    /// Bumped once per dispatch; each worker acts on a value at most once.
    generation: u64,
    /// Workers `0..active` may join the current dispatch.
    active: usize,
    /// The current dispatch's job while it still hands out blocks; `None`
    /// once the caller has retracted it, and between dispatches.
    job: Option<Job>,
    /// Workers spawned so far (`appmult-pool-0 .. spawned - 1`).
    spawned: usize,
    /// The first panic payload a worker caught during the current dispatch.
    panic: Option<Box<dyn Any + Send>>,
}

/// The process-wide worker threads and their rendezvous.
struct Workers {
    board: Mutex<Board>,
    /// Signalled when a new generation is published; idle workers park here.
    wake: Condvar,
    /// Helpers that took the current job and have not finished it yet.
    /// Raised only under the board lock while `Board::job` is `Some`, so
    /// it is zero between dispatches.
    pending: AtomicUsize,
    /// Set while one dispatch owns the workers.
    owned: AtomicBool,
}

impl Workers {
    fn lock_board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

static WORKERS: Workers = Workers {
    board: Mutex::new(Board {
        generation: 0,
        active: 0,
        job: None,
        spawned: 0,
        panic: None,
    }),
    wake: Condvar::new(),
    pending: AtomicUsize::new(0),
    owned: AtomicBool::new(false),
};

/// Exclusive use of [`WORKERS`] by one `run_rows` call; released on drop.
struct Dispatch;

impl Dispatch {
    /// Takes the workers, or `None` while another dispatch holds them.
    fn claim() -> Option<Self> {
        // Build the guard only on success: dropping one releases the claim.
        let won = WORKERS
            .owned
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
        won.ok().map(|_| Self)
    }

    /// Offers `job` to workers `0..helpers` and runs it on the calling
    /// thread, then retracts it. Returns, or re-raises the caller's panic,
    /// else a worker's, only after every helper that took the job has
    /// finished it.
    #[allow(unsafe_code)]
    fn run(self, helpers: usize, job: &(dyn Fn() + Sync)) {
        // SAFETY: the workers need the borrowed job as `'static`. A worker
        // takes it only under the board lock while `Board::job` is `Some`,
        // raising `pending` under that same lock, and lowers `pending` only
        // after its last call of the job. Below, the caller clears
        // `Board::job` under the lock, so no worker can take the job after
        // that, and then waits for `pending` to reach zero, so every worker
        // that did take it is done with it. Spawning, the one step that can
        // panic, comes before publishing; from publishing to the end of the
        // wait nothing can unwind: the caller's own claim loop runs under
        // `catch_unwind`, worker panics are caught on the worker, and the
        // locks recover from poisoning. So this function neither returns
        // nor unwinds while any use of the job is possible.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        {
            let mut board = WORKERS.lock_board();
            while board.spawned < helpers {
                spawn_worker(board.spawned, board.generation);
                board.spawned += 1;
            }
            board.job = Some(erased);
            board.active = helpers;
            board.generation += 1;
        }
        WORKERS.wake.notify_all();
        let mine = panic::catch_unwind(AssertUnwindSafe(job));
        // No block is left: a helper that has not joined yet finds no job.
        WORKERS.lock_board().job = None;
        // Spin rather than park: a helper that joined finishes within
        // microseconds of the caller's last block, and a parked caller pays
        // a wake-up. The Acquire load pairs with each helper's Release
        // decrement, so their block writes are visible once it reads zero.
        let mut spins = 0u32;
        while WORKERS.pending.load(Ordering::Acquire) != 0 {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let theirs = WORKERS.lock_board().panic.take();
        drop(self);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Dispatch {
    fn drop(&mut self) {
        WORKERS.owned.store(false, Ordering::Release);
    }
}

/// Starts worker `index`; it first acts on the generation after `seen`.
fn spawn_worker(index: usize, seen: u64) {
    std::thread::Builder::new()
        .name(format!("appmult-pool-{index}"))
        .spawn(move || worker_loop(index, seen))
        .expect("failed to spawn an appmult-pool worker");
}

/// Parks until a generation includes this worker, joins its job if the
/// caller has not retracted it yet, reports done, and parks again — for
/// the life of the process.
fn worker_loop(index: usize, mut seen: u64) {
    loop {
        let job = {
            let mut board = WORKERS.lock_board();
            loop {
                if board.generation != seen {
                    seen = board.generation;
                    if let Some(job) = board.job.filter(|_| index < board.active) {
                        WORKERS.pending.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                }
                board = WORKERS
                    .wake
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
            WORKERS.lock_board().panic.get_or_insert(payload);
        }
        WORKERS.pending.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Held by each test that installs a process-wide obs sink, so one
    /// test's sink never swallows another's spans or events.
    static GLOBAL_SINK: Mutex<()> = Mutex::new(());

    fn global_sink() -> MutexGuard<'static, ()> {
        GLOBAL_SINK.lock().unwrap_or_else(PoisonError::into_inner)
    }

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

    /// One worker never leaves the calling thread (observable as `f`
    /// running there).
    #[test]
    fn serial_pool_runs_inline() {
        let caller = std::thread::current().id();
        let mut out = vec![0u8; 4];
        Pool::serial().run_rows(&mut out, 1, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    /// Each chunk is a distinct invocation, and more workers than rows
    /// clamps to one chunk per row.
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

    /// With a recording sink installed, every participating thread shows
    /// up as a `pool.worker` span and the workers appear in the per-thread
    /// busy map. Each block waits until all four have started, so each of
    /// the four threads runs one (a trivial block would let the caller run
    /// them all before a helper wakes). While a sibling test's dispatch
    /// owns the workers this one runs inline on the caller instead; such
    /// an attempt is retried on a fresh sink.
    #[test]
    fn worker_busy_time_is_attributed_when_recording() {
        let _sink = global_sink();
        for _ in 0..20 {
            let obs = appmult_obs::ObsSink::recording();
            appmult_obs::set_global(&obs);
            let started = AtomicUsize::new(0);
            let threads = Mutex::new(std::collections::HashSet::new());
            let mut out = vec![0u64; 4 * 8];
            Pool::new(4).run_rows(&mut out, 8, |first, chunk| {
                started.fetch_add(1, Ordering::SeqCst);
                wait_until(std::time::Duration::from_millis(200), || {
                    started.load(Ordering::SeqCst) == 4
                });
                threads.lock().unwrap().insert(std::thread::current().id());
                for (r, row) in chunk.chunks_mut(8).enumerate() {
                    for v in row.iter_mut() {
                        *v = (first + r) as u64;
                    }
                }
            });
            appmult_obs::set_global(&appmult_obs::ObsSink::null());
            if threads.into_inner().unwrap().len() < 4 {
                continue;
            }
            let hist = obs
                .histogram("span.pool.worker")
                .expect("worker spans recorded");
            // >= rather than ==: sibling tests dispatching concurrently may
            // also record spans while the sink is installed.
            assert!(hist.count >= 4, "count {}", hist.count);
            assert!(obs.to_json().contains("\"busy_us\":"));
            return;
        }
        panic!("the four blocks never ran on four threads");
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
        let _sink = global_sink();
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

    /// Below the work-size floor the pool never dispatches: the closure runs
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

    /// A payload type no other code panics with, so the tests can tell
    /// their own panics apart from any other.
    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    /// Spins until `done()` holds or `limit` has passed.
    fn wait_until(limit: std::time::Duration, done: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !done() && start.elapsed() < limit {
            std::thread::yield_now();
        }
    }

    /// Dispatches 4 rows on `pool` and returns the payload the caller sees.
    /// The chunk holding `row` panics with `Boom(row)` once the other
    /// chunks have started; those finish a few milliseconds after the
    /// panic. (Chunks that run one after another on the caller only wait
    /// out the limits.) Checks that `run_rows` did not unwind while a
    /// chunk was still running.
    fn panic_payload(pool: Pool, row: usize) -> Boom {
        use std::time::Duration;
        let entered = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let panicking = std::sync::atomic::AtomicBool::new(false);
        let mut out = vec![0u8; 4];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_rows(&mut out, 1, |first, cell| {
                if first == row {
                    wait_until(Duration::from_millis(100), || {
                        entered.load(Ordering::SeqCst) == 3
                    });
                    panicking.store(true, Ordering::SeqCst);
                    std::panic::panic_any(Boom(row));
                }
                entered.fetch_add(1, Ordering::SeqCst);
                wait_until(Duration::from_millis(50), || {
                    panicking.load(Ordering::SeqCst)
                });
                std::thread::sleep(Duration::from_millis(5));
                cell[0] = 1;
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }))
        .expect_err("the chunk panicked");
        assert_eq!(
            entered.load(Ordering::SeqCst),
            finished.load(Ordering::SeqCst),
            "run_rows unwound while a chunk was running"
        );
        *err.downcast::<Boom>().expect("the chunk's own payload")
    }

    /// A panic in a worker chunk (row 0) and one in the caller's chunk
    /// (row 3) each reach the caller with their own payload, and the pool
    /// still covers every row afterwards.
    #[test]
    fn chunk_panics_reach_the_caller_and_the_pool_survives() {
        let pool = Pool::new(4);
        assert_eq!(panic_payload(pool, 0), Boom(0));
        assert_eq!(panic_payload(pool, 3), Boom(3));
        let mut out = vec![0usize; 8];
        pool.run_rows(&mut out, 2, |first, chunk| {
            for (r, row) in chunk.chunks_mut(2).enumerate() {
                row.fill(first + r + 1);
            }
        });
        assert_eq!(out, [1, 1, 2, 2, 3, 3, 4, 4]);
    }

    /// A `run_rows` nested inside a chunk completes, with all of its chunks
    /// on the thread that runs the outer chunk.
    #[test]
    fn nested_dispatch_runs_inline() {
        let mut out = vec![0usize; 3];
        Pool::new(3).run_rows(&mut out, 1, |first, cell| {
            let outer = std::thread::current().id();
            let mut inner = vec![0usize; 6];
            Pool::new(3).run_rows(&mut inner, 2, |i, chunk| {
                assert_eq!(std::thread::current().id(), outer, "nested chunk moved");
                chunk.fill(i);
            });
            cell[0] = first + inner.iter().sum::<usize>();
        });
        assert_eq!(out, [6, 7, 8]);
    }

    /// Eight threads dispatching at once on the shared workers each get
    /// results bit-identical to a serial run.
    #[test]
    fn concurrent_dispatches_match_serial() {
        let fill = |pool: Pool, seed: usize| {
            let mut out = vec![0.0f32; 29 * 5];
            pool.run_rows(&mut out, 5, |first, chunk| {
                for (r, row) in chunk.chunks_mut(5).enumerate() {
                    let mut acc = (seed * 31 + first + r) as f32 * 0.37;
                    for v in row.iter_mut() {
                        acc = (acc * 1.7 + 0.1).sin();
                        *v = acc;
                    }
                }
            });
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        std::thread::scope(|scope| {
            for t in 0..8 {
                std::thread::Builder::new()
                    .name(format!("dispatcher-{t}"))
                    .spawn_scoped(scope, move || {
                        for seed in 0..25 {
                            let pool = Pool::new(2 + (t + seed) % 4);
                            assert_eq!(fill(pool, seed), fill(Pool::serial(), seed));
                        }
                    })
                    .expect("spawn dispatcher");
            }
        });
    }

    /// Workers are reused: 100 dispatches on four workers run their chunks
    /// on at most three threads besides the caller.
    #[test]
    fn workers_are_reused_across_dispatches() {
        let caller = std::thread::current().id();
        let helpers = Mutex::new(std::collections::HashSet::new());
        let mut out = vec![0u8; 8];
        for _ in 0..100 {
            Pool::new(4).run_rows(&mut out, 1, |_, _| {
                let id = std::thread::current().id();
                if id != caller {
                    helpers.lock().unwrap().insert(id);
                }
            });
        }
        let n = helpers.lock().unwrap().len();
        assert!(n <= 3, "{n} distinct worker threads");
    }
}
