//! The pool's block rule, through its public API: every row is written
//! once with its own first-row offset, the number of blocks follows the
//! work-size floor, and a stalled block does not hold up the rows after
//! it.
//!
//! Every test here holds `ONE_DISPATCH`: a dispatch that finds the shared
//! workers owned by another runs all of its blocks inline, which would
//! defeat the stalled-block test.

use appmult_pool::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static ONE_DISPATCH: Mutex<()> = Mutex::new(());

fn one_dispatch() -> MutexGuard<'static, ()> {
    ONE_DISPATCH.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Most blocks a dispatch makes per worker.
const BLOCKS_PER_WORKER: usize = 8;

/// The blocks one `run_rows` call made, as `(first_row, rows)` in call
/// order, after checking that every row was written exactly once with its
/// own index.
fn blocks_of(pool: Pool, rows: usize, row_len: usize) -> Vec<(usize, usize)> {
    let blocks = Mutex::new(Vec::new());
    let mut out = vec![usize::MAX; rows * row_len];
    pool.run_rows(&mut out, row_len, |first, block| {
        assert_eq!(block.len() % row_len, 0, "block of partial rows");
        for (r, row) in block.chunks_mut(row_len).enumerate() {
            for v in row.iter_mut() {
                assert_eq!(*v, usize::MAX, "row written twice");
                *v = first + r;
            }
        }
        blocks.lock().unwrap().push((first, block.len() / row_len));
    });
    let expect: Vec<usize> = (0..rows)
        .flat_map(|r| std::iter::repeat_n(r, row_len))
        .collect();
    assert_eq!(out, expect, "rows not covered exactly once");
    blocks.into_inner().unwrap()
}

#[test]
fn blocks_cover_every_row_once_and_follow_the_floor() {
    let _one = one_dispatch();
    let row_len = 3;
    for threads in [1, 2, 3, 4, 7, 16] {
        for rows in [0usize, 1, 2, 3, 5, 16, 31, 257] {
            let len = rows * row_len;
            for min_elems in [0, 1, 5 * row_len, len, len + 1] {
                let pool = Pool::new(threads).with_min_elems(min_elems);
                let blocks = blocks_of(pool, rows, row_len);
                let calls = blocks.len();
                let case = format!("threads={threads} rows={rows} min_elems={min_elems}");
                let workers = threads.min(rows);
                if len < min_elems {
                    assert_eq!(calls, rows.min(1), "below the floor: {case}");
                } else if min_elems == 0 {
                    assert_eq!(calls, workers, "no floor: {case}");
                } else {
                    assert!(
                        (workers..=BLOCKS_PER_WORKER * threads).contains(&calls),
                        "{calls} blocks: {case}"
                    );
                    let min_rows = min_elems.div_ceil(row_len);
                    if rows / min_rows >= threads {
                        let least = blocks.iter().map(|&(_, r)| r).min().unwrap_or(0);
                        assert!(least >= min_rows, "a block of {least} rows: {case}");
                    }
                }
            }
        }
    }
}

/// A pool with a floor above one row splits a long buffer into more
/// blocks than workers, each at least the floor.
#[test]
fn a_floor_makes_floor_sized_blocks() {
    let _one = one_dispatch();
    let mut blocks = blocks_of(Pool::new(2).with_min_elems(40), 100, 4);
    blocks.sort_unstable();
    assert_eq!(blocks.len(), 10, "{blocks:?}");
    assert!(blocks.iter().all(|&(_, rows)| rows == 10), "{blocks:?}");
    // Capped at eight blocks per worker.
    assert_eq!(blocks_of(Pool::new(2).with_min_elems(1), 100, 4).len(), 16);
}

/// The block holding row 0 stalls until every other row is written: the
/// other thread must take those rows' blocks while it waits.
#[test]
fn a_stalled_block_does_not_hold_up_the_rest() {
    let _one = one_dispatch();
    const ROWS: usize = 16;
    let written = AtomicUsize::new(0);
    let timed_out = AtomicUsize::new(0);
    let mut out = vec![0u8; ROWS];
    Pool::new(2)
        .with_min_elems(1)
        .run_rows(&mut out, 1, |first, block| {
            if first == 0 {
                let start = Instant::now();
                while written.load(Ordering::SeqCst) < ROWS - 1 {
                    if start.elapsed() > Duration::from_secs(5) {
                        timed_out.fetch_add(1, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
                block[0] = 1;
                written.fetch_add(1, Ordering::SeqCst);
                return;
            }
            block.fill(1);
            written.fetch_add(block.len(), Ordering::SeqCst);
        });
    assert_eq!(
        timed_out.load(Ordering::SeqCst),
        0,
        "rows 1..{ROWS} waited behind row 0"
    );
    assert_eq!(out, [1; ROWS]);
}
