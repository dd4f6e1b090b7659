//! A fixed reference pass, timed right after every workload sample so
//! that each timed figure can be scaled to one nominal host speed.
//!
//! The host is shared with other virtual machines. Each of its vCPUs
//! slows down by up to about 2x while a neighbour is busy on the same
//! physical core, and which vCPU is slow, and how slow, changes within
//! seconds. The reference is a conv-like LUT-GEMM (16-bit operand codes,
//! gathers from a 64 KiB product table, integer accumulation, float
//! dequantization) whose row chunks the default number of threads take
//! from a shared counter until none is left, so a pass runs at the
//! combined speed of the vCPUs at that moment. It calls no library crate,
//! so no change to the program can move it. Dividing a sample by the
//! reference pass timed right after it cancels the host's speed and
//! leaves the program's.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

/// Operand bits: 7-bit codes index a 128 x 128 table of `u32` (64 KiB).
const BITS: u32 = 7;
/// Reference GEMM shape: `ROWS x COLS` outputs over a reduction of `K`.
const ROWS: usize = 1024;
const COLS: usize = 16;
const K: usize = 72;
/// Rows per chunk taken from the shared counter.
const CHUNK_ROWS: usize = 16;
/// Scaled figures read as if the reference pass took exactly this many
/// milliseconds. A pass takes 1.1-2.4 ms on the 2-vCPU host the benchmark
/// was written on; on any host, scaled figures compare a parent with a
/// change.
pub const NOMINAL_MS: f64 = 1.0;

pub struct Reference {
    threads: usize,
    table: Vec<u32>,
    x: Vec<u16>,
    w: Vec<u16>,
    out: Vec<f32>,
    checksum: u32,
}

impl Reference {
    /// Builds the fixed operands (the same on every run, whatever the
    /// workload seed) and runs one untimed warm-up pass.
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 1usize << (2 * BITS);
        let mask = (1u64 << BITS) - 1;
        let mut reference = Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            table: (0..n).map(|_| (next() >> 40) as u32).collect(),
            x: (0..ROWS * K).map(|_| (next() & mask) as u16).collect(),
            w: (0..COLS * K).map(|_| (next() & mask) as u16).collect(),
            out: vec![0.0; ROWS * COLS],
            checksum: 0,
        };
        reference.checksum = reference.pass();
        reference
    }

    fn rows(table: &[u32], w: &[u16], x: &[u16], out: &mut [f32]) {
        for (xr, out_row) in x.chunks(K).zip(out.chunks_mut(COLS)) {
            for (wr, o) in w.chunks(K).zip(out_row.iter_mut()) {
                let acc: u64 = wr
                    .iter()
                    .zip(xr)
                    .map(|(&a, &b)| u64::from(table[(usize::from(a) << BITS) | usize::from(b)]))
                    .sum();
                *o = acc as f32 * 1.0e-6 - 3.0;
            }
        }
    }

    /// One pass; returns a checksum of its output.
    fn pass(&mut self) -> u32 {
        let (table, w, x) = (&self.table, &self.w, &self.x);
        let slots: Vec<Mutex<&mut [f32]>> = self
            .out
            .chunks_mut(CHUNK_ROWS * COLS)
            .map(Mutex::new)
            .collect();
        let next = AtomicUsize::new(0);
        let (slots, next) = (&slots, &next);
        std::thread::scope(|s| {
            for _ in 0..self.threads {
                s.spawn(move || loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(c) else { break };
                    let rows = &x[c * CHUNK_ROWS * K..(c + 1) * CHUNK_ROWS * K];
                    Self::rows(
                        table,
                        w,
                        rows,
                        &mut slot.lock().expect("one taker per chunk"),
                    );
                });
            }
        });
        self.out
            .iter()
            .fold(0u32, |h, v| h.rotate_left(5) ^ v.to_bits())
    }

    /// Runs one pass and returns its wall-clock milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        let sum = black_box(self.pass());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sum, self.checksum, "the reference pass is deterministic");
        ms
    }

    /// Median milliseconds of `passes` passes run back to back.
    pub fn median_ms(&mut self, passes: usize) -> f64 {
        let times: Vec<f64> = (0..passes).map(|_| self.time_ms()).collect();
        median(&times)
    }
}

/// Scales each sample to the nominal host speed: `samples[i]` times
/// `NOMINAL_MS` over `refs[i]`, the reference time taken right after it.
pub fn scale(samples: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(samples.len(), refs.len(), "one reference time per sample");
    samples
        .iter()
        .zip(refs)
        .map(|(&s, &r)| s * NOMINAL_MS / r)
        .collect()
}
