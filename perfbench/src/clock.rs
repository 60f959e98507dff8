//! A wrapping acquisition source: the benchmark's window into a real
//! tuning run without any code inside the program.
//!
//! The tuner re-reads every slice's cost at the start of `try_run` and at
//! the top of each pass of Algorithm 1's loop, and calls `note_round(r)`
//! just before it acquires round `r`'s data. A round therefore runs from
//! one cost re-read to the next, and the `note_round(r >= 1)` call inside
//! that interval names it. Each acquisition round is preceded by exactly
//! one convex solve, so the same calls count solves.

use slice_tuner::AcquisitionSource;
use st_data::{Example, SliceId};
use std::sync::Mutex;
use std::time::Instant;

pub struct Clocked<S> {
    inner: S,
    /// Times each `acquire` call when set (the traced run).
    trace: bool,
    /// Times of the cost re-reads (slice 0's `cost` call opens each one).
    /// `cost` takes `&self`, hence the lock.
    rereads: Mutex<Vec<Instant>>,
    /// `(round, time)` of every `note_round` call.
    notes: Vec<(u64, Instant)>,
    /// Rows returned per slice.
    pub rows: Vec<usize>,
    /// Rows returned per slice in each round (index 0: the pre-pass).
    pub round_rows: Vec<Vec<usize>>,
    pub acquire_calls: usize,
    /// Time spent inside the wrapped `acquire`, in ms (traced runs only).
    pub acquire_ms: f64,
}

impl<S: AcquisitionSource> Clocked<S> {
    pub fn new(inner: S, num_slices: usize, trace: bool) -> Clocked<S> {
        Clocked {
            inner,
            trace,
            rereads: Mutex::new(Vec::new()),
            notes: Vec::new(),
            rows: vec![0; num_slices],
            round_rows: vec![vec![0; num_slices]],
            acquire_calls: 0,
            acquire_ms: 0.0,
        }
    }

    /// Durations of the completed acquisition rounds, in ms.
    pub fn round_ms(&self) -> Vec<f64> {
        let rereads = self.rereads.lock().unwrap_or_else(|e| e.into_inner());
        rereads
            .windows(2)
            .filter(|w| {
                self.notes
                    .iter()
                    .any(|&(r, t)| r >= 1 && t >= w[0] && t < w[1])
            })
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    /// Solves the run made: one per `note_round(r >= 1)`.
    pub fn solves(&self) -> usize {
        self.notes.iter().filter(|&&(r, _)| r >= 1).count()
    }
}

impl<S: AcquisitionSource> AcquisitionSource for Clocked<S> {
    fn cost(&self, slice: SliceId) -> f64 {
        if slice.0 == 0 {
            self.rereads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Instant::now());
        }
        self.inner.cost(slice)
    }

    fn acquire(&mut self, slice: SliceId, n: usize) -> Vec<Example> {
        let got = if self.trace {
            let t = Instant::now();
            let got = self.inner.acquire(slice, n);
            self.acquire_ms += t.elapsed().as_secs_f64() * 1e3;
            got
        } else {
            self.inner.acquire(slice, n)
        };
        self.acquire_calls += 1;
        self.rows[slice.0] += got.len();
        let round = self.notes.last().map_or(0, |&(r, _)| r as usize);
        let n = self.rows.len();
        if self.round_rows.len() <= round {
            self.round_rows.resize(round + 1, vec![0; n]);
        }
        self.round_rows[round][slice.0] += got.len();
        got
    }

    fn note_round(&mut self, round: u64) {
        self.notes.push((round, Instant::now()));
        self.inner.note_round(round);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
