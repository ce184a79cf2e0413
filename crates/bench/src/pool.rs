//! The worker-pool and invariant-sink helpers shared by the stress and
//! chaos harnesses.
//!
//! Both harnesses spawn a scoped pool of workers executing `op(worker,
//! iteration)` with the per-worker backoff-jitter RNG pinned from the run
//! seed — the only difference is the loop condition (wall-clock deadline
//! for stress, fixed op count for chaos) and whether per-op latency is
//! recorded. This module holds the one copy of that machinery.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txfix_stm::chaos::splitmix64;
use txfix_stm::obs::{self, HistogramSnapshot, HIST_BUCKETS};

/// Pin the calling worker's only implicit randomized state — the
/// backoff-jitter RNG — deterministically from the run seed and worker
/// index, so sweeps are reproducible per seed.
pub fn pin_worker_rng(seed: u64, worker: usize) {
    txfix_stm::seed_backoff_rng(splitmix64(
        seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ));
}

/// The key column of a harness's `(key, kernel)` table: both harnesses
/// derive their exported `SCENARIOS` list from the rows that run it.
pub const fn keys<T, const N: usize>(rows: &[(&'static str, T); N]) -> [&'static str; N] {
    let mut keys = [""; N];
    let mut i = 0;
    while i < N {
        keys[i] = rows[i].0;
        i += 1;
    }
    keys
}

/// Spawn `workers` scoped threads each executing `op(worker, i)` exactly
/// `ops` times (the chaos harness's count-based shape: the total work is
/// a function of the configuration, never of timing). Returns total ops.
pub fn run_fixed(workers: usize, ops: u64, seed: u64, op: impl Fn(usize, u64) + Sync) -> u64 {
    std::thread::scope(|s| {
        for t in 0..workers {
            let op = &op;
            s.spawn(move || {
                pin_worker_rng(seed, t);
                for i in 0..ops {
                    op(t, i);
                }
            });
        }
    });
    workers as u64 * ops
}

/// What a deadline-bounded pool run measured.
pub struct TimedRun {
    /// Total operations completed across workers.
    pub ops: u64,
    /// Wall-clock duration actually spent (≥ the requested deadline).
    pub elapsed_secs: f64,
    /// Per-op latency in the observability layer's log₂ buckets.
    pub latency: HistogramSnapshot,
}

/// Spawn `workers` scoped threads looping `op(worker, i)` until `secs` of
/// wall clock elapse (the stress harness's open-ended shape), recording
/// every op's latency. Returns after all workers have joined, so
/// follow-up observability deltas are taken at quiescence.
pub fn run_timed(workers: usize, secs: f64, seed: u64, op: impl Fn(usize, u64) + Sync) -> TimedRun {
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let hist = parking_lot::Mutex::new([0u64; HIST_BUCKETS]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..workers {
            let (stop, total_ops, hist, op) = (&stop, &total_ops, &hist, &op);
            s.spawn(move || {
                pin_worker_rng(seed, t);
                let mut local = [0u64; HIST_BUCKETS];
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    op(t, i);
                    let ns = t0.elapsed().as_nanos() as u64;
                    local[obs::bucket_index(ns)] += 1;
                    i += 1;
                }
                total_ops.fetch_add(i, Ordering::Relaxed);
                let mut h = hist.lock();
                for (merged, l) in h.iter_mut().zip(local) {
                    *merged += l;
                }
            });
        }
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
    });
    let counts = *hist.lock();
    TimedRun {
        ops: total_ops.into_inner(),
        elapsed_secs: start.elapsed().as_secs_f64().max(1e-9),
        latency: HistogramSnapshot { counts },
    }
}

/// A thread-safe sink for invariant violations observed during a run.
#[derive(Default)]
pub struct ViolationSink {
    violations: parking_lot::Mutex<Vec<String>>,
}

impl ViolationSink {
    /// An empty sink.
    pub fn new() -> ViolationSink {
        ViolationSink::default()
    }

    /// Record a violation.
    pub fn violate(&self, msg: String) {
        self.violations.lock().push(msg);
    }

    /// Record a violation unless `got == want`.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&self, what: &str, got: T, want: T) {
        if got != want {
            self.violate(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Consume the sink, yielding everything recorded.
    pub fn into_violations(self) -> Vec<String> {
        self.violations.into_inner()
    }
}
