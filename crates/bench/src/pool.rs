//! The worker-pool and invariant-sink helpers behind the corpus load
//! harness (`txfix chaos` and `txfix stress` run the same kernels).
//!
//! A kernel spawns a scoped pool of workers executing `op(worker,
//! iteration)` a fixed number of times, with the per-worker
//! backoff-jitter RNG pinned from the run seed; the pool records every
//! op's latency and the run's wall-clock time, which stress reports and
//! chaos ignores. This module holds the one copy of that machinery.

use std::time::Instant;
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

/// Number of hardware threads on the host running a sweep. Recorded in
/// the wall-clock reports so scaling claims can be judged against what
/// the machine could physically show.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// What a fixed-count pool run measured.
pub struct Run {
    /// Total operations executed across workers (`workers × ops`).
    pub ops: u64,
    /// Wall-clock duration from the first spawn to the last join.
    pub elapsed_secs: f64,
    /// Per-op latency in the observability layer's log₂ buckets.
    pub latency: HistogramSnapshot,
}

/// Spawn `workers` scoped threads each executing `op(worker, i)` exactly
/// `ops` times — the total work is a function of the configuration, never
/// of timing — recording every op's latency. Returns after all workers
/// have joined, so follow-up observability deltas are taken at
/// quiescence.
pub fn run_fixed(workers: usize, ops: u64, seed: u64, op: impl Fn(usize, u64) + Sync) -> Run {
    let hist = parking_lot::Mutex::new([0u64; HIST_BUCKETS]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..workers {
            let (hist, op) = (&hist, &op);
            s.spawn(move || {
                pin_worker_rng(seed, t);
                let mut local = [0u64; HIST_BUCKETS];
                for i in 0..ops {
                    let t0 = Instant::now();
                    op(t, i);
                    local[obs::bucket_index(t0.elapsed().as_nanos() as u64)] += 1;
                }
                let mut h = hist.lock();
                for (merged, l) in h.iter_mut().zip(local) {
                    *merged += l;
                }
            });
        }
    });
    Run {
        ops: workers as u64 * ops,
        elapsed_secs: start.elapsed().as_secs_f64().max(1e-9),
        latency: HistogramSnapshot { counts: hist.into_inner() },
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
