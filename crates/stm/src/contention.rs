//! Contention management: what a transaction does between an abort and the
//! next attempt.
//!
//! The paper relies on randomized exponential backoff to avoid livelock in
//! deadlock preemption (Recipe 3, §4.4) — a preempted transaction that
//! restarts immediately may reacquire its locks before the other deadlocked
//! threads make progress. The policies here are also the subject of the A2
//! ablation benchmark.
//!
//! Where the runtime backs off: after every conflict, deadlock-victim and
//! kill abort and every `retry` with an empty read set, except a call's
//! first read-validation loss (the first since its `Backoff` was made or
//! reset). That loss lost to a commit that has already landed, so the
//! body re-runs at once; a second loss sleeps.
//!
//! What a sleep costs: on Linux any `thread::sleep` lasts at least the
//! timer slack (50 µs by default) plus the wakeup. On a 2-core x86-64 host
//! a 1 ns sleep takes ~56 µs at the median, 5 µs ~61 µs and 10 µs ~66 µs,
//! about 30 times the ~2 µs key-value put a lost validation re-runs.

use std::cell::Cell;
use std::time::Duration;

/// Policy for waiting between transaction attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackoffPolicy {
    /// Retry immediately. Prone to livelock under contention; included as
    /// an ablation baseline.
    None,
    /// Busy-spin for a bounded, constant number of iterations.
    Spin {
        /// Spin-loop iterations per failed attempt.
        iters: u32,
    },
    /// Randomized exponential backoff (the default): sleep for a uniformly
    /// random duration in `[0, base * 2^attempt)`, capped at `max`. That
    /// is the nominal duration: the OS sleeps at least ~56 µs however
    /// short it is (see the module docs).
    ExpJitter {
        /// Backoff unit for the first retry.
        base: Duration,
        /// Upper bound on any single backoff.
        max: Duration,
    },
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy::ExpJitter { base: Duration::from_micros(5), max: Duration::from_millis(2) }
    }
}

impl BackoffPolicy {
    /// A strictly stronger variant of this policy, used by the escalation
    /// ladder's middle rung: `None` becomes the default jittered policy,
    /// `Spin` spins 8× longer, `ExpJitter` widens both the base window and
    /// the cap 4×.
    pub fn escalated(self) -> BackoffPolicy {
        match self {
            BackoffPolicy::None => BackoffPolicy::default(),
            BackoffPolicy::Spin { iters } => {
                BackoffPolicy::Spin { iters: iters.saturating_mul(8).max(64) }
            }
            BackoffPolicy::ExpJitter { base, max } => BackoffPolicy::ExpJitter {
                base: base.saturating_mul(4).max(Duration::from_nanos(1)),
                max: max.saturating_mul(4).max(Duration::from_nanos(1)),
            },
        }
    }
}

/// Stateful backoff driver for one transaction attempt loop.
#[derive(Debug)]
pub(crate) struct Backoff {
    policy: BackoffPolicy,
    failures: u32,
}

impl Backoff {
    pub(crate) fn new(policy: BackoffPolicy) -> Backoff {
        Backoff { policy, failures: 0 }
    }

    /// Record a failure and wait according to the policy.
    pub(crate) fn wait(&mut self) {
        self.failures = self.failures.saturating_add(1);
        match self.policy {
            BackoffPolicy::None => {}
            BackoffPolicy::Spin { iters } => {
                for _ in 0..iters {
                    std::hint::spin_loop();
                }
            }
            BackoffPolicy::ExpJitter { base, .. } => {
                let window = jitter_window(self.policy, self.failures).unwrap_or(base);
                let nanos = window.as_nanos() as u64;
                let jittered = xorshift_below(nanos.max(1));
                std::thread::sleep(Duration::from_nanos(jittered));
            }
        }
    }

    /// Record the first failure without waiting, if no failure is recorded
    /// yet; returns whether it did. The next failure then waits as
    /// [`wait`](Backoff::wait)'s second one, so the window ladder is the
    /// same as if this one had slept.
    pub(crate) fn skip_first(&mut self) -> bool {
        let first = self.failures == 0;
        if first {
            self.failures = 1;
        }
        first
    }

    /// Forget accumulated failures: the next wait starts from the base
    /// window again. The runtime calls this when a commit succeeds mid-loop
    /// (commit-before-wait), since a successful publish means the
    /// contention that grew the window is gone.
    pub(crate) fn reset(&mut self) {
        self.failures = 0;
    }

    #[cfg(test)]
    pub(crate) fn failures(&self) -> u32 {
        self.failures
    }
}

/// The jitter window an [`BackoffPolicy::ExpJitter`] policy sleeps within
/// after `failures` consecutive failures: `base * 2^min(failures, 16)`,
/// capped at `max` and floored at 1 ns. `None` for other policies.
///
/// Separated from [`Backoff::wait`] so growth and capping are testable
/// without sleeping.
pub(crate) fn jitter_window(policy: BackoffPolicy, failures: u32) -> Option<Duration> {
    match policy {
        BackoffPolicy::ExpJitter { base, max } => {
            let exp = failures.min(16);
            Some(base.saturating_mul(1u32 << exp.min(31)).min(max).max(Duration::from_nanos(1)))
        }
        _ => None,
    }
}

thread_local! {
    static RNG_STATE: Cell<u64> = Cell::new(seed());
}

/// Reseed the calling thread's backoff-jitter RNG.
///
/// By default each thread seeds its jitter stream from the clock and its
/// thread id — fine for production, fatal for reproducibility. Harnesses
/// that promise deterministic runs for a fixed seed (`txfix stress --seed`,
/// `txfix chaos`) call this at worker start with a seed derived from the
/// run seed and the worker index, making the backoff jitter the worker
/// draws an explicit function of the run configuration. A zero seed is
/// remapped (xorshift has an all-zero fixed point).
pub fn seed_backoff_rng(seed: u64) {
    RNG_STATE.with(|s| s.set(seed | 1));
}

fn seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let t = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let tid = std::thread::current().id();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    use std::hash::{Hash, Hasher};
    tid.hash(&mut h);
    t.subsec_nanos().hash(&mut h);
    h.finish() | 1
}

/// Cheap thread-local xorshift; we deliberately avoid a `rand` dependency on
/// the hot abort path.
pub(crate) fn xorshift_below(bound: u64) -> u64 {
    RNG_STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x % bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn default_policy_is_exponential_with_jitter() {
        match BackoffPolicy::default() {
            BackoffPolicy::ExpJitter { base, max } => {
                assert!(base < max);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn none_policy_does_not_block() {
        let mut b = Backoff::new(BackoffPolicy::None);
        let start = Instant::now();
        for _ in 0..1000 {
            b.wait();
        }
        assert!(start.elapsed().as_millis() < 200);
        assert_eq!(b.failures(), 1000);
    }

    #[test]
    fn exp_jitter_stays_below_cap() {
        let max = Duration::from_millis(1);
        let mut b = Backoff::new(BackoffPolicy::ExpJitter { base: Duration::from_micros(1), max });
        // Even after many failures a single wait is bounded by max (plus
        // scheduling slop, so allow a generous margin).
        for _ in 0..30 {
            b.wait();
        }
        let start = Instant::now();
        b.wait();
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn window_growth_is_exponential_then_capped() {
        let base = Duration::from_micros(5);
        let max = Duration::from_millis(2);
        let policy = BackoffPolicy::ExpJitter { base, max };
        // Doubles while below the cap...
        let mut prev = jitter_window(policy, 1).unwrap();
        assert_eq!(prev, Duration::from_micros(10));
        for failures in 2..=8 {
            let w = jitter_window(policy, failures).unwrap();
            assert_eq!(w, (prev * 2).min(max), "window at {failures} failures");
            prev = w;
        }
        // ...then stays exactly at the cap, no matter how many failures.
        for failures in [9, 16, 17, 1000, u32::MAX] {
            assert_eq!(jitter_window(policy, failures).unwrap(), max);
        }
        assert_eq!(jitter_window(BackoffPolicy::None, 5), None);
        assert_eq!(jitter_window(BackoffPolicy::Spin { iters: 1 }, 5), None);
    }

    #[test]
    fn jitter_stays_within_the_window() {
        // The sleep duration is drawn uniformly from [0, window); check the
        // generator over the same bound the policy would use.
        let policy = BackoffPolicy::ExpJitter {
            base: Duration::from_micros(5),
            max: Duration::from_millis(2),
        };
        for failures in 1..=20 {
            let window = jitter_window(policy, failures).unwrap().as_nanos() as u64;
            for _ in 0..50 {
                assert!(xorshift_below(window) < window);
            }
        }
    }

    #[test]
    fn reset_returns_to_base_window() {
        let mut b = Backoff::new(BackoffPolicy::None);
        for _ in 0..7 {
            b.wait();
        }
        assert_eq!(b.failures(), 7);
        b.reset();
        assert_eq!(b.failures(), 0);
        // The first wait after a reset is back in the smallest window.
        b.wait();
        assert_eq!(b.failures(), 1);
    }

    #[test]
    fn only_a_first_failure_is_skipped() {
        let mut b = Backoff::new(BackoffPolicy::None);
        assert!(b.skip_first());
        assert!(!b.skip_first(), "a second failure must wait");
        assert_eq!(b.failures(), 1);
        b.wait();
        assert_eq!(b.failures(), 2, "the skipped failure counts toward the window");
        b.reset();
        assert!(b.skip_first(), "a reset makes the next failure a first one again");
    }

    #[test]
    fn xorshift_respects_bound() {
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..100 {
                assert!(xorshift_below(bound) < bound);
            }
        }
    }

    #[test]
    fn xorshift_is_not_constant() {
        let vals: Vec<u64> = (0..32).map(|_| xorshift_below(u64::MAX)).collect();
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }
}
