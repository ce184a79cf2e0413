//! Contention management: what a transaction does between an abort and the
//! next attempt.
//!
//! The paper relies on randomized exponential backoff to avoid livelock in
//! deadlock preemption (Recipe 3, §4.4) — a preempted transaction that
//! restarts immediately may reacquire its locks before the other deadlocked
//! threads make progress. There is one rule, with nothing to set: after
//! `k` consecutive failures a transaction sleeps a uniformly random
//! duration below `5 µs · 2^k`, capped at 2 ms, and both bounds are 4×
//! wider on the escalation ladder's stronger-backoff rung.
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

/// The first window: a first failure sleeps within `[0, 2·BASE)`.
const BASE: Duration = Duration::from_micros(5);

/// The cap on any window.
const MAX: Duration = Duration::from_millis(2);

/// How much wider both `BASE` and `MAX` are on the escalation ladder's
/// stronger-backoff rung.
const STRONGER: u32 = 4;

/// Stateful backoff driver for one transaction attempt loop: after `k`
/// consecutive failures it sleeps a uniformly random duration in
/// [`jitter_window`]`(stronger, k)`. That is the nominal duration: the OS
/// sleeps at least ~56 µs however short it is (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    stronger: bool,
    failures: u32,
}

impl Backoff {
    /// A fresh driver on the stronger-backoff rung's wider ladder
    /// (`default()` is one on the plain ladder).
    pub(crate) fn stronger() -> Backoff {
        Backoff { stronger: true, failures: 0 }
    }

    /// Record a failure and sleep within the window it reaches.
    pub(crate) fn wait(&mut self) {
        self.failures = self.failures.saturating_add(1);
        let nanos = jitter_window(self.stronger, self.failures).as_nanos() as u64;
        std::thread::sleep(Duration::from_nanos(xorshift_below(nanos)));
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

/// The window a [`Backoff`] sleeps within after `failures` consecutive
/// failures: `BASE * 2^min(failures, 16)`, capped at `MAX`, both
/// `STRONGER` times wider on the stronger-backoff rung.
///
/// Separated from [`Backoff::wait`] so growth and capping are testable
/// without sleeping.
pub(crate) fn jitter_window(stronger: bool, failures: u32) -> Duration {
    let scale = if stronger { STRONGER } else { 1 };
    (BASE * scale * (1 << failures.min(16))).min(MAX * scale)
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

    /// The windows every transaction sleeps within, pinned in µs for
    /// k = 1..=10 consecutive failures: the plain ladder, then the
    /// stronger-backoff rung's.
    #[test]
    fn the_ladder_windows_are_pinned() {
        const PLAIN: [u64; 10] = [10, 20, 40, 80, 160, 320, 640, 1_280, 2_000, 2_000];
        const STRONGER: [u64; 10] = [40, 80, 160, 320, 640, 1_280, 2_560, 5_120, 8_000, 8_000];
        for (k, (plain, stronger)) in (1..=10).zip(PLAIN.iter().zip(STRONGER.iter())) {
            let window = |stronger| jitter_window(stronger, k).as_micros() as u64;
            assert_eq!(window(false), *plain, "plain window at k = {k}");
            assert_eq!(window(true), *stronger, "stronger-backoff window at k = {k}");
        }
    }

    #[test]
    fn a_window_stays_at_its_cap_however_many_failures() {
        for failures in [10, 16, 17, 1000, u32::MAX] {
            assert_eq!(jitter_window(false, failures), MAX);
            assert_eq!(jitter_window(true, failures), MAX * STRONGER);
        }
        // A wait after many failures is bounded by the cap (plus
        // scheduling slop, so allow a generous margin).
        let mut b = Backoff { stronger: true, failures: 30 };
        let start = Instant::now();
        b.wait();
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn jitter_stays_within_the_window() {
        // The sleep duration is drawn uniformly from [0, window); check the
        // generator over the bounds the ladder uses.
        for failures in 1..=20 {
            for stronger in [false, true] {
                let window = jitter_window(stronger, failures).as_nanos() as u64;
                for _ in 0..50 {
                    assert!(xorshift_below(window) < window);
                }
            }
        }
    }

    #[test]
    fn reset_returns_to_base_window() {
        let mut b = Backoff::default();
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
        let mut b = Backoff::default();
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
