//! A condition variable usable with [`TxMutex`] guards.
//!
//! This is the *conventional* condvar the buggy code and the developers'
//! fixes use (e.g. Apache's listener/worker handoff in case study
//! Apache-I). Transactional code uses `txfix-tmsync`'s commit-before-wait
//! condvar or `retry` instead.

use crate::mutex::{TxMutex, TxMutexGuard};
use std::fmt;
use std::time::Duration;
use txfix_stm::hooks::{self, TRACE};
use txfix_stm::{sched, trace, EventCount};

/// Outcome of a timed wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A notification arrived.
    Signaled,
    /// The timeout elapsed first. Production code treats this as spurious;
    /// the bug-reproduction harness treats a *systematic* timeout as the
    /// deadlock signature for lock/wait cycles that the lock-only wait-for
    /// graph cannot see.
    TimedOut,
}

/// A condition variable for [`TxMutex`]-protected state: an
/// [`EventCount`] whose waiters give up the mutex while they park.
pub struct LockCondvar {
    events: EventCount,
    trace_id: u64,
    name: &'static str,
}

impl Default for LockCondvar {
    fn default() -> Self {
        LockCondvar::new()
    }
}

impl fmt::Debug for LockCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockCondvar")
            .field("name", &self.name)
            .field("epoch", &self.events.epoch())
            .finish()
    }
}

impl LockCondvar {
    /// Create an unnamed condition variable. Its wait/notify events are
    /// still traced but carry an empty name, so the name-based analysis
    /// passes skip them.
    pub fn new() -> LockCondvar {
        LockCondvar::named("")
    }

    /// Create a named condition variable; the name rides on every traced
    /// wait/notify event, letting the dynamic wait/notify passes report
    /// hazards in the same vocabulary as the static summaries.
    pub fn named(name: &'static str) -> LockCondvar {
        let trace_id = trace::next_object_id();
        LockCondvar { events: EventCount::new(sched::SyncOp::CvWait(trace_id)), trace_id, name }
    }

    /// Atomically release the guard's lock, wait for a notification or
    /// `timeout`, and re-acquire the lock before returning.
    ///
    /// Under the scheduler the wait never times out: a waiter that no
    /// schedule ever signals is exactly the deadlock/lost-wakeup evidence
    /// the explorer reports.
    ///
    /// # Errors
    ///
    /// [`DeadlockError`](crate::DeadlockError) if re-acquiring the mutex
    /// after the wait completes a deadlock cycle.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: TxMutexGuard<'a, T>,
        timeout: Duration,
    ) -> Result<(TxMutexGuard<'a, T>, WaitOutcome), crate::DeadlockError> {
        let mutex: &'a TxMutex<T> = guard.mutex();
        debug_assert_eq!(crate::thread_id::current(), guard.owner());
        if hooks::armed(TRACE) {
            trace::emit(trace::EventKind::CvWait {
                cv: self.trace_id,
                name: self.name.to_string(),
            });
        }

        // Sample the epoch while still holding the mutex, so a notify
        // between the unlock and the park is not lost.
        let seen = self.events.epoch();
        drop(guard); // releases the mutex (a scheduler yield point)
        let outcome = if self.events.wait_past(seen, timeout) {
            WaitOutcome::Signaled
        } else {
            WaitOutcome::TimedOut
        };
        let reacquired = mutex.lock()?;
        Ok((reacquired, outcome))
    }

    /// Wake all current waiters.
    pub fn notify_all(&self) {
        sched::yield_point(sched::SyncOp::CvNotify(self.trace_id));
        if hooks::armed(TRACE) {
            trace::emit(trace::EventKind::CvNotify {
                cv: self.trace_id,
                name: self.name.to_string(),
            });
        }
        self.events.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn wait_times_out_without_signal() {
        let m = TxMutex::new("m", ());
        let cv = LockCondvar::new();
        let g = m.lock().unwrap();
        let (_g, outcome) = cv.wait_timeout(g, Duration::from_millis(20)).unwrap();
        assert_eq!(outcome, WaitOutcome::TimedOut);
    }

    #[test]
    fn signal_wakes_waiter_and_reacquires() {
        let m = Arc::new(TxMutex::new("m", 0u32));
        let cv = Arc::new(LockCondvar::new());
        let woke = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            let (m1, cv1, woke1) = (m.clone(), cv.clone(), woke.clone());
            s.spawn(move || {
                let mut g = m1.lock().unwrap();
                while *g == 0 {
                    let (g2, _) = cv1.wait_timeout(g, Duration::from_secs(5)).unwrap();
                    g = g2;
                }
                woke1.store(true, Ordering::SeqCst);
            });

            std::thread::sleep(Duration::from_millis(20));
            assert!(!woke.load(Ordering::SeqCst));
            {
                let mut g = m.lock().unwrap();
                *g = 1;
            }
            cv.notify_all();
        });
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_releases_the_mutex_while_blocked() {
        let m = Arc::new(TxMutex::new("m", ()));
        let cv = Arc::new(LockCondvar::new());
        std::thread::scope(|s| {
            let (m1, cv1) = (m.clone(), cv.clone());
            s.spawn(move || {
                let g = m1.lock().unwrap();
                let _ = cv1.wait_timeout(g, Duration::from_millis(100)).unwrap();
            });
            std::thread::sleep(Duration::from_millis(20));
            // While the waiter is blocked, the mutex must be free.
            let g = m.try_lock();
            assert!(g.is_some(), "wait did not release the mutex");
        });
    }
}
