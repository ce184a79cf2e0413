//! How a thread blocks: one wait queue, and the event count built on it.
//!
//! Every blocking point of the stack parks through [`WaitQueue`]: a
//! contended `TxMutex` acquisition, a blocked [`Txn::retry`], a
//! commit-before-wait ([`Txn::wait_on`]) and a conventional condition
//! variable wait. It is the only code that chooses between parking on the
//! deterministic scheduler ([`sched::block_on`]) and parking on the OS.
//!
//! The queue touches its mutex and condvar only when a waiter is
//! registered, so an uncontended wake is one load of the waiter count.
//! The waker's state change (a lock's owner word cleared, an epoch bumped)
//! and the waiter count are both `SeqCst`, forming the classic Dekker
//! pair: either the waker sees the waiter (and goes through the park
//! mutex, which it cannot take while the waiter is between its re-check
//! and its wait), or the waiter's re-check, made under that mutex after
//! registering, sees the waker's change.
//!
//! [`Txn::retry`]: crate::Txn::retry
//! [`Txn::wait_on`]: crate::Txn::wait_on

use crate::sched::{self, SyncOp};
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Threads parked until some state changes, under the scheduler or on
/// the OS. The state itself belongs to the caller: a waiter passes a
/// `blocked` predicate over it, and a waker changes it (with a `SeqCst`
/// write) before calling [`wake`](WaitQueue::wake).
#[derive(Default)]
pub struct WaitQueue {
    /// Threads parked on `cv` or about to be.
    waiters: AtomicU64,
    park: Mutex<()>,
    cv: Condvar,
}

impl WaitQueue {
    /// An empty queue.
    pub const fn new() -> WaitQueue {
        WaitQueue { waiters: AtomicU64::new(0), park: Mutex::new(()), cv: Condvar::new() }
    }

    /// Park the caller at most once, if `blocked()` still holds.
    ///
    /// Under the scheduler the park is `block_on(op's resource, op)`: the
    /// thread stays blocked until a wake (or a revocation's
    /// [`sched::wake_all`]) makes it runnable and the scheduler picks it,
    /// with no clock to end it. On an OS thread it is a condvar wait of at
    /// most `slice`. Returns `false` only when an OS wait ran out its
    /// slice; the caller re-checks its condition either way.
    ///
    /// # Panics
    ///
    /// Panics under the scheduler if `op` names no resource.
    pub fn wait(&self, op: SyncOp, blocked: impl FnOnce() -> bool, slice: Duration) -> bool {
        if sched::is_controlled() {
            if blocked() {
                sched::block_on(op.resource().expect("a park names its resource"), op);
            }
            return true;
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut parked = self.park.lock();
        // The re-check after registering (see the module docs).
        let timed_out = blocked() && self.cv.wait_for(&mut parked, slice).timed_out();
        drop(parked);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        !timed_out
    }

    /// Wake every waiter: those on the OS, and those the scheduler holds
    /// blocked on `res`. Call it after the change that ends the wait.
    #[inline]
    pub fn wake(&self, res: u64) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Lock-and-drop before notifying: a waiter that saw the old
            // state is either already in `wait_for` (receives the notify)
            // or still holds `park` on its way there (so this blocks until
            // it is); one that takes `park` later re-checks and sees the
            // change.
            drop(self.park.lock());
            self.cv.notify_all();
        }
        sched::signal(res);
    }
}

/// An event count: an epoch every [`notify`](EventCount::notify) bumps,
/// plus the queue its waiters park on.
///
/// A waiter samples [`epoch`](EventCount::epoch) *before* checking the
/// condition it will wait for, then waits past that sample, so a notify
/// between the check and the park is never lost. The retry notifier,
/// `txlock::LockCondvar` and `tmsync::TxCondvar` are event counts; a
/// transaction commits-and-waits on one through [`Txn::wait_on`].
///
/// [`Txn::wait_on`]: crate::Txn::wait_on
pub struct EventCount {
    epoch: AtomicU64,
    queue: WaitQueue,
    /// The op a waiter parks with under the scheduler; its resource is
    /// what a notify signals.
    park: SyncOp,
}

impl fmt::Debug for EventCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventCount")
            .field("epoch", &self.epoch())
            .field("park", &self.park)
            .finish()
    }
}

impl EventCount {
    /// An event count whose waiters park with `park` under the scheduler
    /// (a [`SyncOp::CvWait`] or [`SyncOp::Park`], which name a resource).
    pub const fn new(park: SyncOp) -> EventCount {
        EventCount { epoch: AtomicU64::new(0), queue: WaitQueue::new(), park }
    }

    /// The current epoch; sample it *before* checking the condition you
    /// will wait on.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bump the epoch and wake every waiter. With none, this is one
    /// `fetch_add` and one load.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.queue.wake(self.park.resource().expect("an event count parks on a resource"));
    }

    /// Block until the epoch moves past `seen`, and return whether it did.
    /// Under the scheduler that takes as long as it takes (a wait no
    /// schedule ever ends is reported as a deadlock); on an OS thread a
    /// `slice` that elapses with the epoch still at `seen` returns `false`.
    pub fn wait_past(&self, seen: u64, slice: Duration) -> bool {
        while self.epoch() == seen {
            if !self.queue.wait(self.park, || self.epoch() == seen, slice) {
                return self.epoch() != seen;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn events() -> EventCount {
        EventCount::new(SyncOp::Park(7))
    }

    #[test]
    fn wait_past_returns_at_once_if_the_epoch_already_moved() {
        let e = events();
        let seen = e.epoch();
        e.notify();
        let start = Instant::now();
        assert!(e.wait_past(seen, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_past_times_out_without_a_notify() {
        let e = events();
        assert!(!e.wait_past(e.epoch(), Duration::from_millis(20)));
    }

    #[test]
    fn a_notify_with_no_waiters_only_bumps() {
        let e = events();
        let e0 = e.epoch();
        for _ in 0..5 {
            e.notify();
        }
        assert_eq!(e.epoch(), e0 + 5);
        assert_eq!(e.queue.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_queue_wait_skips_the_park_when_no_longer_blocked() {
        let q = WaitQueue::new();
        let start = Instant::now();
        assert!(q.wait(SyncOp::Park(7), || false, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(!q.wait(SyncOp::Park(7), || true, Duration::from_millis(20)));
        assert_eq!(q.waiters.load(Ordering::SeqCst), 0);
    }
}
