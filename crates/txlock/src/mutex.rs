//! Revocable, deadlock-detecting mutexes (the paper's TxLocks, §5.1).
//!
//! A [`TxMutex`] can be used two ways:
//!
//! - **Non-transactionally** via [`TxMutex::lock`]: an ordinary RAII mutex,
//!   except that blocking acquisitions participate in the global wait-for
//!   graph, so a circular wait is *detected* and returned as a
//!   [`DeadlockError`] instead of hanging forever. The buggy variants of
//!   the corpus scenarios rely on this to demonstrate deadlocks safely.
//! - **Transactionally** via [`TxMutex::lock_tx`]: the lock is acquired on
//!   behalf of an STM transaction, held until the transaction commits, and
//!   *released automatically if the transaction aborts*. If a deadlock
//!   cycle forms, the detector preempts one of the participating
//!   transactions (it aborts with [`Abort::Deadlock`], releasing its locks)
//!   — the mechanism behind fix Recipe 3.

use crate::error::DeadlockError;
use crate::graph::{self, CycleResolution, LockId};
use crate::thread_id::{self, ThreadToken};
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use txfix_stm::chaos;
use txfix_stm::sched;
use txfix_stm::trace;
use txfix_stm::{Abort, StmResult, TxResource, Txn};

static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

/// How long one blocked wait lasts before re-checking kill flags. Deadlock
/// cycles are detected eagerly on blocking; this only bounds kill latency.
const WAIT_SLICE: Duration = Duration::from_millis(1);

/// Polls of a held lock (one load and one `spin_loop` hint each, ~5 µs in
/// all) before a contended acquirer enters the wait-for graph and parks.
/// The critical sections behind these locks are ~2 µs (a KV op, a WAL
/// commit), so the holder is usually gone before a futex park — tens of
/// µs round trip — could even begin. Bounded, so a descheduled holder
/// costs the spinner microseconds, never a time slice.
const SPIN_ITERS: u32 = 400;

pub(crate) enum AcquireError {
    /// The caller's transaction was selected as the deadlock victim.
    SelfVictim,
    /// The caller's transaction was killed externally while waiting.
    Killed,
    /// True deadlock: no abortable participant.
    Deadlock(Vec<String>),
}

pub(crate) struct RawTxLock {
    id: LockId,
    name: String,
    /// The owning thread's token, or 0 when free: acquire is one CAS,
    /// release one store, `owner()` one load.
    owner: AtomicU64,
    /// Threads parked on `cv` or about to be. With `owner` it forms the
    /// SeqCst Dekker pair `stm::notifier` uses: a releaser that reads 0
    /// here may skip `park`/`cv`, because any later parker re-checks
    /// `owner` under `park` and sees the release.
    waiters: AtomicU64,
    park: Mutex<()>,
    cv: Condvar,
    /// Serial of the transaction holding this lock transactionally, or 0.
    holding_txn: AtomicU64,
}

impl graph::OwnerQuery for RawTxLock {
    fn current_owner(&self) -> Option<ThreadToken> {
        self.owner()
    }
    fn lock_name(&self) -> &str {
        &self.name
    }
}

impl RawTxLock {
    pub(crate) fn new(name: &str) -> Arc<RawTxLock> {
        let id = LockId(NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed));
        let lock = Arc::new(RawTxLock {
            id,
            name: name.to_owned(),
            owner: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
            holding_txn: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&lock) as std::sync::Weak<dyn graph::OwnerQuery>;
        graph::register_lock(id, weak);
        lock
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn owner(&self) -> Option<ThreadToken> {
        ThreadToken::from_raw(self.owner.load(Ordering::SeqCst))
    }

    /// One CAS free → `me`. `Err` carries the owner seen instead.
    fn try_take(&self, me: ThreadToken) -> Result<(), u64> {
        self.owner.compare_exchange(0, me.as_u64(), Ordering::SeqCst, Ordering::SeqCst).map(|_| ())
    }

    pub(crate) fn try_acquire(&self, me: ThreadToken) -> bool {
        sched::yield_point(sched::SyncOp::LockAcquire(self.id.0));
        if self.try_take(me).is_err() {
            return false;
        }
        // A failed try-lock cannot deadlock (the thread never blocks),
        // so its order edge is only recorded on success.
        crate::lockdep::note_attempt(self.id, &self.name, false);
        crate::lockdep::note_acquired(self.id);
        self.trace_acquired();
        true
    }

    /// Acquire for `me`, blocking. `txn` is the acquiring transaction for
    /// a revocable acquisition (`lock_tx`), `None` for a plain `lock()`.
    pub(crate) fn acquire(
        &self,
        me: ThreadToken,
        mut txn: Option<&mut Txn>,
    ) -> Result<(), AcquireError> {
        // Record the order edge (and trace event) before the acquisition
        // can block: a deadlocked attempt must still leave its evidence.
        // Revocable acquisitions are preemptible: a cycle through them is
        // resolved by aborting the transaction, not reported as a hazard.
        let preemptible = txn.is_some();
        sched::yield_point(sched::SyncOp::LockAcquire(self.id.0));
        crate::lockdep::note_attempt(self.id, &self.name, preemptible);
        self.trace_attempt(preemptible);
        // A scheduled run never spins: blocking there is a schedule choice.
        let mut spins_left = if sched::is_controlled() { 0 } else { SPIN_ITERS };
        let mut registered_wait = false;
        // Fetched the first time this acquisition blocks: only a blocked
        // thread can be part of a cycle, so only then can it be killed.
        let mut kill = None;
        loop {
            match self.try_take(me) {
                Ok(()) => {
                    if registered_wait {
                        graph::clear_wait(me);
                    }
                    crate::lockdep::note_acquired(self.id);
                    self.trace_acquired();
                    return Ok(());
                }
                Err(owner) if owner == me.as_u64() => {
                    panic!("non-reentrant TxMutex \"{}\" acquired twice by {me}", self.name);
                }
                Err(_) => {}
            }
            // Spin on plain loads, so the holder's release store is not
            // fighting CASes for the line; seen free within budget, retry.
            while spins_left > 0 && self.owner.load(Ordering::Relaxed) != 0 {
                spins_left -= 1;
                std::hint::spin_loop();
            }
            if spins_left > 0 {
                continue;
            }

            if let (None, Some(txn)) = (&kill, txn.as_deref_mut()) {
                // About to block for the first time: become an abortable
                // victim candidate before this wait can close a cycle.
                enlist_preemptible(txn, 0);
                kill = Some(txn.kill_handle());
            }
            registered_wait = true;
            match graph::block_and_check(me, self.id) {
                CycleResolution::NoCycle => {}
                CycleResolution::OtherVictim(_) => {
                    // The victim may be parked on the deterministic
                    // scheduler; wake every parked thread so it observes
                    // its kill flag and aborts (no-op outside a run).
                    sched::wake_all();
                }
                CycleResolution::SelfVictim => return Err(AcquireError::SelfVictim),
                CycleResolution::Unresolvable(cycle) => return Err(AcquireError::Deadlock(cycle)),
            }

            if sched::is_controlled() {
                // Scheduled run: park on the scheduler until the holder's
                // release (or a revocation) signals this lock, then re-try
                // the acquisition — handoff order stays a schedule choice.
                let op = sched::SyncOp::LockAcquire(self.id.0);
                sched::block_on(op.resource().expect("lock ops have a resource"), op);
            } else {
                self.waiters.fetch_add(1, Ordering::SeqCst);
                let mut parked = self.park.lock();
                if self.owner.load(Ordering::SeqCst) != 0 {
                    self.cv.wait_for(&mut parked, WAIT_SLICE);
                }
                drop(parked);
                self.waiters.fetch_sub(1, Ordering::SeqCst);
            }

            if kill.as_ref().is_some_and(txfix_stm::KillHandle::is_killed) {
                graph::clear_wait(me);
                return Err(AcquireError::Killed);
            }
        }
    }

    pub(crate) fn release(&self, me: ThreadToken) {
        // Canary: the release never happens — the classic "forgot to
        // unlock on this path" bug. The lock stays held by a thread that
        // has moved on; every later acquirer blocks forever.
        #[cfg(feature = "canary-txlock")]
        if txfix_stm::canary::fire(txfix_stm::canary::Canary::LockDropRelease) {
            return;
        }
        let op = sched::SyncOp::LockRelease(self.id.0);
        sched::yield_point(op);
        assert_eq!(self.owner(), Some(me), "TxMutex \"{}\" released by non-owner", self.name);
        self.holding_txn.store(0, Ordering::Release);
        // Emit while still the owner: no waiter can observe the mutex free
        // (and emit its LockAcquired) before this event lands, so trace
        // order stays a valid linearization for happens-before replay.
        trace::emit(trace::EventKind::LockReleased { lock: self.id.0 });
        self.owner.store(0, Ordering::SeqCst);
        crate::lockdep::note_released(self.id);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Lock-and-drop before notifying: a parker that saw the lock
            // held is either already in `wait_for` (receives the notify)
            // or still holds `park` on its way there (so this blocks until
            // it is); one that takes `park` later re-checks `owner`.
            drop(self.park.lock());
            self.cv.notify_all();
        }
        // Scheduled waiters park on the scheduler, not on `cv`.
        sched::signal(op.resource().expect("lock ops have a resource"));
    }

    fn trace_attempt(&self, preemptible: bool) {
        if !trace::is_enabled() {
            return;
        }
        trace::emit(trace::EventKind::LockAttempt {
            lock: self.id.0,
            name: self.name.clone(),
            preemptible,
        });
    }

    fn trace_acquired(&self) {
        if !trace::is_enabled() {
            return;
        }
        trace::emit(trace::EventKind::LockAcquired { lock: self.id.0, name: self.name.clone() });
    }
}

/// A transactional acquisition enlists the lock itself: it is released
/// when the transaction finishes (commit *or* abort), on the transaction's
/// own thread, which is the owner.
impl TxResource for RawTxLock {
    fn commit(&self, _serial: u64) {
        self.release(thread_id::current());
    }
    fn abort(&self, _serial: u64) {
        let me = thread_id::current();
        // An abort-path release is a *revocation*: the lock is taken away
        // from a still-running transaction (the TxLock discipline).
        txfix_stm::obs::note_lock_revoked();
        // Canary: a buggy revocation that briefly releases the lock and
        // then blindly takes it back before releasing "for real". If a
        // waiter slips into the window, the re-acquisition fails and the
        // final release fires the non-owner assertion — mutual exclusion
        // was already forfeited the moment the waiter got in.
        #[cfg(feature = "canary-txlock")]
        if txfix_stm::canary::fire(txfix_stm::canary::Canary::LockReacquireInRevoke) {
            self.release(me);
            self.try_acquire(me);
        }
        self.release(me);
    }
}

impl Drop for RawTxLock {
    fn drop(&mut self) {
        graph::unregister_lock(self.id);
    }
}

/// Resource that removes the thread's "abortable transaction" registration
/// from the wait-for graph when the transaction finishes.
struct TxnUnregister {
    thread: ThreadToken,
}

impl TxResource for TxnUnregister {
    fn commit(&self, _serial: u64) {
        graph::unregister_txn_thread(self.thread);
    }
    fn abort(&self, _serial: u64) {
        graph::unregister_txn_thread(self.thread);
    }
}

/// Register the calling thread's transaction as a *preemptible* deadlock
/// victim with an explicit `priority` (lower aborts first), and arrange for
/// the registration to be removed when the transaction finishes.
///
/// [`TxMutex::lock_tx`] does this itself, at priority 0, the first time an
/// acquisition blocks; call this at the top of a Recipe 3 transaction body
/// to mark it as the *preferred* victim ("preferably the preemptible
/// thread should be low priority", paper §4.4) — an existing registration
/// keeps its priority.
pub fn enlist_preemptible(txn: &mut Txn, priority: i32) {
    let me = thread_id::current();
    if graph::register_txn_thread_if_new(me, txn.kill_handle(), priority) {
        txn.enlist(Arc::new(TxnUnregister { thread: me }));
    }
}

/// A revocable, deadlock-detecting mutual-exclusion lock protecting a `T`.
///
/// See the crate-level docs for the two usage modes.
///
/// `TxMutex` is **not reentrant**: re-acquiring non-transactionally panics,
/// while [`lock_tx`](TxMutex::lock_tx) by the same transaction is an
/// idempotent no-op (the lock is already held to commit).
pub struct TxMutex<T> {
    raw: Arc<RawTxLock>,
    data: UnsafeCell<T>,
}

// Safety: access to `data` is serialized by the raw lock protocol; the
// value moves between threads only through lock handoff.
unsafe impl<T: Send> Send for TxMutex<T> {}
unsafe impl<T: Send> Sync for TxMutex<T> {}

impl<T: fmt::Debug> fmt::Debug for TxMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxMutex")
            .field("name", &self.raw.name())
            .field("owner", &self.raw.owner())
            .finish()
    }
}

impl<T> TxMutex<T> {
    /// Create a named lock. Names appear in deadlock-cycle reports.
    pub fn new(name: &str, value: T) -> TxMutex<T> {
        TxMutex { raw: RawTxLock::new(name), data: UnsafeCell::new(value) }
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &str {
        self.raw.name()
    }

    /// Whether any thread currently holds the lock.
    pub fn is_locked(&self) -> bool {
        self.raw.owner().is_some()
    }

    /// Acquire non-transactionally, blocking; detects deadlock.
    ///
    /// # Errors
    ///
    /// [`DeadlockError`] if this acquisition completes a circular wait that
    /// no participating transaction can be aborted to resolve. The caller
    /// still holds whatever locks it held; dropping them unblocks the other
    /// participants.
    pub fn lock(&self) -> Result<TxMutexGuard<'_, T>, DeadlockError> {
        let me = thread_id::current();
        match self.raw.acquire(me, None) {
            Ok(()) => Ok(TxMutexGuard { lock: self, owner: me }),
            Err(AcquireError::Deadlock(cycle)) => Err(DeadlockError { cycle }),
            Err(AcquireError::SelfVictim) | Err(AcquireError::Killed) => {
                unreachable!("non-transactional acquire cannot be victimized")
            }
        }
    }

    /// Try to acquire non-transactionally without blocking.
    pub fn try_lock(&self) -> Option<TxMutexGuard<'_, T>> {
        let me = thread_id::current();
        if self.raw.try_acquire(me) {
            Some(TxMutexGuard { lock: self, owner: me })
        } else {
            None
        }
    }

    /// Acquire on behalf of `txn`: held until commit, released on abort
    /// (the TxLock discipline). An uncontended acquisition is one CAS; one
    /// that blocks first registers the transaction as an abortable
    /// deadlock-victim candidate.
    ///
    /// # Errors
    ///
    /// - [`Abort::Deadlock`] if this transaction was chosen as the victim
    ///   of a deadlock cycle — the runtime re-executes it after backoff;
    /// - [`Abort::Killed`] if an external detector killed the transaction
    ///   while it was waiting.
    pub fn lock_tx(&self, txn: &mut Txn) -> StmResult<()> {
        let me = thread_id::current();

        if self.raw.owner() == Some(me) {
            let holder = self.raw.holding_txn.load(Ordering::Acquire);
            assert_eq!(
                holder,
                txn.serial(),
                "TxMutex \"{}\" already held by this thread outside the transaction",
                self.raw.name()
            );
            return Ok(());
        }

        // Chaos hooks (irrevocable transactions are exempt — they cannot
        // roll back, so a forced failure here would be unrecoverable):
        // fail the acquisition as if victimized, or widen the race window
        // before it.
        if !txn.is_irrevocable() {
            if chaos::should_inject(chaos::InjectionPoint::LockAcquire) {
                return Err(Abort::Deadlock);
            }
            if chaos::should_inject(chaos::InjectionPoint::LockDelay) {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }

        match self.raw.acquire(me, Some(&mut *txn)) {
            Ok(()) => {
                self.raw.holding_txn.store(txn.serial(), Ordering::Release);
                txfix_stm::obs::note_lock_acquired();
                txn.enlist(self.raw.clone());
                // Chaos: spurious revocation of a lock we just acquired.
                // The abort unwinds through the lock's `abort`, exercising
                // the same release-on-revocation path a real preemption
                // takes.
                if !txn.is_irrevocable() && chaos::should_inject(chaos::InjectionPoint::LockRevoke)
                {
                    return Err(Abort::Deadlock);
                }
                Ok(())
            }
            // A registered transaction is always a cycle's possible victim,
            // so `Deadlock` should be unreachable; treat it as victimization.
            Err(AcquireError::SelfVictim | AcquireError::Deadlock(_)) => Err(Abort::Deadlock),
            Err(AcquireError::Killed) => Err(Abort::Killed),
        }
    }

    /// Acquire transactionally and run `f` on the protected data.
    ///
    /// The *lock* remains held until the transaction commits or aborts;
    /// only the borrow of the data is scoped to `f`. Can be called several
    /// times in one transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`lock_tx`](TxMutex::lock_tx) errors.
    pub fn with_tx<R>(&self, txn: &mut Txn, f: impl FnOnce(&mut T) -> R) -> StmResult<R> {
        self.lock_tx(txn)?;
        // Safety: the raw lock is held by this thread until the transaction
        // finishes, so no other thread can observe `data`.
        Ok(unsafe { f(&mut *self.data.get()) })
    }

    /// Access the protected data on a thread that already holds the lock
    /// (via a guard or transactionally), without any abort points.
    ///
    /// Recipe 3 bodies use this for their mutation phase: acquire every
    /// lock first (each `lock_tx` an abort point), then mutate via
    /// `with_held` so a late advisory kill cannot re-execute non-isolated
    /// writes.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the lock.
    pub fn with_held<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        assert_eq!(
            self.raw.owner(),
            Some(thread_id::current()),
            "with_held on TxMutex \"{}\" requires the calling thread to hold it",
            self.raw.name()
        );
        // Safety: owner-exclusivity checked above.
        unsafe { f(&mut *self.data.get()) }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// RAII guard for a non-transactional [`TxMutex`] acquisition.
pub struct TxMutexGuard<'a, T> {
    lock: &'a TxMutex<T>,
    owner: ThreadToken,
}

impl<T> Deref for TxMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: guard existence implies this thread owns the raw lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for TxMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as above, plus &mut self.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for TxMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.release(self.owner);
    }
}

impl<T: fmt::Debug> fmt::Debug for TxMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TxMutexGuard").field(&**self).finish()
    }
}

impl<'a, T> TxMutexGuard<'a, T> {
    pub(crate) fn owner(&self) -> ThreadToken {
        self.owner
    }

    pub(crate) fn mutex(&self) -> &'a TxMutex<T> {
        self.lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_stm::atomic;

    #[test]
    fn basic_lock_unlock() {
        let m = TxMutex::new("m", 5u32);
        {
            let mut g = m.lock().unwrap();
            *g += 1;
            assert!(m.is_locked());
        }
        assert!(!m.is_locked());
        assert_eq!(*m.lock().unwrap(), 6);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let m = Arc::new(TxMutex::new("m", ()));
        let g = m.lock().unwrap();
        let m2 = m.clone();
        std::thread::spawn(move || assert!(m2.try_lock().is_none())).join().unwrap();
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_tx_holds_until_commit() {
        let m = Arc::new(TxMutex::new("m", 0u32));
        let m2 = m.clone();
        atomic(move |txn| {
            m2.with_tx(txn, |v| *v += 1)?;
            // Still held mid-transaction:
            assert!(m2.is_locked());
            m2.with_tx(txn, |v| *v += 1) // reentrant within the txn
        });
        assert!(!m.is_locked(), "lock not released at commit");
        assert_eq!(*m.lock().unwrap(), 2);
    }

    #[test]
    fn lock_tx_releases_on_abort() {
        let m = Arc::new(TxMutex::new("m", 0u32));
        let m2 = m.clone();
        let first = std::sync::atomic::AtomicBool::new(true);
        atomic(move |txn| {
            m2.with_tx(txn, |v| *v += 1)?;
            if first.swap(false, Ordering::SeqCst) {
                assert!(m2.is_locked());
                return txn.restart();
            }
            Ok(())
        });
        assert!(!m.is_locked());
        // Data mutations through with_tx are NOT rolled back (locks give
        // mutual exclusion, not isolation — paper Recipe 3 discussion), so
        // both attempts' increments are visible.
        assert_eq!(*m.lock().unwrap(), 2);
    }

    #[test]
    #[should_panic(expected = "acquired twice")]
    fn reacquire_panics() {
        let m = TxMutex::new("m", ());
        let _g = m.lock().unwrap();
        let _ = m.lock();
    }

    #[test]
    fn ab_ba_deadlock_is_detected() {
        use std::sync::Barrier;
        let a = Arc::new(TxMutex::new("A", ()));
        let b = Arc::new(TxMutex::new("B", ()));
        let barrier = Arc::new(Barrier::new(2));

        let detected = std::thread::scope(|s| {
            let (a1, b1, bar1) = (a.clone(), b.clone(), barrier.clone());
            let h1 = s.spawn(move || {
                let _ga = a1.lock().unwrap();
                bar1.wait();
                b1.lock().map(|_| ()).is_err()
            });
            let (a2, b2, bar2) = (a.clone(), b.clone(), barrier.clone());
            let h2 = s.spawn(move || {
                let _gb = b2.lock().unwrap();
                bar2.wait();
                a2.lock().map(|_| ()).is_err()
            });
            let r1 = h1.join().unwrap();
            let r2 = h2.join().unwrap();
            r1 || r2
        });
        assert!(detected, "AB-BA deadlock was not detected");
    }
}
