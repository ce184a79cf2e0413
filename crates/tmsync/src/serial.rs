//! Atomic/lock serialization (the Recipe 4 runtime).
//!
//! Paper §5.1: "We augment both the STM's atomic regions and POSIX mutex
//! locks with a special global reader/writer lock that provides mutual
//! exclusion between atomic regions and lock-based critical sections.
//! Mutex locks acquire the global lock in shared mode, while atomic
//! regions acquire it exclusively." The paper notes this simple scheme
//! costs concurrency (their MySQL-I fix runs at ~50%); scalable designs
//! like cxspinlocks exist but this reproduces the evaluated artifact.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txfix_stm::hooks::{self, TRACE};
use txfix_stm::{sched, trace};
use txfix_stm::{StmResult, Txn, TxnBuilder, TxnError};

/// A serialization domain: the shared reader/writer lock coupling one set
/// of mutexes with the atomic regions serialized against them.
pub struct SerialDomain {
    rw: RwLock<()>,
    /// Thread currently holding the domain exclusively (inside
    /// [`serial_atomic`]), or 0. Lets that thread's own [`SerialMutex`]
    /// acquisitions skip the shared-mode lock instead of self-deadlocking —
    /// the serialized region already excludes every lock critical section.
    exclusive_holder: AtomicU64,
    trace_id: u64,
}

impl fmt::Debug for SerialDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SerialDomain")
            .field("exclusive_holder", &self.exclusive_holder.load(Ordering::Relaxed))
            .finish()
    }
}

impl SerialDomain {
    /// Create a domain.
    pub fn new() -> Arc<SerialDomain> {
        Arc::new(SerialDomain {
            rw: RwLock::new(()),
            exclusive_holder: AtomicU64::new(0),
            trace_id: trace::next_object_id(),
        })
    }

    fn held_exclusively_by_me(&self) -> bool {
        self.exclusive_holder.load(Ordering::Acquire) == txfix_txlock::current_thread().as_u64()
    }
}

/// A mutex whose critical sections are serializable against the domain's
/// atomic regions: locking takes the domain lock in *shared* mode, so
/// ordinary lock-based critical sections still run concurrently with each
/// other, but never overlap a [`serial_atomic`] region.
pub struct SerialMutex<T> {
    domain: Arc<SerialDomain>,
    inner: Mutex<T>,
    trace_id: u64,
}

impl<T: fmt::Debug> fmt::Debug for SerialMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SerialMutex").field("inner", &self.inner).finish()
    }
}

impl<T> SerialMutex<T> {
    /// Create a mutex bound to `domain`.
    pub fn new(domain: Arc<SerialDomain>, value: T) -> SerialMutex<T> {
        SerialMutex { domain, inner: Mutex::new(value), trace_id: trace::next_object_id() }
    }

    /// Lock the mutex (and the domain in shared mode; inside a
    /// [`serial_atomic`] of the same domain the shared acquisition is
    /// skipped — the region already holds the domain exclusively).
    pub fn lock(&self) -> SerialMutexGuard<'_, T> {
        // Under the deterministic scheduler the whole critical section is
        // one scheduler step: announce it, then suppress yields until the
        // guard drops. A controlled thread therefore never parks while
        // holding the domain's shared lock, so the OS acquisitions below
        // can never block on another controlled thread.
        sched::yield_point(sched::SyncOp::SerialSection(self.trace_id));
        let atomic = sched::atomic_section();
        if hooks::armed(TRACE) {
            trace::emit(trace::EventKind::LockAttempt {
                lock: self.trace_id,
                name: self.trace_name(),
                preemptible: false,
            });
        }
        let shared =
            if self.domain.held_exclusively_by_me() { None } else { Some(self.domain.rw.read()) };
        let guard = self.inner.lock();
        if hooks::armed(TRACE) {
            trace::emit(trace::EventKind::LockAcquired {
                lock: self.trace_id,
                name: self.trace_name(),
            });
        }
        SerialMutexGuard { _shared: shared, guard, trace_id: self.trace_id, _atomic: atomic }
    }

    fn trace_name(&self) -> String {
        format!("serial-mutex#{}", self.trace_id & !(1 << 63))
    }
}

/// Guard for a [`SerialMutex`] critical section.
pub struct SerialMutexGuard<'a, T> {
    _shared: Option<RwLockReadGuard<'a, ()>>,
    guard: MutexGuard<'a, T>,
    trace_id: u64,
    _atomic: sched::AtomicSection,
}

impl<T> Drop for SerialMutexGuard<'_, T> {
    fn drop(&mut self) {
        trace::emit(trace::EventKind::LockReleased { lock: self.trace_id });
    }
}

impl<T> Deref for SerialMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for SerialMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for SerialMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SerialMutexGuard").field(&**self).finish()
    }
}

/// Execute `body` as an atomic region **serialized against every lock
/// critical section in `domain`** — Recipe 4's "atomic/lock serializable
/// section". The domain lock is held exclusively for the whole region, so
/// the region cannot interleave with any [`SerialMutex`] critical section,
/// whether or not they touch the same data.
pub fn serial_atomic<T>(
    domain: &Arc<SerialDomain>,
    body: impl FnMut(&mut Txn) -> StmResult<T>,
) -> T {
    serial_atomic_with(domain, &Txn::build(), body)
        .expect("default serial atomic region cannot fail terminally")
}

/// [`serial_atomic`] with an explicitly configured [`TxnBuilder`].
///
/// # Errors
///
/// Same terminal errors as [`TxnBuilder::try_run`].
pub fn serial_atomic_with<T>(
    domain: &Arc<SerialDomain>,
    txn: &TxnBuilder,
    body: impl FnMut(&mut Txn) -> StmResult<T>,
) -> Result<T, TxnError> {
    struct ResetHolder<'a>(&'a AtomicU64);
    impl Drop for ResetHolder<'_> {
        fn drop(&mut self) {
            self.0.store(0, Ordering::Release);
        }
    }

    // One scheduler step for the whole region (see `SerialMutex::lock`):
    // the region's own yields (txn begin/read/write/commit) are suppressed,
    // matching its semantics — serialized against every critical section,
    // nothing can interleave with it anyway.
    sched::yield_point(sched::SyncOp::SerialSection(domain.trace_id));
    let _atomic = sched::atomic_section();
    let _exclusive = domain.rw.write();
    domain.exclusive_holder.store(txfix_txlock::current_thread().as_u64(), Ordering::Release);
    let _reset = ResetHolder(&domain.exclusive_holder);
    txn.try_run(body).map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;
    use txfix_stm::TVar;

    #[test]
    fn lock_sections_run_concurrently_with_each_other() {
        let domain = SerialDomain::new();
        let a = Arc::new(SerialMutex::new(domain.clone(), 0u32));
        let b = Arc::new(SerialMutex::new(domain.clone(), 0u32));
        // Hold a; b must still be lockable (shared domain mode).
        let _ga = a.lock();
        let b2 = b.clone();
        let ok = std::thread::spawn(move || {
            let _gb = b2.lock();
            true
        })
        .join()
        .unwrap();
        assert!(ok);
    }

    #[test]
    fn serial_atomic_excludes_lock_sections() {
        let domain = SerialDomain::new();
        let m = Arc::new(SerialMutex::new(domain.clone(), 0u32));
        let in_atomic = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let locked = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            let (d, ia, rel) = (domain.clone(), in_atomic.clone(), release.clone());
            s.spawn(move || {
                serial_atomic(&d, |_txn| {
                    ia.store(true, Ordering::SeqCst);
                    while !rel.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Ok(())
                });
            });
            while !in_atomic.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let (m2, l2) = (m.clone(), locked.clone());
            s.spawn(move || {
                let _g = m2.lock();
                l2.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                !locked.load(Ordering::SeqCst),
                "lock section overlapped a serial atomic region"
            );
            release.store(true, Ordering::SeqCst);
        });
        assert!(locked.load(Ordering::SeqCst));
    }

    #[test]
    fn serial_mutex_is_reentrant_inside_its_own_serial_atomic() {
        // Recipe 4 bodies routinely lock domain mutexes for the data they
        // touch; taking the domain's shared lock again would self-deadlock,
        // so the exclusive holder skips it.
        let domain = SerialDomain::new();
        let m = Arc::new(SerialMutex::new(domain.clone(), 7u32));
        let out = serial_atomic(&domain, |_txn| {
            let mut g = m.lock();
            *g += 1;
            Ok(*g)
        });
        assert_eq!(out, 8);
        // And the domain is fully released afterwards: a plain lock works.
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn exclusive_holder_resets_even_if_the_body_panics() {
        let domain = SerialDomain::new();
        let m = Arc::new(SerialMutex::new(domain.clone(), 0u32));
        let d = domain.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serial_atomic(&d, |_txn| -> txfix_stm::StmResult<()> { panic!("boom") })
        }));
        assert!(r.is_err());
        // A later plain lock must take the shared path and succeed.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn mixed_lock_and_atomic_increments_are_exact() {
        let domain = SerialDomain::new();
        // The same logical counter reachable both ways: a TVar updated by
        // atomic regions, mirrored into lock-protected state.
        let tv = TVar::new(0u64);
        let locked_adds = Arc::new(SerialMutex::new(domain.clone(), 0u64));
        let total = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for _ in 0..2 {
                let (d, tv) = (domain.clone(), tv.clone());
                s.spawn(move || {
                    for _ in 0..200 {
                        serial_atomic(&d, |txn| tv.modify(txn, |x| x + 1));
                    }
                });
            }
            for _ in 0..2 {
                let (m, total) = (locked_adds.clone(), total.clone());
                s.spawn(move || {
                    for _ in 0..200 {
                        let mut g = m.lock();
                        *g += 1;
                        total.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(tv.load(), 400);
        assert_eq!(*locked_adds.lock(), 400);
    }
}
