//! The sync-event trace recorder behind `txfix analyze`.
//!
//! Every synchronization layer in the workspace (this STM runtime,
//! `txfix-txlock`'s mutexes, `txfix-tmsync`'s serial mutexes and condition
//! variables) emits its lock, transaction and shared-access events through
//! the global sink in this module. The recorder is **off by default** and
//! zero-cost when disabled — each hook is a single relaxed atomic load, the
//! same discipline `txfix_txlock::lockdep` uses — so instrumented code pays
//! nothing in production runs. `txfix-analyze` turns it on around one
//! scenario execution and then replays the captured trace through its
//! happens-before and conflict-serializability passes.
//!
//! Shared data that is *not* managed by a [`TVar`](crate::TVar) or a lock
//! can participate via [`TracedCell`]: a word-sized cell whose plain
//! `load`/`store` calls model unsynchronized accesses (candidate races)
//! and whose `load_sync`/`fetch_add`/`compare_exchange` calls model
//! hardware-atomic accesses (never races, still traced).

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// How an access reads or writes its object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read.
    Read,
    /// A write.
    Write,
    /// An atomic read-modify-write (CAS, fetch-add, ...).
    Rmw,
}

impl AccessKind {
    /// Whether this access writes the object.
    pub fn writes(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Rmw)
    }
}

/// One recorded synchronization event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The recorder-assigned id of the emitting thread (dense, stable
    /// within one process; unrelated to OS thread ids).
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A thread is about to block on (or test) a lock acquisition. Emitted
    /// *before* the acquisition succeeds, so a deadlocked attempt still
    /// leaves its lock-order edge in the trace.
    LockAttempt {
        /// Lock identity.
        lock: u64,
        /// Lock name (diagnostics).
        name: String,
        /// Whether the acquisition is revocable (a transactional
        /// `lock_tx`): a would-be deadlock through this edge is resolved
        /// by preemption, not reported as a hang.
        preemptible: bool,
    },
    /// The acquisition succeeded; the thread now holds the lock.
    LockAcquired {
        /// Lock identity.
        lock: u64,
        /// Lock name (diagnostics).
        name: String,
    },
    /// The thread released the lock.
    LockReleased {
        /// Lock identity.
        lock: u64,
    },
    /// A memory transaction began an attempt.
    TxnBegin {
        /// The transaction's serial number.
        serial: u64,
    },
    /// The transaction committed (its buffered accesses take effect at
    /// this point in the trace).
    TxnCommit {
        /// The transaction's serial number.
        serial: u64,
    },
    /// The transaction aborted (its buffered accesses never happened).
    TxnAbort {
        /// The transaction's serial number.
        serial: u64,
    },
    /// A transactional read or write of a [`TVar`](crate::TVar).
    TxnAccess {
        /// The serial of the accessing transaction.
        serial: u64,
        /// The `TVar` id.
        var: u64,
        /// Read or write.
        kind: AccessKind,
    },
    /// A non-transactional access to shared data (a [`TracedCell`] or a
    /// direct `TVar` load/store outside any transaction).
    SharedAccess {
        /// Object identity (tagged so it can never collide with lock ids).
        object: u64,
        /// Object name (diagnostics).
        name: String,
        /// Read, write or RMW.
        kind: AccessKind,
        /// Whether the access is hardware-atomic. Two conflicting accesses
        /// race only if at least one of them is *not* atomic.
        atomic: bool,
    },
    /// A thread blocked on a condition variable.
    CvWait {
        /// Condvar identity.
        cv: u64,
        /// Condvar name (empty for unnamed condvars, which the
        /// wait/notify analysis passes skip).
        name: String,
    },
    /// The STM's global retry notifier was bumped (a committed writer
    /// announced new values to blocking `retry`). Emitted *after* the
    /// committing transaction's `TxnCommit` on the healthy path; a
    /// `RetryNotify` from a thread whose transaction is still open means
    /// the notification preceded the write-back (lost-wakeup hazard).
    RetryNotify,
    /// A thread signalled a condition variable.
    CvNotify {
        /// Condvar identity.
        cv: u64,
        /// Condvar name (empty for unnamed condvars).
        name: String,
    },
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Ids handed out by [`next_object_id`] carry this tag so they can never
/// collide with `TVar` ids or `txfix-txlock` lock ids, which come from
/// their own counters.
const OBJECT_TAG: u64 = 1 << 63;

static NEXT_OBJECT: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The recorder's dense id for the calling thread, allocated on first use.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let id = t.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        id
    })
}

/// Allocate an identity for a traced object that lives outside the STM's
/// and the lock runtime's id spaces (a [`TracedCell`], a serial mutex, a
/// condition variable).
pub fn next_object_id() -> u64 {
    OBJECT_TAG | NEXT_OBJECT.fetch_add(1, Ordering::Relaxed)
}

/// Whether `id` came from [`next_object_id`] — i.e. belongs to a traced
/// object *outside* the STM's and `txfix-txlock`'s id spaces (a serial
/// mutex, a condvar, a `TracedCell`). Lock events with external ids are
/// visible to the trace but not to `txfix_txlock::lockdep`, so analyses
/// that cross-check the two must filter on this.
pub fn is_external_object(id: u64) -> bool {
    id & OBJECT_TAG != 0
}

/// Start recording. Instrumented code everywhere in the process begins
/// appending events to the global sink.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording (already-captured events are kept until [`reset`] or
/// [`take`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the recorder is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop all captured events.
pub fn reset() {
    EVENTS.lock().clear();
}

/// Remove and return the captured trace.
pub fn take() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock())
}

/// Append one event to the sink if recording is on. The disabled path is a
/// single relaxed load; callers building an expensive payload should check
/// [`is_enabled`] first.
#[inline]
pub fn emit(kind: EventKind) {
    if !is_enabled() {
        return;
    }
    let ev = TraceEvent { thread: thread_id(), kind };
    EVENTS.lock().push(ev);
}

/// A word of shared memory whose accesses are visible to the recorder.
///
/// The corpus scenarios store their racy shared state in `TracedCell`s so
/// `txfix analyze` can observe the access pattern:
///
/// - [`load`](TracedCell::load) / [`store`](TracedCell::store) model
///   *plain* (unsynchronized) accesses — what buggy C code does with an
///   ordinary `int`. The underlying storage is still a Rust atomic, so the
///   demonstration itself stays UB-free, but the trace marks the access
///   non-atomic and the race detector treats conflicts as races.
/// - [`load_sync`](TracedCell::load_sync), [`fetch_add`](TracedCell::fetch_add),
///   [`fetch_sub`](TracedCell::fetch_sub) and
///   [`compare_exchange`](TracedCell::compare_exchange) model
///   hardware-atomic operations: traced, but never reported as racing.
/// - [`peek`](TracedCell::peek) / [`set`](TracedCell::set) are invisible
///   to the recorder — scenario harnesses use them for post-join result
///   checks, which create no happens-before edge the trace could see and
///   must not show up as extra accesses.
pub struct TracedCell {
    id: u64,
    name: &'static str,
    value: AtomicU64,
}

impl fmt::Debug for TracedCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedCell").field("name", &self.name).field("value", &self.peek()).finish()
    }
}

impl TracedCell {
    /// Create a cell holding `value`.
    pub fn new(name: &'static str, value: u64) -> TracedCell {
        TracedCell { id: next_object_id(), name, value: AtomicU64::new(value) }
    }

    fn access(&self, kind: AccessKind, atomic: bool) {
        // A traced access is also a schedulable step: the deterministic
        // scheduler interleaves threads exactly at these operations.
        crate::sched::yield_point(if kind.writes() {
            crate::sched::SyncOp::SharedWrite(self.id)
        } else {
            crate::sched::SyncOp::SharedRead(self.id)
        });
        if !is_enabled() {
            return;
        }
        emit(EventKind::SharedAccess {
            object: self.id,
            name: self.name.to_string(),
            kind,
            atomic,
        });
    }

    /// A plain (unsynchronized) read.
    pub fn load(&self) -> u64 {
        self.access(AccessKind::Read, false);
        self.value.load(Ordering::SeqCst)
    }

    /// A plain (unsynchronized) write.
    pub fn store(&self, value: u64) {
        self.access(AccessKind::Write, false);
        self.value.store(value, Ordering::SeqCst);
    }

    /// An atomic read.
    pub fn load_sync(&self) -> u64 {
        self.access(AccessKind::Read, true);
        self.value.load(Ordering::SeqCst)
    }

    /// An atomic fetch-and-add.
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.access(AccessKind::Rmw, true);
        self.value.fetch_add(delta, Ordering::SeqCst)
    }

    /// An atomic fetch-and-subtract.
    pub fn fetch_sub(&self, delta: u64) -> u64 {
        self.access(AccessKind::Rmw, true);
        self.value.fetch_sub(delta, Ordering::SeqCst)
    }

    /// An atomic compare-and-swap.
    ///
    /// # Errors
    ///
    /// The observed value, when it differs from `current`.
    pub fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.access(AccessKind::Rmw, true);
        self.value.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Read the value without tracing (harness assertions after joins).
    pub fn peek(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }

    /// Write the value without tracing (harness setup).
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::SeqCst);
    }

    /// The cell's trace identity.
    pub fn trace_id(&self) -> u64 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as TestMutex;

    // The sink is process-global; serialize tests that toggle it.
    static GATE: TestMutex<()> = TestMutex::new(());

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _g = GATE.lock();
        reset();
        let cell = TracedCell::new("off", 0);
        cell.store(7);
        assert_eq!(cell.load(), 7);
        emit(EventKind::CvNotify { cv: 1, name: String::new() });
        assert!(take().is_empty(), "disabled sink must stay empty");
    }

    #[test]
    fn enabled_recorder_orders_events() {
        let _g = GATE.lock();
        reset();
        enable();
        let cell = TracedCell::new("cnt", 0);
        let v = cell.load();
        cell.store(v + 1);
        cell.fetch_add(1);
        disable();
        let events = take();
        let kinds: Vec<(AccessKind, bool)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SharedAccess { kind, atomic, .. } => Some((*kind, *atomic)),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![(AccessKind::Read, false), (AccessKind::Write, false), (AccessKind::Rmw, true)]
        );
        assert_eq!(cell.peek(), 2);
    }

    #[test]
    fn peek_and_set_are_invisible() {
        let _g = GATE.lock();
        reset();
        enable();
        let cell = TracedCell::new("quiet", 0);
        cell.set(9);
        assert_eq!(cell.peek(), 9);
        disable();
        assert_eq!(take(), Vec::new());
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let there = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn object_ids_are_tagged() {
        assert_ne!(next_object_id() & OBJECT_TAG, 0);
    }
}
