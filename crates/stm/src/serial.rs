//! The global serialization lock backing irrevocable (inevitable)
//! transactions.
//!
//! Like Intel's STM (paper §5.1), a transaction that must perform an
//! operation with un-undoable side effects "reverts to a global lock":
//! it acquires this lock exclusively, which drains and then excludes all
//! concurrent commits, making the transaction's reads stable and its commit
//! infallible. Ordinary commits hold the lock in shared mode only for the
//! duration of the commit protocol, so revocable transactions continue to
//! run and commit concurrently with each other.
//!
//! ## Why not an `RwLock`
//!
//! Every commit takes the shared side, so this is the single hottest lock
//! in the system, and a reader-writer lock funnels all those acquisitions
//! through one atomic word — exactly the kind of all-threads cache-line
//! ping-pong the commit-path overhaul removes. The shape here is a
//! *big-reader* (brlock) / read-indicator lock: readers count themselves
//! in one of [`SLOTS`] cache-line-padded slots (chosen per thread, so the
//! common case touches a line no other core writes), then check the writer
//! flag; the rare exclusive side raises the flag and sweeps every slot to
//! zero. Readers that lose the race to a writer park on a mutex/condvar
//! pair, so irrevocable sections still block rather than burn CPU.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of reader-indicator slots; threads map onto them round-robin.
/// More slots than cores on any expected host, so concurrent committers
/// rarely share one.
const SLOTS: usize = 32;

#[repr(align(64))]
struct Slot(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: Slot = Slot(AtomicU64::new(0));

static READERS: [Slot; SLOTS] = [SLOT_INIT; SLOTS];

/// Raised while an exclusive holder is active (or draining readers).
static WRITER_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Serializes exclusive acquirers against each other.
static WRITER_GATE: Mutex<()> = Mutex::new(());

/// Park bench for readers that arrive while a writer is active.
static PARK_LOCK: Mutex<()> = Mutex::new(());
static PARK_CV: Condvar = Condvar::new();

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_slot() -> &'static Slot {
    let idx = MY_SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
        s.set(v);
        v
    });
    &READERS[idx]
}

/// Shared guard held by ordinary commits while they publish values.
pub(crate) struct SharedGuard {
    slot: &'static Slot,
}

impl Drop for SharedGuard {
    #[inline]
    fn drop(&mut self) {
        self.slot.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Exclusive guard held by an irrevocable transaction from the moment it
/// becomes inevitable until its commit completes.
pub(crate) struct ExclusiveGuard {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for ExclusiveGuard {
    fn drop(&mut self) {
        WRITER_ACTIVE.store(false, Ordering::SeqCst);
        // Order the flag clear before the wakeup relative to parked
        // readers' re-check: taking and dropping the park lock means any
        // reader that saw the flag set is either already waiting (gets
        // the notify) or has not yet locked (will see the flag clear).
        drop(PARK_LOCK.lock());
        PARK_CV.notify_all();
    }
}

/// Acquire the lock in shared mode (ordinary commits, direct stores).
#[inline]
pub(crate) fn shared() -> SharedGuard {
    let slot = my_slot();
    loop {
        // Announce first, then check: the Dekker pair with `exclusive`'s
        // flag-store/slot-sweep. SeqCst on both sides so either the writer
        // sees our count or we see its flag.
        slot.0.fetch_add(1, Ordering::SeqCst);
        if !WRITER_ACTIVE.load(Ordering::SeqCst) {
            return SharedGuard { slot };
        }
        // Lost to a writer: back out so its sweep can finish, then park.
        slot.0.fetch_sub(1, Ordering::SeqCst);
        let mut g = PARK_LOCK.lock();
        while WRITER_ACTIVE.load(Ordering::SeqCst) {
            PARK_CV.wait(&mut g);
        }
    }
}

/// Acquire the lock exclusively (irrevocable transactions, quiescent
/// snapshots).
pub(crate) fn exclusive() -> ExclusiveGuard {
    let gate = WRITER_GATE.lock();
    WRITER_ACTIVE.store(true, Ordering::SeqCst);
    for slot in &READERS {
        let mut spins = 0u32;
        while slot.0.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // Shared sections are short (one commit's publication),
                // but yield rather than burn a core on oversubscribed
                // hosts.
                std::thread::yield_now();
            }
        }
    }
    ExclusiveGuard { _gate: gate }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn exclusive_blocks_shared() {
        let g = exclusive();
        let entered = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _r = shared();
                entered.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(!entered.load(Ordering::SeqCst));
            drop(g);
            // Give the reader time to get the lock.
            for _ in 0..1000 {
                if entered.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(entered.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn shared_blocks_exclusive_until_released() {
        let r = shared();
        let entered = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = exclusive();
                entered.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(!entered.load(Ordering::SeqCst), "writer entered past a live reader");
            drop(r);
            for _ in 0..1000 {
                if entered.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(entered.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn shared_guards_coexist() {
        let _a = shared();
        let _b = shared();
    }

    #[test]
    fn contended_readers_and_writers_make_progress() {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        drop(shared());
                    }
                });
            }
            for _ in 0..20 {
                drop(exclusive());
            }
            done.store(true, Ordering::Relaxed);
        });
    }
}
