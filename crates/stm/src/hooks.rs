//! The one arming word: whether each off-path hook layer is on.
//!
//! Each layer that instruments a hot path (scheduler, recorder, metrics,
//! fault injection, crash points, lockdep, canaries) owns one bit of one
//! [`AtomicU32`] on a cache line of its own, so no static a commit writes
//! shares the line every read loads. [`armed`] is one relaxed load; each
//! layer keeps its own slow path and state behind it.
//!
//! [`arm`] takes one re-entrant, process-wide lock, sets its bits, and
//! the [`Armed`] guard clears exactly the bits it set when dropped (also
//! while unwinding). Another thread's `arm` waits; `arm(0)` keeps armed
//! runs out without arming anything. Arming nests on one thread, but a
//! worker a scheduled run spawned must never arm: it would wait for the
//! thread waiting for it, so `arm` panics there. [`obs::enable`](crate::obs::enable) is the one
//! unguarded path (a plain bit set). DESIGN.md §3 "The arming word" has
//! the bit table.

use parking_lot::{Condvar, Mutex};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::ThreadId;

/// The deterministic scheduler's yield points and wakeups.
pub const SCHED: u32 = 1 << 0;
/// The sync-event trace recorder.
pub const TRACE: u32 = 1 << 1;
/// The per-site metrics registry.
pub const OBS: u32 = 1 << 2;
/// Fault-injection points.
pub const CHAOS: u32 = 1 << 3;
/// Crash points and the frozen world (`txfix_xcall::crashpoint`).
pub const CRASH: u32 = 1 << 4;
/// The live lock-order validator (`txfix_txlock::lockdep`).
pub const LOCKDEP: u32 = 1 << 5;
/// Canary mutation sites. Absent from a default build.
#[cfg(feature = "canary")]
pub const CANARY: u32 = 1 << 6;

#[repr(align(64))]
struct Word(AtomicU32);
const _: () = assert!(std::mem::size_of::<Word>() == 64, "the word has a cache line of its own");

static WORD: Word = Word(AtomicU32::new(0));
/// How many times [`arm`] has set [`LOCKDEP`].
static LOCKDEP_EPOCH: AtomicU32 = AtomicU32::new(0);
/// The thread holding the arming lock and how many guards it holds.
static HOLDER: Mutex<(Option<ThreadId>, usize)> = Mutex::new((None, 0));
static RELEASED: Condvar = Condvar::new();

/// Whether any of `bits` is armed. One relaxed load: the whole cost of a
/// hook whose layer is off.
#[inline]
pub fn armed(bits: u32) -> bool {
    WORD.0.load(Ordering::Relaxed) & bits != 0
}

/// The arming generation of [`LOCKDEP`]: it changes each time [`arm`]
/// sets the bit, so lockdep's per-thread held set can tell a leftover of
/// an earlier arming.
pub fn lockdep_epoch() -> u32 {
    LOCKDEP_EPOCH.load(Ordering::Relaxed)
}

/// Take the arming lock (waiting while another thread holds it) and set
/// `bits` for the life of the returned guard. Panics on a scheduled run's
/// worker, which would otherwise wait forever for its own run's guard.
pub fn arm(bits: u32) -> Armed {
    assert!(
        !crate::sched::is_worker(),
        "hooks::arm on a scheduled run's worker thread: the run holds the arming lock"
    );
    let me = std::thread::current().id();
    let mut holder = HOLDER.lock();
    while holder.0.is_some_and(|t| t != me) {
        RELEASED.wait(&mut holder);
    }
    *holder = (Some(me), holder.1 + 1);
    drop(holder);
    // Bump the epoch before the bit is visible, so a thread that sees
    // LOCKDEP set also sees the arming it belongs to.
    let set = bits & !WORD.0.load(Ordering::SeqCst);
    if set & LOCKDEP != 0 {
        LOCKDEP_EPOCH.fetch_add(1, Ordering::SeqCst);
    }
    WORD.0.fetch_or(set, Ordering::SeqCst);
    Armed { set, _thread: PhantomData }
}

/// Guard returned by [`arm`]: clears the bits it set and releases its hold
/// on the arming lock when dropped. Stays on the thread that armed.
#[must_use = "the bits are cleared when the guard drops"]
pub struct Armed {
    set: u32,
    _thread: PhantomData<*const ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        WORD.0.fetch_and(!self.set, Ordering::SeqCst);
        let mut holder = HOLDER.lock();
        holder.1 -= 1;
        if holder.1 == 0 {
            holder.0 = None;
            RELEASED.notify_one();
        }
    }
}

/// Set `bits` outside the guard (the `obs::enable` path).
pub(crate) fn set(bits: u32) {
    WORD.0.fetch_or(bits, Ordering::SeqCst);
}

/// Clear `bits` outside the guard (the `obs::disable` path).
pub(crate) fn clear(bits: u32) {
    WORD.0.fetch_and(!bits, Ordering::SeqCst);
}
