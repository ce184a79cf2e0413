//! Deferred reclamation of replaced `TVar` values, on the commit clock.
//!
//! A variable's committed value is one atomic pointer (`VarInner::value`),
//! and a read dereferences it without taking a lock. A writer that swaps a
//! new value in therefore cannot free the old one at once: it *retires* it
//! under its commit stamp `wv`, on its own thread, and frees it in a later
//! *reclaim pass* once no reader can still be looking at it. A read opens
//! a *window* in its thread's own cache-line-padded slot for as long as it
//! holds the pointer; the window's epoch is the transaction's `rv` (the
//! current clock for a non-transactional load). A read writes only its own
//! slot, so readers of one variable share no written cache line.
//!
//! ## Safety contract (why a pass never frees a value in use)
//!
//! - **Reader:** store the window's epoch (`Release`), then a `SeqCst`
//!   fence, then load the pointer; close the window (store `0`, `Release`)
//!   only after `f` returns. `f` runs only after the orec re-check
//!   (`VarInner::read_consistent`) accepted the pointer.
//! - **Writer:** swap the pointer while holding the orec, then (in the
//!   pass, after every swap it judges) a `SeqCst` fence, then scan the
//!   slots. By the two fences either the reader's load saw the swap, and
//!   it never held the old value, or the scan sees the reader's epoch (or
//!   a store the reader made after it).
//! - **Epochs:** a value a read accepted can only be replaced by a writer
//!   that locked the orec after that read's re-check, and a writer takes
//!   `wv` from the clock after its locks (see `crate::clock`); the
//!   reader took its epoch from the same clock before the re-check, so
//!   `wv` is greater than the reader's epoch. A pass therefore frees a
//!   value retired at `wv` only when no open window has an epoch below
//!   `wv`.
//!
//! What this asks of `f` (the closure of `TVar::read_with`): it must not
//! touch a `TVar`, block or yield. A commit never waits for it, but an
//! open window pins every writer's garbage; windows do not nest (a debug
//! assertion checks it).
//!
//! ## Bounded garbage
//!
//! A writer runs a pass after every commit, once it has released its
//! stripes, so no value is dropped while a stripe is held and a value no
//! window pins is freed at once. What a pass must keep waits in the
//! thread's retire list of `RETIRE_CAP` values; a full list spills into
//! one global list, and a thread that exits hands its leftovers to it
//! too; every pass drains what it can of it. Slots are never freed: an
//! exiting thread releases its slot and the next thread to start takes
//! it, so the slot count is the peak number of threads that have read or
//! written at once. A retired entry holds the value's pointer and its
//! type's drop function, never its variable, which may be gone before the
//! pass.

use parking_lot::Mutex;
use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// How many retired values a thread keeps before it spills them into the
/// global list.
const RETIRE_CAP: usize = 32;

/// One thread's read window, alone on its cache line.
#[repr(align(64))]
struct Slot {
    /// The open window's epoch; `0` when closed (the clock starts at 1).
    epoch: AtomicU64,
    /// Held by a live thread.
    taken: AtomicBool,
    /// The slot registered before this one; fixed once published.
    next: *const Slot,
}

// SAFETY: `epoch` and `taken` are atomics; `next` is written only before
// the slot is published and only read after, and slots are never freed.
unsafe impl Sync for Slot {}

/// The newest slot; the list is append-only.
static SLOTS: AtomicPtr<Slot> = AtomicPtr::new(ptr::null_mut());

fn slots_iter() -> impl Iterator<Item = &'static Slot> {
    let mut p: *const Slot = SLOTS.load(Ordering::Acquire);
    std::iter::from_fn(move || {
        // SAFETY: every pointer in the list is null or a leaked, never
        // freed `Slot`, published with `Release`.
        let slot = unsafe { p.as_ref() }?;
        p = slot.next;
        Some(slot)
    })
}

/// A free slot, or a new one.
fn take_slot() -> &'static Slot {
    let free = |s: &&Slot| {
        !s.taken.load(Ordering::Relaxed)
            && s.taken.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok()
    };
    if let Some(slot) = slots_iter().find(free) {
        return slot;
    }
    let mut head = SLOTS.load(Ordering::Acquire);
    let slot = Box::into_raw(Box::new(Slot {
        epoch: AtomicU64::new(0),
        taken: AtomicBool::new(true),
        next: head,
    }));
    while let Err(newer) =
        SLOTS.compare_exchange_weak(head, slot, Ordering::AcqRel, Ordering::Acquire)
    {
        head = newer;
        // SAFETY: `slot` is this thread's until the exchange publishes it.
        unsafe { (*slot).next = head };
    }
    // SAFETY: leaked, so it lives for the rest of the process.
    unsafe { &*slot }
}

/// The smallest epoch of any open window, `u64::MAX` when none is open.
fn oldest_window() -> u64 {
    slots_iter()
        .map(|s| s.epoch.load(Ordering::Acquire))
        .filter(|&e| e != 0)
        .min()
        .unwrap_or(u64::MAX)
}

/// A value a writer swapped out, awaiting a pass.
#[derive(Clone, Copy)]
struct Retired {
    ptr: *const (),
    drop: unsafe fn(*const ()),
    wv: u64,
}

// SAFETY: `ptr` owns a `Send + Sync` `TVar` payload that nothing else
// frees, `drop` is a plain function and `wv` a number.
unsafe impl Send for Retired {}

fn drop_nothing(_: *const ()) {}

const EMPTY: Retired = Retired { ptr: ptr::null(), drop: drop_nothing, wv: 0 };

/// Retired values whose thread exited or whose list overflowed.
static ORPHANS: Mutex<Vec<Retired>> = Mutex::new(Vec::new());
/// Whether `ORPHANS` may be non-empty: a pass skips its lock otherwise.
/// A hint only (`Relaxed`): the lock guards the list, and a pass that
/// misses a fresh orphan leaves it to the next.
static ORPHANED: AtomicBool = AtomicBool::new(false);

/// A thread's slot and retire list.
struct Local {
    slot: &'static Slot,
    len: Cell<usize>,
    retired: [Cell<Retired>; RETIRE_CAP],
}

impl Local {
    fn new() -> Local {
        Local {
            slot: take_slot(),
            len: Cell::new(0),
            retired: std::array::from_fn(|_| Cell::new(EMPTY)),
        }
    }

    /// Move the whole list to the global one.
    fn spill(&self) {
        let mut orphans = ORPHANS.lock();
        orphans.extend(self.retired[..self.len.get()].iter().map(Cell::get));
        ORPHANED.store(true, Ordering::Relaxed);
        self.len.set(0);
    }

    /// Free every retired value (this thread's and the orphans) that no
    /// open window can hold. Drops run last, after the list is consistent
    /// again: a payload's `Drop` may commit and retire in turn.
    fn pass(&self) {
        // Lock before the fence: every orphan judged below was swapped out
        // before its thread released the lock, so before this fence.
        let orphans = ORPHANED.load(Ordering::Relaxed).then(|| ORPHANS.lock());
        fence(Ordering::SeqCst);
        let oldest = oldest_window();
        let mut free = [const { MaybeUninit::<Retired>::uninit() }; 2 * RETIRE_CAP];
        let mut n = 0;
        let mut keep = |r: Retired| {
            let take = r.wv <= oldest && n < free.len();
            if take {
                free[n].write(r);
                n += 1;
            }
            !take
        };
        let mut kept = 0;
        for i in 0..self.len.get() {
            let r = self.retired[i].get();
            if keep(r) {
                self.retired[kept].set(r);
                kept += 1;
            }
        }
        self.len.set(kept);
        if let Some(mut orphans) = orphans {
            orphans.retain(|&r| keep(r));
            ORPHANED.store(!orphans.is_empty(), Ordering::Relaxed);
        }
        for r in &free[..n] {
            // SAFETY: the first `n` are written; each was retired by a
            // writer at a `wv` no open window's epoch is below.
            unsafe {
                let r = r.assume_init_read();
                (r.drop)(r.ptr);
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.pass();
        if self.len.get() > 0 {
            self.spill();
        }
        self.slot.taken.store(false, Ordering::Release);
    }
}

thread_local! {
    static LOCAL: Local = Local::new();
}

/// `f` on this thread's `Local`; while thread-local storage is being torn
/// down (a payload's `Drop` that reads or writes), on a temporary one.
fn with_local<R>(f: impl FnOnce(&Local) -> R) -> R {
    let mut f = Some(f);
    match LOCAL.try_with(|l| f.take().map(|f| f(l))) {
        Ok(Some(r)) => r,
        _ => f.take().map(|f| f(&Local::new())).expect("f ran on no Local"),
    }
}

/// Closes the window on drop, so a panicking `f` closes it too.
struct Window(&'static Slot);

impl Drop for Window {
    fn drop(&mut self) {
        self.0.epoch.store(0, Ordering::Release);
    }
}

/// Run `f` inside a read window of epoch `epoch` (a clock value taken
/// before the read): every pointer `f` loads from a `VarInner` and accepts
/// stays allocated until `f` returns.
#[inline]
pub(crate) fn pinned<R>(epoch: u64, f: impl FnOnce() -> R) -> R {
    with_local(|local| {
        let slot = local.slot;
        debug_assert_eq!(
            slot.epoch.load(Ordering::Relaxed),
            0,
            "read windows do not nest: a read_with closure touched a TVar"
        );
        slot.epoch.store(epoch, Ordering::Release);
        fence(Ordering::SeqCst);
        let _window = Window(slot);
        f()
    })
}

/// Hand `ptr`, swapped out of a variable by a writer that stamps `wv`, to
/// this thread's retire list; a pass frees it with `drop`. Runs no
/// `Drop`, so it is safe under a held stripe.
///
/// # Safety
///
/// `ptr` is a value no reader can reach any more except through a window
/// opened before the swap, `wv` was taken from the clock after the swap's
/// stripe was locked, and `drop(ptr)` frees it; nothing else does.
#[inline]
pub(crate) unsafe fn retire(ptr: *const (), drop: unsafe fn(*const ()), wv: u64) {
    with_local(|local| {
        if local.len.get() == RETIRE_CAP {
            local.spill();
        }
        let len = local.len.get();
        local.retired[len].set(Retired { ptr, drop, wv });
        local.len.set(len + 1);
    });
}

/// Run a reclaim pass. A writer calls it after every commit, once its
/// stripes are released: a value freed at once is memory the allocator
/// hands straight back, while a pass only when the list was full cost the
/// write-heavy workloads up to a fifth of their throughput (EXPERIMENTS.md,
/// "A TVar read writes no shared cache line").
#[inline]
pub(crate) fn collect() {
    with_local(Local::pass);
}

/// How many read slots the process has made: the peak number of threads
/// that held one at once, since an exiting thread's slot is reused.
pub fn slots() -> usize {
    slots_iter().count()
}

/// How many retired values wait in the global list (leftovers of exited
/// threads and overflow) for the next pass.
pub fn orphans() -> usize {
    ORPHANS.lock().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Slot>(), 64);
        assert_eq!(std::mem::size_of::<Slot>(), 64);
    }

    #[test]
    fn an_open_window_shows_its_epoch_and_closes_after_f() {
        let inside = pinned(3, || with_local(|l| l.slot.epoch.load(Ordering::Relaxed)));
        assert_eq!(inside, 3);
        assert_eq!(with_local(|l| l.slot.epoch.load(Ordering::Relaxed)), 0);
        let closed = std::panic::catch_unwind(|| pinned(5, || panic!("f panics")));
        assert!(closed.is_err());
        assert_eq!(with_local(|l| l.slot.epoch.load(Ordering::Relaxed)), 0, "left open");
    }
}
