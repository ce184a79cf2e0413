//! The ownership (title-locking) protocol — buggy and developer-fixed.
//!
//! Per paper §5.4.1: "SpiderMonkey developers employed this mechanism
//! because most objects are only ever locked by a single thread": the
//! owner's fast path is a single atomic compare, with a slow *claim*
//! handshake for contended objects. The deadlock occurs when a thread
//! holding `setSlotLock` claims an object whose owner is blocked behind
//! `setSlotLock`.

use super::store::ObjectStore;
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txfix_stm::{sched, trace};
use txfix_txlock::TxMutex;

/// Buggy protocol or the developers' fix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnershipMode {
    /// As shipped: claim objects while holding `setSlotLock` → deadlock.
    Buggy,
    /// Developers' fix: drop all owned titles before blocking on
    /// `setSlotLock` (plus the claim/release condition variable), at the
    /// cost of re-acquiring ownership afterwards.
    DevFix,
}

/// Per-object title: exclusive thread ownership with a claim handshake.
struct Title {
    /// Owning thread index + 1; 0 when unowned.
    owner: AtomicU64,
    /// Number of threads waiting to claim.
    wanted: AtomicU64,
    m: Mutex<()>,
    cv: Condvar,
    /// Trace identity: the title is a lock, and recording its
    /// acquire/release lets the trace analyzers see the claim-while-holding
    /// cycle that the lock-only live validator cannot (titles are not
    /// `TxMutex`es).
    trace_id: u64,
}

impl Title {
    fn new() -> Title {
        Title {
            owner: AtomicU64::new(0),
            wanted: AtomicU64::new(0),
            m: Mutex::new(()),
            cv: Condvar::new(),
            trace_id: trace::next_object_id(),
        }
    }

    /// Fast path: already owner, or object unowned and we can take it.
    #[inline]
    fn try_fast(&self, me: u64) -> bool {
        let o = self.owner.load(Ordering::Acquire);
        if o == me {
            return true;
        }
        o == 0 && self.owner.compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    fn release(&self, me: u64) {
        if self.owner.compare_exchange(me, 0, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            trace::emit(trace::EventKind::LockReleased { lock: self.trace_id });
            let _g = self.m.lock();
            self.cv.notify_all();
            sched::signal(self.trace_id);
        }
    }

    /// Slow path: block until ownership is obtained or `timeout` elapses.
    /// Under the deterministic scheduler the claim parks on the title
    /// instead, and times out only when every thread is blocked.
    fn claim(&self, me: u64, timeout: Duration) -> bool {
        self.wanted.fetch_add(1, Ordering::AcqRel);
        let got = if sched::is_controlled() {
            loop {
                if self.try_fast(me) {
                    break true;
                }
                if sched::block_on_timeout(self.trace_id, sched::SyncOp::Park(self.trace_id)) {
                    break false;
                }
            }
        } else {
            let deadline = Instant::now() + timeout;
            loop {
                if self.try_fast(me) {
                    break true;
                }
                let now = Instant::now();
                if now >= deadline {
                    break false;
                }
                let mut g = self.m.lock();
                // Re-check under the lock to avoid a sleep/notify race.
                if self.try_fast(me) {
                    break true;
                }
                let _ = self.cv.wait_for(&mut g, (deadline - now).min(Duration::from_millis(1)));
            }
        };
        self.wanted.fetch_sub(1, Ordering::AcqRel);
        got
    }
}

struct ObjEntry {
    title: Title,
    slots: UnsafeCell<Vec<i64>>,
}

// Safety: slot access is gated on title ownership (one owner at a time).
unsafe impl Sync for ObjEntry {}
unsafe impl Send for ObjEntry {}

/// The ownership-protocol object store.
pub struct OwnershipStore {
    mode: OwnershipMode,
    set_slot_lock: TxMutex<()>,
    objects: Vec<ObjEntry>,
    claim_timeout: Duration,
    deadlock_timeouts: AtomicU64,
    /// Threads currently blocked in a claim, anywhere in the store. Safe
    /// points consult this single counter so the owner fast path stays one
    /// atomic load.
    wanted_total: AtomicU64,
}

impl fmt::Debug for OwnershipStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwnershipStore")
            .field("mode", &self.mode)
            .field("objects", &self.objects.len())
            .field("deadlock_timeouts", &self.deadlock_timeouts.load(Ordering::Relaxed))
            .finish()
    }
}

impl OwnershipStore {
    /// Create a store of `objects` objects with `slots` slots each.
    pub fn new(mode: OwnershipMode, objects: usize, slots: usize) -> OwnershipStore {
        OwnershipStore {
            mode,
            set_slot_lock: TxMutex::new("moz1.scope", ()),
            objects: (0..objects)
                .map(|_| ObjEntry { title: Title::new(), slots: UnsafeCell::new(vec![0; slots]) })
                .collect(),
            claim_timeout: Duration::from_millis(100),
            deadlock_timeouts: AtomicU64::new(0),
            wanted_total: AtomicU64::new(0),
        }
    }

    /// Shorten the claim timeout (test harnesses use this so the buggy
    /// variant reports its deadlock quickly).
    pub fn with_claim_timeout(mut self, timeout: Duration) -> OwnershipStore {
        self.claim_timeout = timeout;
        self
    }

    /// How many claims timed out — the deadlock signature of the buggy
    /// variant (always 0 for the developers' fix under our workloads).
    pub fn deadlock_timeouts(&self) -> u64 {
        self.deadlock_timeouts.load(Ordering::Relaxed)
    }

    fn me(thread: usize) -> u64 {
        thread as u64 + 1
    }

    /// Ensure `thread` owns `obj`'s title, claiming it if needed.
    fn own(&self, thread: usize, obj: usize) -> bool {
        let me = Self::me(thread);
        let t = &self.objects[obj].title;
        if t.owner.load(Ordering::Acquire) == me {
            return true; // already the owner: no new acquisition to record
        }
        // Dev-fix claims are revocable in the Recipe-3 sense (the protocol
        // relinquishes every owned title before blocking), so their edges
        // never complete a reportable lock-order cycle.
        if trace::is_enabled() {
            trace::emit(trace::EventKind::LockAttempt {
                lock: t.trace_id,
                name: "moz1.title".to_string(),
                preemptible: self.mode == OwnershipMode::DevFix,
            });
        }
        let got = t.try_fast(me) || {
            self.wanted_total.fetch_add(1, Ordering::AcqRel);
            let got = t.claim(me, self.claim_timeout);
            self.wanted_total.fetch_sub(1, Ordering::AcqRel);
            got
        };
        if got {
            if trace::is_enabled() {
                trace::emit(trace::EventKind::LockAcquired {
                    lock: t.trace_id,
                    name: "moz1.title".to_string(),
                });
            }
            return true;
        }
        self.deadlock_timeouts.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Safe point: if anyone is blocked claiming, relinquish every wanted
    /// title this thread owns (SpiderMonkey owners yield between
    /// operations).
    #[inline]
    fn safe_point(&self, thread: usize) {
        if self.wanted_total.load(Ordering::Acquire) == 0 {
            return;
        }
        let me = Self::me(thread);
        for o in &self.objects {
            if o.title.wanted.load(Ordering::Acquire) > 0 {
                o.title.release(me);
            }
        }
    }

    /// Developers' fix step: drop every title this thread owns before
    /// blocking on a lock.
    fn release_all_titles(&self, thread: usize) {
        let me = Self::me(thread);
        for o in &self.objects {
            o.title.release(me);
        }
    }

    // The title is a lock: holding it grants exclusive access to the slots,
    // so the &self -> &mut aliasing clippy objects to cannot occur.
    #[allow(clippy::mut_from_ref)]
    fn slots_mut(&self, obj: usize) -> &mut Vec<i64> {
        // Safety: callers hold the object's title.
        unsafe { &mut *self.objects[obj].slots.get() }
    }
}

impl ObjectStore for OwnershipStore {
    fn set_slot(&self, thread: usize, obj: usize, slot: usize, value: i64) {
        if !self.own(thread, obj) {
            return; // abandoned (deadlock timeout in buggy mode)
        }
        self.slots_mut(obj)[slot] = value;
        self.safe_point(thread);
    }

    fn get_slot(&self, thread: usize, obj: usize, slot: usize) -> i64 {
        if !self.own(thread, obj) {
            return 0;
        }
        let v = self.slots_mut(obj)[slot];
        self.safe_point(thread);
        v
    }

    fn move_slot(&self, thread: usize, src: usize, dst: usize, slot: usize) -> bool {
        let me = Self::me(thread);
        if self.mode == OwnershipMode::DevFix {
            // The fix: relinquish everything we own before we can block, so
            // no claimant ever waits on a thread that is itself blocked.
            self.release_all_titles(thread);
        }
        let guard = self.set_slot_lock.lock().expect("setSlotLock cycle");
        let ok = self.own(thread, src) && self.own(thread, dst);
        if ok {
            let v = self.slots_mut(src)[slot];
            if v != 0 {
                self.slots_mut(src)[slot] = 0;
                self.slots_mut(dst)[slot] = v;
            }
        }
        drop(guard);
        self.safe_point(thread);
        let _ = me;
        ok
    }

    fn quiesce(&self, thread: usize) {
        self.release_all_titles(thread);
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn variant_name(&self) -> &'static str {
        match self.mode {
            OwnershipMode::Buggy => "ownership (buggy)",
            OwnershipMode::DevFix => "ownership (developer fix)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fast_path_single_thread() {
        let s = OwnershipStore::new(OwnershipMode::Buggy, 4, 2);
        s.set_slot(0, 1, 0, 42);
        assert_eq!(s.get_slot(0, 1, 0), 42);
        assert_eq!(s.deadlock_timeouts(), 0);
    }

    #[test]
    fn claim_transfers_between_threads() {
        let s = Arc::new(OwnershipStore::new(OwnershipMode::Buggy, 2, 1));
        s.set_slot(0, 0, 0, 7); // thread 0 owns object 0
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            // Thread 1 claims object 0; the owner relinquishes at its next
            // safe point (it keeps executing operations below).
            s2.set_slot(1, 0, 0, 9);
        });
        // Thread 0 stays active on another object so it passes safe points.
        while !h.is_finished() {
            s.set_slot(0, 1, 0, 1);
        }
        h.join().unwrap();
        assert_eq!(s.get_slot(1, 0, 0), 9);
        assert_eq!(s.deadlock_timeouts(), 0);
    }

    #[test]
    fn move_slot_moves_value() {
        let s = OwnershipStore::new(OwnershipMode::DevFix, 4, 2);
        s.set_slot(0, 0, 1, 5);
        assert!(s.move_slot(0, 0, 3, 1));
        assert_eq!(s.get_slot(0, 3, 1), 5);
        assert_eq!(s.get_slot(0, 0, 1), 0);
    }

    #[test]
    fn buggy_mode_deadlocks_on_forced_interleaving() {
        let s = Arc::new(
            OwnershipStore::new(OwnershipMode::Buggy, 2, 1)
                .with_claim_timeout(Duration::from_millis(50)),
        );
        // Each thread owns one object, then both move into the *other's*
        // object simultaneously: the mover that loses the setSlotLock race
        // blocks while owning the object the winner must claim — the
        // Mozilla-I cycle.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|sc| {
            for t in 0..2usize {
                let s = s.clone();
                let barrier = &barrier;
                sc.spawn(move || {
                    s.set_slot(t, t, 0, t as i64 + 1);
                    barrier.wait();
                    s.move_slot(t, t, 1 - t, 0);
                });
            }
        });
        assert!(s.deadlock_timeouts() > 0, "buggy ownership protocol should have deadlocked");
    }

    #[test]
    fn dev_mode_survives_the_same_contention() {
        let s = Arc::new(
            OwnershipStore::new(OwnershipMode::DevFix, 2, 1)
                .with_claim_timeout(Duration::from_millis(400)),
        );
        std::thread::scope(|sc| {
            for t in 0..2usize {
                let s = s.clone();
                sc.spawn(move || {
                    for _ in 0..20 {
                        s.set_slot(t, t, 0, t as i64 + 1);
                        s.move_slot(t, t, 1 - t, 0);
                    }
                    s.quiesce(t);
                });
            }
        });
        assert_eq!(s.deadlock_timeouts(), 0, "developer fix must not deadlock");
    }
}
