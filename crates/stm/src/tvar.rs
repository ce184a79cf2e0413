//! Transactional variables.
//!
//! A [`TVar<T>`] is a shared memory cell whose reads and writes, when
//! performed through a [`Txn`](crate::Txn), execute atomically and in
//! isolation with respect to all other transactions. Commit metadata — the
//! version stamp and commit-time writer lock — lives in the striped,
//! cache-line-padded ownership-record table ([`crate::orec`]); a variable
//! holds its creation-order id and a reference to its stripe, in the style
//! of word-based TL2.

use crate::clock;
use crate::error::{Abort, ConflictKind, StmResult};
use crate::hooks::{self, TRACE};
use crate::orec::{self, Orec, DIRECT_WRITER};
use crate::reclaim;
use crate::serial;
use crate::trace;
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Unique identity of a [`TVar`], stable for the life of the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u64);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tvar#{}", self.0)
    }
}

/// How many times a reader re-checks a busy orec before declaring conflict.
const READ_SPIN: usize = 128;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) type Boxed = Arc<dyn Any + Send + Sync>;

/// Shared state of one transactional variable (type-erased).
///
/// Every value the cell ever holds — committed or buffered in a write set
/// — is an `Arc<T>` for the `T` of the [`TVar`] that created it, which is
/// what makes the casts in [`TVar`]'s reads sound. Aligned to a cache line
/// so that the fields a read loads do not share one with the `Arc`'s
/// counts, which every write-set entry bumps.
#[repr(align(64))]
pub(crate) struct VarInner {
    pub(crate) id: u64,
    /// The ownership record this variable maps to — a stripe of the global
    /// padded table, shared with every id at distance `k·STRIPES`.
    pub(crate) orec: &'static Orec,
    /// The committed value: `Arc::into_raw` of its `Arc<T>`. A read
    /// dereferences it inside a [`reclaim`] window; the writer that swaps
    /// it out retires it.
    value: AtomicPtr<()>,
    /// Frees a value of this cell's type from its `into_raw` pointer.
    drop_value: unsafe fn(*const ()),
}

/// # Safety
///
/// `value` is the `into_raw` of an `Arc<T>` that no one else will free.
unsafe fn drop_arc<T>(value: *const ()) {
    drop(Arc::from_raw(value.cast::<T>()));
}

impl VarInner {
    fn new<T: Send + Sync + 'static>(value: Arc<T>) -> Arc<VarInner> {
        let id = NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed);
        let value = AtomicPtr::new(Arc::into_raw(value).cast_mut().cast());
        Arc::new(VarInner { id, orec: orec::stripe_for(id), value, drop_value: drop_arc::<T> })
    }

    /// Consistent read: the committed value's pointer together with the
    /// stripe version it was committed at, or a conflict if the orec stays
    /// busy. The seqlock pattern — writer, version, value, then writer
    /// *before* version on the re-check — guarantees the value belongs to
    /// the returned version: a committer releases in the order stamp →
    /// unlock, so seeing the stripe unlocked implies its new version is
    /// visible to the load that follows. The pointer may be dereferenced
    /// only inside the [`reclaim::pinned`] window the load was made in.
    pub(crate) fn read_consistent(&self) -> StmResult<(*const (), u64)> {
        for _ in 0..READ_SPIN {
            if self.orec.writer() != 0 {
                std::hint::spin_loop();
                continue;
            }
            let v1 = self.orec.version();
            let val = self.value.load(Ordering::Acquire);
            let w2 = self.orec.writer();
            let v2 = self.orec.version();
            if w2 == 0 && v1 == v2 {
                return Ok((val, v1));
            }
            std::hint::spin_loop();
        }
        Err(Abort::Conflict(ConflictKind::OrecBusy))
    }

    /// Swap in `value` and retire the old one under `wv` — only while the
    /// orec is held (commit write-back), with `wv` taken after locking it.
    /// Frees nothing: the writer calls [`reclaim::collect`] once it has
    /// released its stripes.
    pub(crate) fn publish(&self, value: Boxed, wv: u64) {
        let new = Arc::into_raw(value).cast_mut().cast();
        let old = self.value.swap(new, Ordering::AcqRel);
        // SAFETY: the swap unpublished `old`, the caller holds the stripe
        // and took `wv` after locking it, and `drop_value` is `old`'s.
        unsafe { reclaim::retire(old, self.drop_value, wv) };
    }

    /// Non-transactional atomic store (a degenerate single-write commit):
    /// lock the stripe, then stamp (the clock's lock-before-stamping rule).
    fn store_direct(&self, value: Boxed) {
        let _g = serial::shared();
        while !self.orec.try_lock(DIRECT_WRITER) {
            std::hint::spin_loop();
        }
        let wv = clock::commit_stamp();
        self.publish(value, wv);
        self.orec.stamp_release(wv);
        self.orec.unlock(DIRECT_WRITER);
        drop(_g);
        reclaim::collect();
        crate::runtime::notify_retriers();
    }
}

impl Drop for VarInner {
    fn drop(&mut self) {
        // SAFETY: no reader outlives its handle, and the value is the
        // cell's own `Arc<T>`.
        unsafe { (self.drop_value)(*self.value.get_mut()) }
    }
}

impl fmt::Debug for VarInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VarInner")
            .field("id", &self.id)
            .field("stripe", &orec::stripe_index(self.id))
            .field("orec", &self.orec)
            .finish()
    }
}

/// A transactional memory cell holding a value of type `T`.
///
/// Cloning a `TVar` clones the *handle*; both handles refer to the same
/// cell. Values are stored behind an `Arc`, so `T` only needs to be `Clone`
/// for callers that want owned copies out of [`read`](TVar::read).
///
/// # Examples
///
/// ```
/// use txfix_stm::{atomic, TVar};
///
/// let balance = TVar::new(100i64);
/// atomic(|txn| {
///     let b = balance.read(txn)?;
///     balance.write(txn, b - 30)
/// });
/// assert_eq!(balance.load(), 70);
/// ```
pub struct TVar<T> {
    inner: Arc<VarInner>,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar { inner: self.inner.clone(), _marker: PhantomData }
    }
}

impl<T: fmt::Debug + Send + Sync + Clone + 'static> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TVar").field("id", &self.id()).field("value", &self.load()).finish()
    }
}

impl<T: Send + Sync + 'static> TVar<T> {
    /// Create a new transactional variable with initial value `value`.
    pub fn new(value: T) -> TVar<T> {
        TVar { inner: VarInner::new(Arc::new(value)), _marker: PhantomData }
    }

    /// Stable unique identity of this variable.
    pub fn id(&self) -> VarId {
        VarId(self.inner.id)
    }

    /// The `T` a payload pointer of this cell points to.
    ///
    /// # Safety
    ///
    /// `value` is this cell's: committed and accepted inside a read window
    /// that outlives `'a`, or buffered in a live write set.
    unsafe fn payload<'a>(value: *const ()) -> &'a T {
        &*value.cast::<T>()
    }

    /// A new owner of a payload of this cell (one count bump, no clone of
    /// `T`).
    ///
    /// # Safety
    ///
    /// As for [`payload`](TVar::payload), for the duration of the call.
    unsafe fn share(value: *const ()) -> Arc<T> {
        Arc::increment_strong_count(value.cast::<T>());
        Arc::from_raw(value.cast())
    }

    /// Run `f` on the current value inside a transaction, borrowing it:
    /// no clone of `T`, nor of its `Arc`. The other reads wrap the same one.
    ///
    /// `f` runs only on a value the transaction has already validated,
    /// inside the thread's read window, which keeps that value allocated
    /// until `f` returns. A commit never waits for `f`: it swaps in its
    /// value and frees the old one later. `f` must not touch any `TVar`,
    /// block, or reach a scheduler yield point, because an open window
    /// keeps every writer's replaced values from being freed (and windows
    /// do not nest).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate with `?`.
    pub fn read_with<R>(&self, txn: &mut crate::Txn, f: impl FnOnce(&T) -> R) -> StmResult<R> {
        // SAFETY: `read_raw` hands `f` a pointer it keeps alive for the call.
        txn.read_raw(&self.inner, |value| f(unsafe { Self::payload(value) }))
    }

    /// Read a shared handle to the current value inside a transaction.
    ///
    /// Clones the `Arc`, never `T`: for a caller that keeps the snapshot
    /// after the transaction. Inside it, use [`read_with`](TVar::read_with).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate with `?`.
    pub fn read_arc(&self, txn: &mut crate::Txn) -> StmResult<Arc<T>> {
        // SAFETY: as in `read_with`.
        txn.read_raw(&self.inner, |value| unsafe { Self::share(value) })
    }

    /// Replace the value inside a transaction. The write is buffered and
    /// becomes visible to other threads only if the transaction commits.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict or capacity overflow.
    pub fn write(&self, txn: &mut crate::Txn, value: T) -> StmResult<()> {
        txn.write_raw(&self.inner, Arc::new(value))
    }

    /// Non-transactional atomic snapshot of the value.
    ///
    /// Consistent (never observes a torn or in-flight commit) but does not
    /// participate in any transaction's conflict detection.
    pub fn load_arc(&self) -> Arc<T> {
        // SAFETY: `load_with` keeps the pointer alive for the call.
        self.load_with(|value| unsafe { Self::share(value) })
    }

    /// `f` on a consistent snapshot's payload pointer, inside a read window
    /// whose epoch is the current clock, spinning instead of aborting (the
    /// contract of [`read_with`](TVar::read_with)).
    fn load_with<R>(&self, f: impl FnOnce(*const ()) -> R) -> R {
        crate::sched::yield_point(crate::sched::SyncOp::SharedRead(
            self.inner.id | crate::sched::VAR_TAG,
        ));
        self.trace_direct(trace::AccessKind::Read);
        let mut f = Some(f);
        loop {
            let read = reclaim::pinned(clock::now(), || {
                let (value, _) = self.inner.read_consistent().ok()?;
                f.take().map(|f| f(value))
            });
            if let Some(r) = read {
                return r;
            }
            std::thread::yield_now();
        }
    }

    /// Non-transactional atomic store. Equivalent to a tiny transaction
    /// that writes just this variable.
    pub fn store(&self, value: T) {
        crate::sched::yield_point(crate::sched::SyncOp::SharedWrite(
            self.inner.id | crate::sched::VAR_TAG,
        ));
        self.trace_direct(trace::AccessKind::Write);
        self.inner.store_direct(Arc::new(value));
    }

    // Non-transactional TVar operations are single-variable atomic actions
    // (they serialize against commits via the orec), so the trace marks
    // them `atomic`: visible to the analyzer, never part of a race.
    fn trace_direct(&self, kind: trace::AccessKind) {
        if hooks::armed(TRACE) {
            let (object, name) = (self.inner.id, format!("tvar#{}", self.inner.id));
            trace::emit(trace::EventKind::SharedAccess { object, name, kind, atomic: true });
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Read an owned copy of the current value inside a transaction.
    ///
    /// This **deep-clones `T`** on every call — a whole map, if `T` is a
    /// map. It is the right call for word-sized values; for anything
    /// bigger use [`read_with`](TVar::read_with), which borrows the
    /// committed value (same read set, same validation) and clones nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate with `?` so the runtime can
    /// re-execute the transaction.
    pub fn read(&self, txn: &mut crate::Txn) -> StmResult<T> {
        self.read_with(txn, T::clone)
    }

    /// Apply `f` to the current value and write the result back, all within
    /// the transaction. Costs one clone of `T`: `f` needs an owned value
    /// and the committed one stays shared with concurrent readers.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict or capacity overflow.
    pub fn modify(&self, txn: &mut crate::Txn, f: impl FnOnce(T) -> T) -> StmResult<()> {
        let v = self.read_with(txn, T::clone)?;
        self.write(txn, f(v))
    }

    /// Non-transactional atomic read returning an owned copy (one clone of
    /// `T`, made inside a read window; [`load_arc`](TVar::load_arc) clones
    /// only the `Arc`).
    pub fn load(&self) -> T {
        // SAFETY: `load_with` keeps the pointer alive for the call.
        self.load_with(|value| unsafe { Self::payload(value) }.clone())
    }
}

impl<T: Default + Send + Sync + 'static> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_displayable() {
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        assert_ne!(a.id(), b.id());
        assert!(a.id().to_string().starts_with("tvar#"));
    }

    #[test]
    fn load_store_roundtrip() {
        let v = TVar::new(String::from("hello"));
        assert_eq!(v.load(), "hello");
        v.store(String::from("world"));
        assert_eq!(v.load(), "world");
    }

    #[test]
    fn clone_shares_the_cell() {
        let a = TVar::new(1u32);
        let b = a.clone();
        a.store(7);
        assert_eq!(b.load(), 7);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn store_bumps_stripe_version() {
        let v = TVar::new(0u64);
        let (_, before) = v.inner.read_consistent().unwrap();
        v.store(1);
        let (_, after) = v.inner.read_consistent().unwrap();
        assert!(after > before);
    }

    #[test]
    fn validate_detects_version_change() {
        let v = TVar::new(0u64);
        let (_, ver) = v.inner.read_consistent().unwrap();
        assert!(v.inner.orec.validate(ver, 42));
        v.store(1);
        assert!(!v.inner.orec.validate(ver, 42));
    }

    #[test]
    fn busy_orec_forces_reader_conflict_until_unlocked() {
        let v = TVar::new(0u64);
        assert!(v.inner.orec.try_lock(9));
        assert!(!v.inner.orec.try_lock(10));
        // Busy orec forces readers into conflict after bounded spinning.
        assert!(matches!(v.inner.read_consistent(), Err(Abort::Conflict(ConflictKind::OrecBusy))));
        v.inner.orec.unlock(9);
        assert!(v.inner.read_consistent().is_ok());
    }

    #[test]
    fn concurrent_direct_stores_do_not_tear() {
        let v = TVar::new((0u64, 0u64));
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let v = v.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        v.store((t * 1000 + i, t * 1000 + i));
                    }
                });
            }
            for _ in 0..500 {
                let (a, b) = v.load();
                assert_eq!(a, b, "torn read");
            }
        });
        let (a, b) = v.load();
        assert_eq!(a, b);
    }

    /// A payload that counts its own `clone` calls: how many copies of `T`
    /// an API makes.
    struct Counted(Arc<AtomicU64>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::SeqCst);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn arc_reads_never_clone_the_value_and_owned_reads_clone_it_once() {
        let clones = Arc::new(AtomicU64::new(0));
        let count = || clones.load(Ordering::SeqCst);
        let v = TVar::new(Counted(clones.clone()));

        // Outside a transaction.
        let shared = v.load_arc();
        assert_eq!(count(), 0, "load_arc cloned T");
        let _owned = v.load();
        assert_eq!(count(), 1, "load must clone T exactly once");

        // Inside one, on the committed value and then on this
        // transaction's own buffered write. `read_with` borrows: inside
        // `f` the value's `Arc` has exactly the owners it has outside.
        crate::atomic(|txn| {
            for phase in ["committed", "read-after-write"] {
                let before = count();
                let held = if phase == "committed" { shared.clone() } else { v.read_arc(txn)? };
                let inside = v.read_with(txn, |_| Arc::strong_count(&held))?;
                assert_eq!(inside, Arc::strong_count(&held), "read_with cloned the Arc ({phase})");
                let _again = v.read_arc(txn)?;
                assert_eq!(count(), before, "read_with or read_arc cloned T ({phase})");
                let _owned = v.read(txn)?;
                assert_eq!(count(), before + 1, "read must clone T exactly once ({phase})");
                v.write(txn, Counted(clones.clone()))?;
                assert_eq!(count(), before + 1, "write cloned T ({phase})");
            }
            let before = count();
            v.modify(txn, |c| c)?;
            assert_eq!(count(), before + 1, "modify must clone T exactly once");
            Ok(())
        });
        let before = count();
        let _shared = v.load_arc();
        assert_eq!(count(), before, "load_arc cloned T after a commit");
    }

    #[test]
    fn default_matches_type_default() {
        let v: TVar<Vec<u8>> = TVar::default();
        assert!(v.load().is_empty());
    }
}
