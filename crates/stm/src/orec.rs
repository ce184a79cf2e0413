//! The striped ownership-record (orec) table.
//!
//! Commit metadata — the version stamp and the commit-time writer lock —
//! used to live inline in every `VarInner`, sharing its cache line with
//! the value and the `Arc` refcount. It now lives in a process-global
//! table of cache-line-padded [`Orec`]s; a variable maps to the stripe
//! `id & (STRIPES - 1)`. This buys three things:
//!
//! - **No false sharing**: each orec owns its cache line, so one commit's
//!   stamp store never invalidates an unrelated reader's line.
//! - **Canonical lock order for free**: stripe index is a total order
//!   known before any lock is taken, so commits sort-and-lock their
//!   stripes in index order and committer/committer deadlock is
//!   structurally impossible (and visible as such to the lockdep/trace
//!   detectors).
//! - **Bounded metadata**: the table is allocated once, statically; a
//!   million TVars add no orec memory.
//!
//! The price is *false conflicts*: two variables in the same stripe share
//! a version and a commit lock, so a commit to one can abort a reader of
//! the other. With sequential variable ids the stripe map is a perfect
//! round-robin, so collisions need `STRIPES` simultaneously-hot variables
//! at creation-order distance `k·STRIPES` — rare, and safe: sharing a
//! stripe can only add conflicts, never hide one. (That is a statement
//! about the stripe map alone. Whether an *accepted* read is consistent
//! rests on the order of the loads in `VarInner::read_consistent` and
//! `Txn::read_raw`, and on the one commit protocol in `Txn::commit`, the
//! only code besides `store_direct` that ever holds a stripe.)
//!
//! ## Determinism
//!
//! The stripe of a variable is a pure function of its creation-order id
//! (no address, no hash seed), so two runs of a deterministic schedule
//! allocate identical stripe patterns and conflict identically. A stripe's
//! version carries across scenarios within a process (it is never reset)
//! but never leads the clock, so a fresh reader's stamp already covers it
//! — no observable divergence.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of stripes; must be a power of two. 1024 orecs × 64 B = 64 KiB,
/// resident in L2 on anything this runs on.
pub(crate) const STRIPES: usize = 1024;

/// Writer-field sentinel for non-transactional direct stores.
pub(crate) const DIRECT_WRITER: u64 = u64::MAX;

/// One ownership record, alone on its cache line.
#[repr(align(64))]
pub(crate) struct Orec {
    /// Version of the most recent committed write to any variable in the
    /// stripe (a clock stamp, per-stripe monotone).
    version: AtomicU64,
    /// Serial of the transaction currently holding this stripe for commit;
    /// `0` when unlocked, [`DIRECT_WRITER`] during a non-transactional
    /// store.
    writer: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const OREC_INIT: Orec = Orec { version: AtomicU64::new(0), writer: AtomicU64::new(0) };

static TABLE: [Orec; STRIPES] = [OREC_INIT; STRIPES];

/// The stripe index a variable id maps to.
#[inline]
pub(crate) fn stripe_index(id: u64) -> usize {
    (id as usize) & (STRIPES - 1)
}

/// The orec for variable `id`.
#[inline]
pub(crate) fn stripe_for(id: u64) -> &'static Orec {
    &TABLE[stripe_index(id)]
}

impl Orec {
    /// This orec's index in the table — the canonical lock order key.
    #[inline]
    pub(crate) fn index(&'static self) -> usize {
        // Pointer arithmetic on the static table; elements are 64 B apart.
        (self as *const Orec as usize - TABLE.as_ptr() as usize) / std::mem::size_of::<Orec>()
    }

    /// Current version stamp (Acquire).
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Current writer field (Acquire); `0` means unlocked.
    #[inline]
    pub(crate) fn writer(&self) -> u64 {
        self.writer.load(Ordering::Acquire)
    }

    /// Try to acquire this stripe for commit by transaction `serial`.
    #[inline]
    pub(crate) fn try_lock(&self, serial: u64) -> bool {
        self.writer.compare_exchange(0, serial, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Release the stripe (after `stamp_release`, or unstamped when the
    /// commit failed).
    #[inline]
    pub(crate) fn unlock(&self, serial: u64) {
        let prev = self.writer.swap(0, Ordering::Release);
        debug_assert_eq!(prev, serial, "orec unlocked by non-owner");
    }

    /// Stamp the stripe with `wv`. Caller must hold the stripe and have
    /// taken `wv` from the clock after locking it, which is what makes the
    /// stripe's versions strictly increase and never lead the clock.
    #[inline]
    pub(crate) fn stamp_release(&self, wv: u64) {
        debug_assert!(
            self.version.load(Ordering::Relaxed) < wv && wv <= crate::clock::now(),
            "stamp {wv} is not above the stripe's version and at or below the clock"
        );
        self.version.store(wv, Ordering::Release);
    }

    /// Whether the stripe's version still matches `version` and the stripe
    /// is either unlocked or held by `self_serial`.
    #[inline]
    pub(crate) fn validate(&self, version: u64, self_serial: u64) -> bool {
        let w = self.writer.load(Ordering::Acquire);
        if w != 0 && w != self_serial {
            return false;
        }
        self.version.load(Ordering::Acquire) == version
    }
}

impl std::fmt::Debug for Orec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orec")
            .field("version", &self.version.load(Ordering::Relaxed))
            .field("writer", &self.writer.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_map_is_round_robin_and_replay_invariant() {
        assert!(STRIPES.is_power_of_two());
        // Sequential ids spread perfectly; ids STRIPES apart collide.
        assert_ne!(stripe_index(1), stripe_index(2));
        assert_eq!(stripe_index(7), stripe_index(7 + STRIPES as u64));
        // Pure function of the id: no per-run state.
        assert_eq!(stripe_index(41), stripe_index(41));
    }

    #[test]
    fn orecs_are_cache_line_sized_and_indexable() {
        assert_eq!(std::mem::size_of::<Orec>(), 64);
        assert_eq!(std::mem::align_of::<Orec>(), 64);
        for id in [0u64, 1, 513, u64::from(u32::MAX)] {
            assert_eq!(stripe_for(id).index(), stripe_index(id));
        }
    }

    #[test]
    fn stamp_stores_the_clock_stamp_verbatim() {
        // A private Orec (not from the table) so the test is isolated.
        let o = Orec { version: AtomicU64::new(0), writer: AtomicU64::new(0) };
        assert!(o.try_lock(1));
        for _ in 0..2 {
            let wv = crate::clock::commit_stamp();
            o.stamp_release(wv);
            assert_eq!(o.version(), wv);
        }
        o.unlock(1);
    }

    #[test]
    fn lock_excludes_and_validate_sees_owner() {
        let o = Orec { version: AtomicU64::new(3), writer: AtomicU64::new(0) };
        assert!(o.try_lock(9));
        assert!(!o.try_lock(10));
        assert!(o.validate(3, 9), "owner validates through own lock");
        assert!(!o.validate(3, 10), "stranger sees busy stripe");
        o.unlock(9);
        assert!(o.validate(3, 10));
        assert!(!o.validate(4, 10));
    }
}
