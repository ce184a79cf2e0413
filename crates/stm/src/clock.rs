//! The global version clock behind every commit (TL2 style).
//!
//! Every committed writing transaction obtains a *write stamp* and stamps
//! the ownership records it wrote. Readers obtain a *read stamp* (`rv`)
//! when they begin and use it to decide whether an observed version is
//! consistent with their linearization point. The clock is one global
//! `AtomicU64`, advanced by a `fetch_add` on every writing commit, so
//! write stamps are globally unique and totally ordered.
//!
//! ## Safety contract (what makes the stamps sound)
//!
//! **Lock before stamping.** A writer acquires every ownership record it
//! will write *before* it takes its stamp. Any reader whose `rv` was
//! obtained before those locks therefore has `rv <= G-at-lock < stamp`,
//! so the writer's values can never be mistaken for part of that reader's
//! snapshot. There are two stamp sites and both sit textually below their
//! lock loop: the one `commit_stamp()` call in `Txn::commit` (optimistic
//! and irrevocable commits share that body) and the one in
//! `VarInner::store_direct`. Because the clock has already moved when the
//! stamp is stored, a stripe's version never leads the clock
//! ([`crate::orec::Orec::stamp_release`] asserts it): a version `<= rv` was
//! committed by a writer whose locks predate the reader's `rv`, so
//! accepting it without revalidation is safe, and a version `> rv` is
//! always reachable by re-reading the clock.
//!
//! The rule is necessary for opacity, not sufficient: it says which
//! *versions* a reader may accept, and the read path must still pair each
//! value with the version it was committed at (`read_consistent` re-checks
//! the writer field *before* the version) and re-validate the read that
//! triggers a snapshot extension, which was sampled under the old `rv`
//! (`Txn::read_raw`). `tests/opacity.rs` holds the reproducer that tore
//! snapshots while any of these was missing.

use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(1);

/// Read stamp for a transaction beginning now. Every version `<=` this
/// value is safe to read without revalidation.
#[inline]
pub(crate) fn begin_stamp() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Write stamp for a commit. Must be called with the write set's
/// ownership records already locked (see the module docs).
#[inline]
pub(crate) fn commit_stamp() -> u64 {
    GLOBAL_CLOCK.fetch_add(1, Ordering::AcqRel) + 1
}

/// Current clock value. A snapshot extension adopts it as the new `rv`
/// after revalidating the read set.
#[inline]
pub(crate) fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    // The clock word is process-global and the unit-test binary runs tests
    // concurrently, so every assertion here is relative (monotonicity,
    // bounds) rather than an exact equality on global state.
    use super::*;
    use crate::{atomic, TVar, Txn};
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn commit_stamp_is_strictly_greater_than_previous_begin() {
        let before = begin_stamp();
        let t = commit_stamp();
        assert!(t > before);
        assert!(now() >= t);
    }

    #[test]
    fn concurrent_stamps_are_unique() {
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let local: Vec<u64> = (0..1000).map(|_| commit_stamp()).collect();
                    let mut g = seen.lock().unwrap();
                    for v in local {
                        assert!(g.insert(v), "duplicate version {v}");
                    }
                });
            }
        });
    }

    #[test]
    fn no_stripe_version_leads_the_clock_after_a_commit_burst() {
        let vars: Vec<TVar<u64>> = (0..4).map(|_| TVar::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..3usize {
                let vars = &vars;
                s.spawn(move || {
                    for i in 0..500usize {
                        let (a, b) = (&vars[(t + i) % 4], &vars[(t + i + 1) % 4]);
                        atomic(|txn| {
                            let x = a.read(txn)?;
                            b.modify(txn, |y| y + x + 1)
                        });
                        a.store(i as u64);
                    }
                });
            }
        });
        for v in &vars {
            let version = crate::orec::stripe_for(v.id().0).version();
            assert!(version <= now(), "stripe at {version} leads the clock at {}", now());
            let (_, report) = Txn::build().run(|txn| v.read(txn));
            assert_eq!(report.attempts, 1);
        }
    }
}
