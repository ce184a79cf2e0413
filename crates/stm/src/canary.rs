//! Canary mutations: deliberate bugs planted inside the runtime to
//! mutation-test the detectors (`txfix canary`).
//!
//! [`chaos`](crate::chaos) injects failures the runtime *claims to
//! survive*; this module injects failures the detectors *claim to catch*.
//! Each [`Canary`] names one mutation at a real hazard site — skip a
//! TVar write-back, drop a lock release, run a compensation twice — and
//! arming it makes the runtime misbehave in exactly the way the analysis
//! layers (analyze / lint / explore / chaos invariants) are supposed to
//! flag. A canary no layer catches is a measured detector gap, not a
//! passing test (the kimberlite canary principle: if the canary does not
//! fail, the tests are incomplete).
//!
//! ## Compiled out by default
//!
//! The whole module — and every call site, via each crate's canary
//! cargo feature — is absent from default builds: zero overhead, no
//! accidental deployment. The `stm_overhead` bench and the CI guard job
//! (which greps the default binary for canary site names) pin this.
//!
//! ## Determinism
//!
//! An armed canary fires on every hit of its site and no other site
//! fires, so a probe's misbehaviour is a function of the work alone. A
//! firing site never takes a scheduler yield or emits a trace event of
//! its own — the mutation must be exactly as silent as the bug it
//! models, or the detectors would be tipped off.

use crate::hooks::{self, Armed, CANARY};
use std::sync::atomic::{AtomicU64, Ordering};

/// One plantable runtime mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Canary {
    /// Skip one TVar write-back in the lazy commit's publish loop: the
    /// transaction reports success but the store never lands (silent
    /// lost update). Hit ordinal: one per write-set entry.
    StmSkipWriteback = 0,
    /// Skip read-set validation for one orec at commit: a transaction
    /// that raced a committed writer publishes anyway (serializability
    /// violation). Hit ordinal: one per read-set entry.
    StmSkipValidation = 1,
    /// Publish with a stale version stamp (the orec's pre-commit
    /// version instead of a fresh clock tick): concurrent readers
    /// validate against the old stamp and miss the conflict. Hit
    /// ordinal: one per lazy commit.
    StmStaleStamp = 2,
    /// Bump the retry notifier *before* the write-back loop and suppress
    /// the post-publish notification: a waiter can revalidate against
    /// unpublished state and sleep through the only wakeup. Hit ordinal:
    /// one per lazy commit.
    StmNotifyReorder = 3,
    /// Drop a `TxMutex` release on one path: the lock stays held by a
    /// finished owner and every later acquirer blocks forever. Hit
    /// ordinal: one per release.
    LockDropRelease = 4,
    /// Skip one `lockdep` order-edge record: execution is unchanged but
    /// the dynamic lock-order graph silently loses coverage. Hit
    /// ordinal: one per acquisition attempt.
    LockSkipLockdep = 5,
    /// Release-then-reacquire inside a revocation window: the abort
    /// path frees the lock early, letting a waiter slip in mid-
    /// revocation, then retakes (or double-releases) it. Hit ordinal:
    /// one per revocation.
    LockReacquireInRevoke = 6,
    /// Skip a deferred x-call action's undo: an aborted transaction
    /// leaks its pending operations. Hit ordinal: one per undo hook
    /// execution.
    XcallSkipUndo = 7,
    /// Register a compensating action twice: an aborted pipe read
    /// pushes its bytes back twice (duplication). Hit ordinal: one per
    /// compensation registration.
    XcallDoubleCompensate = 8,
    /// Let one announced op execute out of turnstile order: the
    /// scheduler records the picker's decision but runs a different
    /// ready candidate. Hit ordinal: one per perturbable decision.
    SchedOutOfTurn = 9,
    /// Pretend-success fsync in the WAL durability path: the commit-time
    /// sync application reports success but never moves the page cache
    /// to the durable image, so acknowledged commits silently stop
    /// surviving crashes (the kimberlite `canary-skip-fsync` bug class).
    /// Hit ordinal: one per deferred sync application.
    WalSkipFsync = 10,
    /// Drop the WAL's record sync before the commit marker — the FIRST
    /// reference-WAL bug (SNIPPETS §2): a crash before the final sync can
    /// persist the marker without its records, so recovery replays a torn
    /// transaction. Hit ordinal: one per logged transaction.
    WalCommitBeforeFsync = 11,
}

/// Number of canary sites.
pub const SITE_COUNT: usize = 12;

impl Canary {
    /// Every canary, in discriminant order.
    pub const ALL: [Canary; SITE_COUNT] = [
        Canary::StmSkipWriteback,
        Canary::StmSkipValidation,
        Canary::StmStaleStamp,
        Canary::StmNotifyReorder,
        Canary::LockDropRelease,
        Canary::LockSkipLockdep,
        Canary::LockReacquireInRevoke,
        Canary::XcallSkipUndo,
        Canary::XcallDoubleCompensate,
        Canary::SchedOutOfTurn,
        Canary::WalSkipFsync,
        Canary::WalCommitBeforeFsync,
    ];

    /// Stable CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Canary::StmSkipWriteback => "stm_skip_writeback",
            Canary::StmSkipValidation => "stm_skip_validation",
            Canary::StmStaleStamp => "stm_stale_stamp",
            Canary::StmNotifyReorder => "stm_notify_reorder",
            Canary::LockDropRelease => "lock_drop_release",
            Canary::LockSkipLockdep => "lock_skip_lockdep",
            Canary::LockReacquireInRevoke => "lock_reacquire_in_revoke",
            Canary::XcallSkipUndo => "xcall_skip_undo",
            Canary::XcallDoubleCompensate => "xcall_double_compensate",
            Canary::SchedOutOfTurn => "sched_out_of_turn",
            Canary::WalSkipFsync => "wal_skip_fsync",
            Canary::WalCommitBeforeFsync => "wal_commit_before_fsync",
        }
    }

    /// The mutated code path, for reports.
    pub fn site(self) -> &'static str {
        match self {
            Canary::StmSkipWriteback => "stm::txn lazy-commit publish loop",
            Canary::StmSkipValidation => "stm::txn lazy-commit read-set validation",
            Canary::StmStaleStamp => "stm::txn lazy-commit version stamp",
            Canary::StmNotifyReorder => "stm::txn commit vs retry-notifier ordering",
            Canary::LockDropRelease => "txlock::mutex release path",
            Canary::LockSkipLockdep => "txlock::lockdep attempt-edge record",
            Canary::LockReacquireInRevoke => "txlock::mutex revocation (abort) path",
            Canary::XcallSkipUndo => "xcall::file abort undo hook",
            Canary::XcallDoubleCompensate => "xcall::pipe compensation registration",
            Canary::SchedOutOfTurn => "stm::sched turnstile decision",
            Canary::WalSkipFsync => "xcall::file commit-time sync application",
            Canary::WalCommitBeforeFsync => "wal::redo record sync before the commit marker",
        }
    }
}

// ---- the armed site -------------------------------------------------------
//
// Same discipline as `chaos`: one relaxed load (the CANARY bit) on the
// disabled path, and `fire` never locks. At most one canary is armed at a
// time — a sweep probes mutations one by one, and a single armed site
// keeps every probe attributable.

static ARMED: AtomicU64 = AtomicU64::new(0); // site index + 1; 0 = none

/// Arm `canary` for the life of the returned guard ([`hooks::arm`]): its
/// site fires on every hit, every other site stays silent.
pub fn scoped(canary: Canary) -> Armed {
    // Select the site under the arming lock, before the bit is visible.
    let _exclusive = hooks::arm(0);
    ARMED.store(canary as u64 + 1, Ordering::SeqCst);
    hooks::arm(CANARY)
}

/// Ask whether `canary`'s mutation fires at this hit: whether it is the
/// armed site. `false` in one relaxed load when nothing is armed.
#[inline]
pub fn fire(canary: Canary) -> bool {
    hooks::armed(CANARY) && ARMED.load(Ordering::SeqCst) == canary as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let _g = hooks::arm(0);
        assert!(!fire(Canary::StmSkipWriteback));
    }

    #[test]
    fn only_the_armed_canary_fires() {
        let _armed = scoped(Canary::LockDropRelease);
        for c in Canary::ALL {
            let fires: Vec<bool> = (0..3).map(|_| fire(c)).collect();
            assert_eq!(fires, [c == Canary::LockDropRelease; 3], "{}", c.name());
        }
    }

    #[test]
    fn names_are_distinct_and_every_site_is_described() {
        for (i, c) in Canary::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            assert!(Canary::ALL[..i].iter().all(|d| d.name() != c.name()), "{}", c.name());
            assert!(!c.site().is_empty());
        }
    }
}
