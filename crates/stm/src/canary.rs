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
//! Arming reuses the [`chaos`](crate::chaos) ordinal machinery: each site
//! keeps a hit counter and the decision for hit `k` is
//! [`Trigger::fires`] salted with the site's `SITE_SALT`, so a
//! fixed `(canary, seed, trigger)` fires on a fixed set of ordinals. A
//! firing site never takes a scheduler yield or emits a trace event of
//! its own — the mutation must be exactly as silent as the bug it
//! models, or the detectors would be tipped off.

use crate::chaos::Trigger;
use crate::hooks::{self, Armed, CANARY};
use std::sync::atomic::{AtomicU64, Ordering};

/// One plantable runtime mutation.
///
/// The discriminant doubles as the index into the arming tables, so the
/// list is append-only.
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

/// Number of canary sites (size of the arming tables).
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

    /// Table index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

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

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Canary> {
        Canary::ALL.into_iter().find(|c| c.name() == s)
    }
}

// ---- the arming tables ----------------------------------------------------
//
// Same discipline as `chaos`: one relaxed load (the CANARY bit) on the
// disabled path, per-site atomics for the armed trigger so `fire` never
// locks. At most one canary is armed at a time — a sweep probes mutations
// one by one, and a single armed site keeps every probe attributable.

static ARMED: AtomicU64 = AtomicU64::new(0); // site index + 1; 0 = none
static SEED: AtomicU64 = AtomicU64::new(0);
static KIND: AtomicU64 = AtomicU64::new(0); // 1/2/3 = PerMille/Nth/EveryNth
static VALUE: AtomicU64 = AtomicU64::new(0);
static HITS: [AtomicU64; SITE_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; SITE_COUNT]
};
static FIRED: [AtomicU64; SITE_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; SITE_COUNT]
};

/// Per-site salt so one seed draws independent per-mille coins at
/// different sites (mirrors `chaos::POINT_SALT`).
static SITE_SALT: [u64; SITE_COUNT] = [
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x9E37_79B9_85EB_CA87,
    0x85EB_CA6B_C2B2_AE35,
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
    0x2545_F491_4F6C_DD1D,
    0x9E6C_63D0_876A_3F6B,
    0xD1B5_4A32_D192_ED03,
    0x2BB6_863E_4098_BD1D,
    0x94D0_49BB_1331_11EB,
];

/// Arm `canary` with `trigger` under `seed` for the life of the returned
/// guard ([`hooks::arm`]), zeroing all hit/fired counters.
pub fn scoped(canary: Canary, seed: u64, trigger: Trigger) -> Armed {
    // Select the site under the arming lock, before the bit is visible.
    let _exclusive = hooks::arm(0);
    for i in 0..SITE_COUNT {
        HITS[i].store(0, Ordering::SeqCst);
        FIRED[i].store(0, Ordering::SeqCst);
    }
    let (kind, value) = trigger.encode();
    SEED.store(seed, Ordering::SeqCst);
    KIND.store(kind, Ordering::SeqCst);
    VALUE.store(value, Ordering::SeqCst);
    ARMED.store(canary.index() as u64 + 1, Ordering::SeqCst);
    hooks::arm(CANARY)
}

/// Ask whether `canary`'s mutation should fire at this hit. Counts the
/// hit and evaluates the armed trigger; `false` in one relaxed load when
/// nothing is armed (and always when a different canary is armed).
#[inline]
pub fn fire(canary: Canary) -> bool {
    hooks::armed(CANARY) && fire_slow(canary)
}

#[cold]
fn fire_slow(canary: Canary) -> bool {
    let i = canary.index();
    if ARMED.load(Ordering::SeqCst) != i as u64 + 1 {
        return false;
    }
    let hit = HITS[i].fetch_add(1, Ordering::SeqCst) + 1;
    let fires = Trigger::decode(KIND.load(Ordering::SeqCst), VALUE.load(Ordering::SeqCst))
        .is_some_and(|t| t.fires(SEED.load(Ordering::SeqCst), SITE_SALT[i], hit));
    if fires {
        FIRED[i].fetch_add(1, Ordering::SeqCst);
    }
    fires
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
        let _armed = scoped(Canary::LockDropRelease, 0, Trigger::EveryNth(1));
        assert!(fire(Canary::LockDropRelease));
        assert!(!fire(Canary::StmSkipWriteback), "a different site must stay silent");
        let i = Canary::LockDropRelease.index();
        assert_eq!((HITS[i].load(Ordering::SeqCst), FIRED[i].load(Ordering::SeqCst)), (1, 1));
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _armed = scoped(Canary::StmStaleStamp, 9, Trigger::Nth(3));
        let fires: Vec<bool> = (0..6).map(|_| fire(Canary::StmStaleStamp)).collect();
        assert_eq!(fires, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn per_mille_is_a_pure_function_of_seed_and_ordinal() {
        let run = |seed| {
            let _armed = scoped(Canary::SchedOutOfTurn, seed, Trigger::PerMille(500));
            (0..64).map(|_| fire(Canary::SchedOutOfTurn)).collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same firing ordinals");
        assert_ne!(run(7), run(8), "different seeds draw different coins");
    }

    #[test]
    fn names_round_trip() {
        for c in Canary::ALL {
            assert_eq!(Canary::parse(c.name()), Some(c));
            assert!(!c.site().is_empty());
        }
        assert_eq!(Canary::parse("nope"), None);
    }
}
