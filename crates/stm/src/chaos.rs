//! Deterministic fault injection: the adversarial twin of [`obs`].
//!
//! The stress harness (PR 3) measures how the runtime behaves under load; it
//! cannot make the ugly paths *happen on demand*. A read-set validation
//! failure in the middle of write-back, a TxLock revoked while its holder is
//! blocked, an x-call whose underlying I/O fails after the compensation hook
//! is registered — these paths are exactly where Recipes 1–3 earn their
//! keep, and exactly where a scheduling accident is needed to reach them.
//! This module replaces the accident with a plan.
//!
//! A [`FaultPlan`] names a set of [injection points](InjectionPoint) — fixed
//! places the runtime, `txfix-txlock` and `txfix-xcall` ask
//! [`should_inject`] whether to fail — and gives each one a [`Trigger`]:
//! fire on the nth hit, every nth hit, or with a seeded per-mille
//! probability. [`scoped`] installs a plan and arms the points process-wide
//! (the [`CHAOS`] bit of the [`hooks`] word) for the life of its guard.
//!
//! ## Determinism
//!
//! Probabilistic triggers do **not** consult a stateful RNG. Each point
//! keeps a hit counter, and the decision for hit `k` is a pure hash of
//! `(plan seed, point, k)` — so for a fixed seed, the *set of hit ordinals
//! that fail* at each point is fixed before the run starts. Thread
//! interleaving decides which thread draws ordinal `k`, not whether ordinal
//! `k` fails. This is what lets `txfix chaos --seed <s>` make bit-for-bit
//! reproducible reports: the report only contains facts that are functions
//! of the plan and the work, never of the interleaving.
//!
//! ## Cost when disabled
//!
//! Same contract as every [`hooks`] layer: with no plan armed every
//! [`should_inject`] call is a single relaxed load of the arming word and
//! an immediate `false`. The `stm_overhead` criterion bench covers this
//! path.
//!
//! ## What injection means at each point
//!
//! Injected faults are always mapped onto failures the runtime already
//! claims to survive — a forced [`Abort`](crate::Abort) or a synthetic OS
//! error — never memory unsafety. Irrevocable transactions are exempt by
//! construction (the call sites skip injection once a transaction cannot
//! roll back, mirroring how kills are ignored). See DESIGN.md §8 for the
//! full inventory.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hooks::{self, Armed, CHAOS};
use crate::obs;

/// A fixed place in the runtime where a fault can be injected.
///
/// The discriminant doubles as the index into the global arming tables, so
/// the list is append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum InjectionPoint {
    /// Force an abort before a transaction attempt runs its body (models a
    /// conflict detected at begin).
    TxnBegin = 0,
    /// Force a read-set validation failure on a transactional read.
    TxnRead = 1,
    /// Force a validation-failure abort on entry to commit.
    TxnPreCommit = 2,
    /// Force an abort *inside* commit, after validation, with orecs locked
    /// and nothing published yet.
    TxnWriteback = 3,
    /// Make a revocable-lock acquisition fail as if the caller had been
    /// chosen as a deadlock victim.
    LockAcquire = 4,
    /// Delay a revocable-lock acquisition (widens race windows).
    LockDelay = 5,
    /// Spuriously revoke a just-acquired lock: the caller aborts and the
    /// abort path must release the lock it already holds.
    LockRevoke = 6,
    /// Fail a transactional file operation with a synthetic I/O error.
    XcallFile = 7,
    /// Fail a transactional pipe/socket operation: a deferred write
    /// aborts its attempt, a compensated read sees a spurious "would
    /// block" (`None`).
    XcallPipe = 8,
    /// Fail an async-I/O submission before it is enlisted.
    XcallAsync = 9,
}

/// Number of injection points (size of the arming tables).
pub const POINT_COUNT: usize = 10;

impl InjectionPoint {
    /// Every point, in discriminant order.
    pub const ALL: [InjectionPoint; POINT_COUNT] = [
        InjectionPoint::TxnBegin,
        InjectionPoint::TxnRead,
        InjectionPoint::TxnPreCommit,
        InjectionPoint::TxnWriteback,
        InjectionPoint::LockAcquire,
        InjectionPoint::LockDelay,
        InjectionPoint::LockRevoke,
        InjectionPoint::XcallFile,
        InjectionPoint::XcallPipe,
        InjectionPoint::XcallAsync,
    ];

    /// Stable machine-readable name (used in reports and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::TxnBegin => "txn_begin",
            InjectionPoint::TxnRead => "txn_read",
            InjectionPoint::TxnPreCommit => "txn_pre_commit",
            InjectionPoint::TxnWriteback => "txn_writeback",
            InjectionPoint::LockAcquire => "lock_acquire",
            InjectionPoint::LockDelay => "lock_delay",
            InjectionPoint::LockRevoke => "lock_revoke",
            InjectionPoint::XcallFile => "xcall_file",
            InjectionPoint::XcallPipe => "xcall_pipe",
            InjectionPoint::XcallAsync => "xcall_async",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// When an armed point actually fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on hit `k` iff `hash(seed, salt, k) % 1000 < per_mille` — a
    /// seeded coin whose outcomes are fixed per ordinal, not per thread.
    PerMille(u32),
    /// Fire on exactly the nth hit (1-based), once.
    Nth(u64),
    /// Fire on every nth hit (n ≥ 1).
    EveryNth(u64),
}

impl Trigger {
    /// Whether hit ordinal `hit` (1-based) fires under seed `seed` at the
    /// point salted by `salt`. Pure: same arguments, same answer.
    fn fires(self, seed: u64, salt: u64, hit: u64) -> bool {
        match self {
            Trigger::PerMille(p) => (splitmix64(seed ^ salt ^ hit) % 1000) < u64::from(p.min(1000)),
            Trigger::Nth(n) => hit == n.max(1),
            Trigger::EveryNth(n) => hit.is_multiple_of(n.max(1)),
        }
    }

    /// The `(kind, value)` pair the lock-free arming tables store; kind 0
    /// is "unarmed".
    fn encode(self) -> (u64, u64) {
        match self {
            Trigger::PerMille(p) => (1, u64::from(p)),
            Trigger::Nth(n) => (2, n),
            Trigger::EveryNth(n) => (3, n),
        }
    }

    /// Inverse of [`encode`](Trigger::encode); `None` when unarmed.
    fn decode(kind: u64, value: u64) -> Option<Trigger> {
        match kind {
            1 => Some(Trigger::PerMille(value as u32)),
            2 => Some(Trigger::Nth(value)),
            3 => Some(Trigger::EveryNth(value)),
            _ => None,
        }
    }
}

/// A seeded, deterministic schedule of faults: one optional [`Trigger`] per
/// [`InjectionPoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rules: [Option<Trigger>; POINT_COUNT],
}

impl FaultPlan {
    /// An empty plan (no points armed) under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: [None; POINT_COUNT] }
    }

    /// Arm `point` with `trigger` (builder style).
    pub fn with(mut self, point: InjectionPoint, trigger: Trigger) -> FaultPlan {
        self.rules[point.index()] = Some(trigger);
        self
    }

    /// The plan the [`SCHEDULES`] row called `name` arms under `seed`, or
    /// `None` for a name the table does not hold.
    pub fn named(name: &str, seed: u64) -> Option<FaultPlan> {
        let (_, rules) = SCHEDULES.iter().find(|(n, _)| *n == name)?;
        Some(rules.iter().fold(FaultPlan::new(seed), |plan, &(point, t)| plan.with(point, t)))
    }
}

/// Every named fault schedule a sweep can run against, keyed by the stable
/// name its report carries: the corpus chaos sweep runs the first five, the
/// crash engine composes its crash points with `xcall_faults`.
pub const SCHEDULES: &[(&str, &[(InjectionPoint, Trigger)])] = &[
    // Control: chaos layer armed but no point fires, so any invariant
    // break here is the workload's own bug.
    ("baseline", &[]),
    (
        "txn_faults",
        &[
            (InjectionPoint::TxnBegin, Trigger::PerMille(50)),
            (InjectionPoint::TxnRead, Trigger::PerMille(15)),
        ],
    ),
    (
        "commit_faults",
        &[
            (InjectionPoint::TxnPreCommit, Trigger::EveryNth(7)),
            (InjectionPoint::TxnWriteback, Trigger::PerMille(30)),
        ],
    ),
    (
        "lock_faults",
        &[
            (InjectionPoint::LockAcquire, Trigger::PerMille(30)),
            (InjectionPoint::LockDelay, Trigger::PerMille(80)),
            (InjectionPoint::LockRevoke, Trigger::PerMille(30)),
        ],
    ),
    (
        "io_faults",
        &[
            (InjectionPoint::XcallFile, Trigger::PerMille(40)),
            (InjectionPoint::XcallPipe, Trigger::PerMille(60)),
            (InjectionPoint::XcallAsync, Trigger::PerMille(40)),
        ],
    ),
    // Transactions restart mid-protocol while crash points are armed.
    ("xcall_faults", &[(InjectionPoint::XcallFile, Trigger::EveryNth(7))]),
];

// ---- the arming tables ----------------------------------------------------
//
// A plan is installed by flattening it into per-point atomics, so the hot
// path never takes a lock: kind 0 = disarmed, 1/2/3 = PerMille/Nth/EveryNth
// with the parameter in VALUES. The CHAOS bit is the one relaxed load every
// disabled call pays.

static SEED: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)] // const used only as array initializer
const ZERO: AtomicU64 = AtomicU64::new(0);

static KINDS: [AtomicU64; POINT_COUNT] = [ZERO; POINT_COUNT];
static VALUES: [AtomicU64; POINT_COUNT] = [ZERO; POINT_COUNT];
static HITS: [AtomicU64; POINT_COUNT] = [ZERO; POINT_COUNT];
static INJECTED: [AtomicU64; POINT_COUNT] = [ZERO; POINT_COUNT];

/// Per-point salt so the same hit ordinal draws independent coins at
/// different points under one seed.
static POINT_SALT: [u64; POINT_COUNT] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
    0x5899_65CC_7537_4CC3,
    0x1D8E_4E27_C47D_124F,
    0xEB44_ACCA_B455_D165,
];

/// SplitMix64 finalizer: the deterministic coin behind
/// [`Trigger::PerMille`] and the recommended way to derive per-worker seeds
/// from a run seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Streaming FNV-1a: [`write`](Fnv64::write) the bytes in any number of
/// pieces, and [`finish`](Fnv64::finish) is the hash of their
/// concatenation. The stable hash behind checkpoint checksums, key
/// placement and crash-point label salts. Plain integer arithmetic:
/// deterministic on every platform.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Nothing written yet: [`finish`](Fnv64::finish) is the hash of no
    /// bytes.
    pub const EMPTY: Fnv64 = Fnv64(0xcbf2_9ce4_8422_2325);

    /// Hash `bytes` after everything written so far.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// [`Fnv64`] over `bytes` in one piece.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::EMPTY;
    h.write(bytes);
    h.finish()
}

/// Install `plan` process-wide, zeroing the hit and injection counters
/// (kept until the next install), and arm it for the life of the
/// returned guard. An empty plan still arms the layer (hits are counted).
pub fn scoped(plan: &FaultPlan) -> Armed {
    // Fill the tables under the arming lock, before the bit is visible.
    let _exclusive = hooks::arm(0);
    SEED.store(plan.seed, Ordering::SeqCst);
    for i in 0..POINT_COUNT {
        let (kind, value) = match plan.rules[i] {
            Some(t) => t.encode(),
            None => (0, 0),
        };
        KINDS[i].store(kind, Ordering::SeqCst);
        VALUES[i].store(value, Ordering::SeqCst);
        HITS[i].store(0, Ordering::SeqCst);
        INJECTED[i].store(0, Ordering::SeqCst);
    }
    hooks::arm(CHAOS)
}

/// Ask whether the fault armed at `point` fires now. Counts a hit against
/// the point either way (when armed), bumps the point's injected counter
/// and the current obs site's `faults_injected` when it fires. With no plan
/// armed this is one relaxed load and `false`.
#[inline]
pub fn should_inject(point: InjectionPoint) -> bool {
    hooks::armed(CHAOS) && should_inject_slow(point)
}

#[cold]
fn should_inject_slow(point: InjectionPoint) -> bool {
    let i = point.index();
    let kind = KINDS[i].load(Ordering::Relaxed);
    if kind == 0 {
        return false;
    }
    // An armed injection point is a schedulable step: under the
    // deterministic scheduler, *where* a fault lands relative to other
    // threads' operations is itself a schedule dimension.
    crate::sched::yield_point(crate::sched::SyncOp::ChaosPoint(i as u32));
    let Some(trigger) = Trigger::decode(kind, VALUES[i].load(Ordering::Relaxed)) else {
        return false;
    };
    let hit = HITS[i].fetch_add(1, Ordering::Relaxed) + 1;
    if !trigger.fires(SEED.load(Ordering::Relaxed), POINT_SALT[i], hit) {
        return false;
    }
    INJECTED[i].fetch_add(1, Ordering::Relaxed);
    obs::note_fault_injected();
    true
}

/// Hit and injection counts for one point since the last [`scoped`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointStats {
    /// The point.
    pub point: InjectionPoint,
    /// Times the armed point was consulted.
    pub hits: u64,
    /// Times it fired.
    pub injected: u64,
}

/// Counters for every point, in discriminant order.
pub fn point_stats() -> Vec<PointStats> {
    InjectionPoint::ALL
        .into_iter()
        .map(|point| PointStats {
            point,
            hits: HITS[point.index()].load(Ordering::Relaxed),
            injected: INJECTED[point.index()].load(Ordering::Relaxed),
        })
        .collect()
}

/// Total faults injected across all points since the last [`scoped`].
pub fn injected_total() -> u64 {
    INJECTED.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pure trigger/plan logic only: tests that *install* plans live in the
    // dedicated integration binaries (tests/chaos.rs and friends), because
    // the arming tables are process-global and unit tests run in parallel.

    fn salt(point: InjectionPoint) -> u64 {
        POINT_SALT[point.index()]
    }

    #[test]
    fn points_are_listed_in_discriminant_order_with_distinct_names() {
        for (i, p) in InjectionPoint::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(InjectionPoint::ALL[..i].iter().all(|q| q.name() != p.name()), "{}", p.name());
        }
    }

    #[test]
    fn nth_fires_exactly_once() {
        let t = Trigger::Nth(3);
        let fired: Vec<u64> =
            (1..=10).filter(|&k| t.fires(7, salt(InjectionPoint::TxnBegin), k)).collect();
        assert_eq!(fired, vec![3]);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let t = Trigger::EveryNth(4);
        let fired: Vec<u64> =
            (1..=12).filter(|&k| t.fires(7, salt(InjectionPoint::TxnRead), k)).collect();
        assert_eq!(fired, vec![4, 8, 12]);
        // n = 0 is clamped to 1, not a division by zero.
        assert!(Trigger::EveryNth(0).fires(7, salt(InjectionPoint::TxnRead), 1));
    }

    #[test]
    fn per_mille_is_a_pure_function_of_seed_point_and_hit() {
        let t = Trigger::PerMille(300);
        let draw = |seed| {
            (1u64..=200).filter(|&k| t.fires(seed, salt(InjectionPoint::TxnPreCommit), k)).count()
        };
        let a: Vec<bool> =
            (1u64..=200).map(|k| t.fires(42, salt(InjectionPoint::TxnPreCommit), k)).collect();
        let b: Vec<bool> =
            (1u64..=200).map(|k| t.fires(42, salt(InjectionPoint::TxnPreCommit), k)).collect();
        assert_eq!(a, b, "same seed, same outcome sequence");
        // Roughly 30% of 200 draws should fire; allow a wide band.
        let n = draw(42);
        assert!((20..=100).contains(&n), "got {n} fires out of 200 at 30%");
        // Different points draw independent coins under one seed.
        let other: Vec<bool> =
            (1u64..=200).map(|k| t.fires(42, salt(InjectionPoint::TxnWriteback), k)).collect();
        assert_ne!(a, other);
    }

    #[test]
    fn per_mille_extremes() {
        assert!(!Trigger::PerMille(0).fires(9, salt(InjectionPoint::XcallFile), 1));
        for k in 1..=50 {
            assert!(Trigger::PerMille(1000).fires(9, salt(InjectionPoint::XcallFile), k));
            // Values above 1000 clamp to "always".
            assert!(Trigger::PerMille(5000).fires(9, salt(InjectionPoint::XcallFile), k));
        }
    }

    #[test]
    fn plan_builder_arms_points() {
        let plan = FaultPlan::new(11)
            .with(InjectionPoint::TxnBegin, Trigger::Nth(1))
            .with(InjectionPoint::XcallPipe, Trigger::PerMille(50));
        let mut rules = [None; POINT_COUNT];
        rules[InjectionPoint::TxnBegin.index()] = Some(Trigger::Nth(1));
        rules[InjectionPoint::XcallPipe.index()] = Some(Trigger::PerMille(50));
        assert_eq!(plan, FaultPlan { seed: 11, rules });
        assert_ne!(plan, FaultPlan::new(11), "an armed plan differs from the empty one");
    }

    #[test]
    fn named_schedules_resolve_through_the_table() {
        let by_hand = FaultPlan::new(7)
            .with(InjectionPoint::TxnBegin, Trigger::PerMille(50))
            .with(InjectionPoint::TxnRead, Trigger::PerMille(15));
        assert_eq!(FaultPlan::named("txn_faults", 7), Some(by_hand));
        assert_eq!(FaultPlan::named("baseline", 7), Some(FaultPlan::new(7)));
        assert_eq!(FaultPlan::named("nope", 7), None);
    }

    #[test]
    fn splitmix64_is_stable() {
        // Reference values pin the hash so reports stay comparable across
        // builds; changing them is a report-format break.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn fnv64_is_stable_and_streams_in_any_split() {
        // Published FNV-1a vectors: checksums and key placement are on
        // disk and in reports.
        assert_eq!([fnv64(b""), fnv64(b"a")], [0xcbf2_9ce4_8422_2325, 0xaf63_dc4c_8601_ec8c]);
        let bytes: Vec<u8> = (0..200u8).collect();
        for cut in [0, 1, 64, 200] {
            let mut h = Fnv64::EMPTY;
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), fnv64(&bytes), "cut {cut}");
        }
    }
}
