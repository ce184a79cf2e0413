//! The version clock behind every commit (TL2 style), as a pluggable API.
//!
//! Every committed writing transaction obtains a *write stamp* and stamps
//! the ownership records it wrote. Readers obtain a *read stamp* (`rv`)
//! when they begin and use it to decide whether an observed version is
//! consistent with their linearization point. The two operations are the
//! STM's hottest shared-memory touch points, so their implementation is
//! behind the sealed [`VersionClock`] trait with two schemes:
//!
//! - [`Gv1`] — the reference scheme: one global `AtomicU64`, advanced by a
//!   `fetch_add` on every writing commit. Write stamps are globally unique
//!   and totally ordered, which makes every detector replay bit-for-bit;
//!   this is the scheme the deterministic layers (`txfix explore`,
//!   `chaos`, `canary`) pin.
//! - [`Gv5`] — the scalable scheme (after TL2's GV5 variant): writers stamp
//!   with `G + 1` *without* advancing `G`, and readers start from a
//!   thread-local epoch, so a read-only transaction touches no shared
//!   cache line at all. The clock only moves when a reader actually needs
//!   it to — a *lazy snapshot extension* `fetch_max`es `G` up to the
//!   observed version and revalidates.
//!
//! ## Safety contract (what makes shared stamps sound)
//!
//! Three rules, enforced by the commit path in `txn.rs`/`orec.rs`:
//!
//! 1. **Lock before stamping.** A writer acquires every ownership record it
//!    will write *before* loading `G` to compute its stamp. Any reader
//!    whose `rv` was obtained before those locks therefore has
//!    `rv <= G-at-lock < stamp`, so the writer's values can never be
//!    mistaken for part of that reader's snapshot. There are two stamp
//!    sites and both sit textually below their lock loop: the one
//!    `commit_stamp()` call in `Txn::commit` (optimistic and irrevocable
//!    commits share that body) and the one in `VarInner::store_direct`.
//! 2. **Per-record monotonicity.** A record is stamped with
//!    `max(stamp, old_version + 1)` ([`crate::orec::Orec::stamp_release`]),
//!    so two commits can share a global stamp but never reuse a version on
//!    the *same* record — exact-match validation stays sound.
//! 3. **Read stamps never lead the clock.** `rv` is only ever set to a
//!    value `<= G` at the time it is set ([`VersionClock::advance_to`]
//!    raises `G` first, then reads it back). Combined with rule 1, a
//!    version `<= rv` was committed by a writer whose locks predate the
//!    reader's `rv`, so accepting it without revalidation is safe.
//!
//! The rules are necessary for opacity, not sufficient: they say which
//! *versions* a reader may accept, and the read path must still pair each
//! value with the version it was committed at (`read_consistent` re-checks
//! the writer field *before* the version) and re-validate the read that
//! triggers a snapshot extension, which was sampled under the old `rv`
//! (`Txn::read_raw`). `tests/clock_modes.rs` holds the reproducer that
//! tore snapshots while any of these was missing.
//!
//! A committing GV5 writer leaves its thread epoch at a value `<= G`
//! rather than adopting its own stamp (rule 3). Its next transaction
//! re-reading those writes triggers exactly one lazy extension, which
//! publishes the stamp into `G` — that is the "lazy" in lazy snapshot
//! extension.
//!
//! ## Determinism contract
//!
//! Under the cooperative scheduler ([`crate::sched`]) a GV5 read stamp
//! comes from `G` directly instead of the thread epoch: thread-local
//! staleness would otherwise make abort points a function of scheduling
//! history outside the recorded decision trace, breaking bit-for-bit
//! replay. Schedule-controlled runs pay nothing for this — they are
//! single-stepped anyway.

use crate::sched;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The one process-global clock word. Shared by both schemes so the mode
/// can change between benchmark runs without version stamps going
/// backwards: GV1 advances it eagerly, GV5 lazily.
static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(1);

/// Selected [`ClockMode`] as a `u8` (0 = GV1, 1 = GV5).
static MODE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// GV5: the last clock value this thread is known to be allowed to
    /// read at (always `<=` the global clock at the time it was stored).
    static THREAD_EPOCH: Cell<u64> = const { Cell::new(0) };
}

mod sealed {
    pub trait Sealed {}
}

/// A version-clock scheme: how read stamps and write stamps are produced.
///
/// Sealed — the STM's safety argument depends on the contract in the
/// module docs, so the two implementations ([`Gv1`], [`Gv5`]) are the only
/// ones; external code selects between them with [`set_mode`].
pub trait VersionClock: sealed::Sealed {
    /// Read stamp for a transaction beginning now. Every version `<=` this
    /// value is safe to read without revalidation.
    fn begin_stamp(&self) -> u64;
    /// Write stamp for a commit. Must be called with the write set's
    /// ownership records already locked (rule 1 of the safety contract).
    fn commit_stamp(&self) -> u64;
    /// Lazy snapshot extension: raise the clock to at least `target` and
    /// return a fresh read stamp `>= target`. The caller must revalidate
    /// its entire read set before adopting the returned stamp.
    fn advance_to(&self, target: u64) -> u64;
    /// Current clock value (diagnostic; not a linearization point).
    fn observe(&self) -> u64;
}

/// Reference scheme: a single global counter, `fetch_add` per writing
/// commit. Unique, totally ordered stamps; the deterministic mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gv1;

/// Scalable scheme: shared stamps (`G + 1` without advancing `G`) and
/// thread-local read epochs with lazy extension. Read-only transactions
/// never write a shared cache line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gv5;

impl sealed::Sealed for Gv1 {}
impl sealed::Sealed for Gv5 {}

impl VersionClock for Gv1 {
    #[inline]
    fn begin_stamp(&self) -> u64 {
        GLOBAL_CLOCK.load(Ordering::Acquire)
    }

    #[inline]
    fn commit_stamp(&self) -> u64 {
        GLOBAL_CLOCK.fetch_add(1, Ordering::AcqRel) + 1
    }

    #[inline]
    fn advance_to(&self, _target: u64) -> u64 {
        // GV1 advances eagerly, so the clock is already past every
        // published stamp; the extension just re-reads it.
        GLOBAL_CLOCK.load(Ordering::Acquire)
    }

    #[inline]
    fn observe(&self) -> u64 {
        GLOBAL_CLOCK.load(Ordering::Acquire)
    }
}

impl VersionClock for Gv5 {
    #[inline]
    fn begin_stamp(&self) -> u64 {
        if sched::is_controlled() {
            // Determinism contract (module docs): no thread-local staleness
            // under the cooperative scheduler.
            return GLOBAL_CLOCK.load(Ordering::Acquire);
        }
        THREAD_EPOCH.with(|e| e.get())
    }

    #[inline]
    fn commit_stamp(&self) -> u64 {
        // Shared stamp: G + 1 without the fetch_add. Sound because the
        // caller holds its write-set locks (rule 1) and records bump
        // per-location (rule 2).
        GLOBAL_CLOCK.load(Ordering::Acquire) + 1
    }

    #[inline]
    fn advance_to(&self, target: u64) -> u64 {
        // Raise G first, then read it back: the returned rv is `<= G`
        // at the moment it is adopted (rule 3).
        GLOBAL_CLOCK.fetch_max(target, Ordering::AcqRel);
        let rv = GLOBAL_CLOCK.load(Ordering::Acquire);
        THREAD_EPOCH.with(|e| e.set(rv));
        rv
    }

    #[inline]
    fn observe(&self) -> u64 {
        GLOBAL_CLOCK.load(Ordering::Acquire)
    }
}

/// Which [`VersionClock`] scheme the runtime is using.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// The [`Gv1`] reference scheme (deterministic; the default).
    #[default]
    Gv1,
    /// The [`Gv5`] scalable scheme.
    Gv5,
}

impl ClockMode {
    /// Stable lower-case name (`"gv1"` / `"gv5"`), as used by the stress
    /// schema and CLI.
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Gv1 => "gv1",
            ClockMode::Gv5 => "gv5",
        }
    }

    /// Parse a [`ClockMode`] from its [`name`](ClockMode::name).
    pub fn parse(s: &str) -> Option<ClockMode> {
        match s {
            "gv1" => Some(ClockMode::Gv1),
            "gv5" => Some(ClockMode::Gv5),
            _ => None,
        }
    }
}

/// Select the clock scheme process-wide.
///
/// Safe at any point — in-flight transactions finish under whichever rules
/// they observe, and both schemes share the one monotone clock word — but
/// intended for quiescent points between benchmark runs. The deterministic
/// sweeps (`explore`/`chaos`/`canary`) assume the default [`ClockMode::Gv1`].
pub fn set_mode(mode: ClockMode) {
    MODE.store(mode as u8, Ordering::SeqCst);
}

/// The currently selected clock scheme.
pub fn mode() -> ClockMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ClockMode::Gv1,
        _ => ClockMode::Gv5,
    }
}

/// Reset the calling thread's GV5 epoch. Called when a thread registers
/// with the deterministic scheduler so cross-run thread reuse cannot leak
/// clock state into a schedule (belt and braces on top of the
/// scheduler-mode bypass in [`Gv5::begin_stamp`]).
pub(crate) fn reset_thread_epoch() {
    THREAD_EPOCH.with(|e| e.set(0));
}

macro_rules! dispatch {
    ($method:ident($($arg:expr),*)) => {
        match MODE.load(Ordering::Relaxed) {
            0 => Gv1.$method($($arg),*),
            _ => Gv5.$method($($arg),*),
        }
    };
}

/// Read stamp for a transaction beginning now (mode-dispatched).
#[inline]
pub(crate) fn begin_stamp() -> u64 {
    dispatch!(begin_stamp())
}

/// Write stamp for a commit whose orecs are already locked.
#[inline]
pub(crate) fn commit_stamp() -> u64 {
    dispatch!(commit_stamp())
}

/// Lazy snapshot extension to at least `target`; caller revalidates.
#[inline]
pub(crate) fn advance_to(target: u64) -> u64 {
    dispatch!(advance_to(target))
}

/// Current clock value (diagnostic).
#[inline]
pub(crate) fn now() -> u64 {
    dispatch!(observe())
}

#[cfg(test)]
mod tests {
    // The clock word is process-global and the unit-test binary runs tests
    // concurrently, so every assertion here is relative (monotonicity,
    // bounds) rather than an exact equality on global state.
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn gv1_commit_stamp_is_strictly_greater_than_previous_begin() {
        let before = Gv1.begin_stamp();
        let t = Gv1.commit_stamp();
        assert!(t > before);
        assert!(Gv1.observe() >= t);
    }

    #[test]
    fn gv1_concurrent_stamps_are_unique() {
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    for _ in 0..1000 {
                        local.push(Gv1.commit_stamp());
                    }
                    let mut g = seen.lock().unwrap();
                    for v in local {
                        assert!(g.insert(v), "duplicate version {v}");
                    }
                });
            }
        });
    }

    #[test]
    fn gv5_commit_stamp_leads_every_prior_observation() {
        let g0 = Gv5.observe();
        let s = Gv5.commit_stamp();
        assert!(s > g0);
    }

    #[test]
    fn gv5_extension_reaches_target_and_never_leads_clock() {
        let s = Gv5.commit_stamp();
        let rv = Gv5.advance_to(s);
        assert!(rv >= s, "extension must reach the target");
        assert!(rv <= Gv5.observe(), "rv must not lead the clock (rule 3)");
        // The thread epoch was updated: a fresh begin stamp on this thread
        // now sees at least the extension target.
        assert!(Gv5.begin_stamp() >= s);
    }

    #[test]
    fn gv5_begin_stamp_never_leads_clock() {
        let _ = Gv5.advance_to(Gv5.commit_stamp());
        for _ in 0..100 {
            assert!(Gv5.begin_stamp() <= Gv5.observe());
        }
    }

    #[test]
    fn thread_epoch_reset_drops_begin_stamp_to_zero() {
        let _ = Gv5.advance_to(Gv5.commit_stamp());
        assert!(Gv5.begin_stamp() > 0);
        reset_thread_epoch();
        assert_eq!(THREAD_EPOCH.with(|e| e.get()), 0);
    }

    #[test]
    fn mode_names_roundtrip() {
        for m in [ClockMode::Gv1, ClockMode::Gv5] {
            assert_eq!(ClockMode::parse(m.name()), Some(m));
        }
        assert_eq!(ClockMode::parse("gv7"), None);
        assert_eq!(ClockMode::default().name(), "gv1");
    }
}
