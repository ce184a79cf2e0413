//! FIRST-style crash points and the freeze-the-world crash model.
//!
//! Crash-recovery testing needs two things the chaos layer does not give
//! us: *named* instrumentation sites ("the instant after the COMMIT
//! marker reached the log") and a way to stop the durable world at one of
//! them. This module provides both, reusing the chaos crate's
//! [`Trigger`] machinery and `splitmix64` coins so crash schedules are
//! exactly as deterministic as fault schedules.
//!
//! ## The freeze model
//!
//! A real crash kills the process between two stores. Simulating that
//! with a panic would unwind through live transactions — running abort
//! compensations and releasing revocable locks, i.e. *post-crash code* —
//! and pollute the very image we want to inspect. Instead, a firing
//! crash point sets a global **frozen** flag: every simulated durable
//! mutation ([`SimFile`](crate::SimFile) appends/writes/syncs,
//! [`SimPipe`](crate::SimPipe) traffic) becomes a silent no-op from that
//! instant on. The workload keeps executing (and its late
//! acknowledgements are discounted by the checker), but the simulated
//! disk and page cache are bit-for-bit what they were at the crash
//! instant — the same durable image a kill-at-point harness would see,
//! without leaking lock or lockdep state. Notably, abort compensations
//! queued before the crash (pipe `unread`s, pending-op undo writes)
//! cannot replay into the post-crash image, because by the time they run
//! the world is frozen.
//!
//! After the harness takes the crash image
//! ([`SimFs::crash`](crate::SimFs::crash) bypasses the freeze — it *is*
//! the crash), dropping the [`Session`] guard thaws the world for the
//! recovery run.
//!
//! ## Modes
//!
//! * **Record** ([`record`]): every [`crash_point`] label is counted in
//!   first-seen order. A sweep runs the workload once in record mode to
//!   learn the crash-point universe, then once per `(label, hit)` armed.
//! * **Armed** ([`arm`]): one label carries a [`Trigger`]; on the firing
//!   hit ordinal the world freezes.
//!
//! Like the chaos and canary layers, the disarmed fast path is a single
//! relaxed atomic load, so instrumented production paths pay nothing
//! when no crash session is active. The registry is process-global;
//! tests that arm it must serialize on a gate mutex.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use txfix_stm::chaos::{fnv64, splitmix64, Trigger};

/// Fast-path gate: is any crash session (record or armed) installed?
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The world stopped here: durable mutations are no-ops while set.
static FROZEN: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Mode>> = Mutex::new(None);

enum Mode {
    Record {
        /// `(label, hits)` in first-seen order — the crash-point universe.
        seen: Vec<(String, u64)>,
    },
    Armed {
        label: String,
        seed: u64,
        trigger: Trigger,
        hits: u64,
        fired: Option<u64>,
    },
}

/// Stable 64-bit label hash (FNV-1a finished with `splitmix64`), used to
/// salt per-label trigger coins and per-file crash-image coins.
pub fn label_hash(label: &str) -> u64 {
    splitmix64(fnv64(label.as_bytes()))
}

/// An installed crash session. Dropping it disarms the registry and thaws
/// the world.
pub struct Session {
    _priv: (),
}

impl Drop for Session {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *STATE.lock().unwrap() = None;
        FROZEN.store(false, Ordering::SeqCst);
    }
}

fn install(mode: Mode) -> Session {
    let mut g = STATE.lock().unwrap();
    *g = Some(mode);
    FROZEN.store(false, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    Session { _priv: () }
}

/// Start recording crash-point labels and hit counts.
pub fn record() -> Session {
    install(Mode::Record { seen: Vec::new() })
}

/// Arm `label` with `trigger` under `seed`: the firing hit freezes the
/// world.
pub fn arm(label: &str, seed: u64, trigger: Trigger) -> Session {
    install(Mode::Armed { label: label.to_owned(), seed, trigger, hits: 0, fired: None })
}

/// The labels seen so far in record mode, with hit counts, in first-seen
/// order. Empty outside record mode.
pub fn recording() -> Vec<(String, u64)> {
    match &*STATE.lock().unwrap() {
        Some(Mode::Record { seen }) => seen.clone(),
        _ => Vec::new(),
    }
}

/// `(label, hit ordinal)` of the crash, if the armed trigger has fired.
pub fn fired() -> Option<(String, u64)> {
    match &*STATE.lock().unwrap() {
        Some(Mode::Armed { label, fired: Some(hit), .. }) => Some((label.clone(), *hit)),
        _ => None,
    }
}

/// Whether the world is frozen (a crash point has fired). Durable
/// mutations check this and become no-ops.
#[inline]
pub fn is_frozen() -> bool {
    FROZEN.load(Ordering::Relaxed)
}

/// A FIRST-style crash point: a named place where a crash may be
/// scheduled. Free on the disarmed path; in record mode it counts the
/// label, in armed mode it may freeze the world.
pub fn crash_point(label: &str) {
    if !ACTIVE.load(Ordering::Relaxed) || FROZEN.load(Ordering::Relaxed) {
        return;
    }
    let mut g = STATE.lock().unwrap();
    match g.as_mut() {
        Some(Mode::Record { seen }) => match seen.iter_mut().find(|(l, _)| l == label) {
            Some((_, n)) => *n += 1,
            None => seen.push((label.to_owned(), 1)),
        },
        Some(Mode::Armed { label: armed, seed, trigger, hits, fired }) if armed == label => {
            *hits += 1;
            if fired.is_none() && trigger.fires(*seed, label_hash(label), *hits) {
                *fired = Some(*hits);
                FROZEN.store(true, Ordering::SeqCst);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The registry is process-global; tests arming it take this gate.
    /// Exposed to sibling modules' tests via `crate::crashpoint::tests`.
    pub(crate) static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn record_mode_counts_labels_in_first_seen_order() {
        let _g = GATE.lock().unwrap();
        let s = record();
        crash_point("b");
        crash_point("a");
        crash_point("b");
        assert_eq!(recording(), vec![("b".to_owned(), 2), ("a".to_owned(), 1)]);
        drop(s);
        assert!(recording().is_empty(), "dropping the session disarms");
    }

    #[test]
    fn armed_nth_freezes_on_exact_hit_and_thaw_on_drop() {
        let _g = GATE.lock().unwrap();
        let s = arm("x", 7, Trigger::Nth(2));
        crash_point("y"); // other labels never fire
        crash_point("x");
        assert!(!is_frozen());
        crash_point("x");
        assert!(is_frozen());
        assert_eq!(fired(), Some(("x".to_owned(), 2)));
        // Further hits after the crash are not counted: the world is dead.
        crash_point("x");
        assert_eq!(fired(), Some(("x".to_owned(), 2)));
        drop(s);
        assert!(!is_frozen(), "dropping the session thaws");
        assert_eq!(fired(), None);
    }

    #[test]
    fn per_mille_coin_is_deterministic_per_seed() {
        let _g = GATE.lock().unwrap();
        let run = |seed: u64| {
            let _s = arm("p", seed, Trigger::PerMille(400));
            for _ in 0..64 {
                crash_point("p");
            }
            fired().map(|(_, hit)| hit)
        };
        assert_eq!(run(3), run(3), "same seed, same firing ordinal");
        // Label salting: a different label under the same seed draws
        // different coins (with overwhelming probability for this pair).
        let other = {
            let _s = arm("q", 3, Trigger::PerMille(400));
            for _ in 0..64 {
                crash_point("q");
            }
            fired().map(|(_, hit)| hit)
        };
        assert!(run(3).is_some() || other.is_some());
    }

    #[test]
    fn disarmed_crash_points_are_free_noops() {
        // No gate needed: nothing is armed and nothing is mutated.
        crash_point("anything");
        assert!(!is_frozen());
        assert_eq!(fired(), None);
    }
}
