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
//! the crash), dropping the session's guard thaws the world for the
//! recovery run: the freeze only holds while the [`CRASH`] bit is armed.
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
//! relaxed load of the `txfix_stm::hooks` word's [`CRASH`] bit, so
//! instrumented production paths pay nothing when no crash session is
//! active. The registry is process-global: a session is an
//! [`Armed`] guard, and the arming lock behind it keeps sessions apart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use txfix_stm::chaos::{fnv64, splitmix64, Trigger};
use txfix_stm::hooks::{self, Armed, CRASH};

/// The world stopped here: durable mutations are no-ops while set (and
/// the session is armed).
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

/// Install `mode` as the crash session for the life of the returned guard.
fn install(mode: Mode) -> Armed {
    // Reset the registry under the arming lock, before the bit is visible.
    let _exclusive = hooks::arm(0);
    *STATE.lock().unwrap() = Some(mode);
    FROZEN.store(false, Ordering::SeqCst);
    hooks::arm(CRASH)
}

/// Start recording crash-point labels and hit counts.
pub fn record() -> Armed {
    install(Mode::Record { seen: Vec::new() })
}

/// Arm `label` with `trigger` under `seed`: the firing hit freezes the
/// world.
pub fn arm(label: &str, seed: u64, trigger: Trigger) -> Armed {
    install(Mode::Armed { label: label.to_owned(), seed, trigger, hits: 0, fired: None })
}

/// The labels the last record session has seen, with hit counts, in
/// first-seen order. Empty after an armed session.
pub fn recording() -> Vec<(String, u64)> {
    match &*STATE.lock().unwrap() {
        Some(Mode::Record { seen }) => seen.clone(),
        _ => Vec::new(),
    }
}

/// `(label, hit ordinal)` of the crash, if the last armed session fired.
pub fn fired() -> Option<(String, u64)> {
    match &*STATE.lock().unwrap() {
        Some(Mode::Armed { label, fired: Some(hit), .. }) => Some((label.clone(), *hit)),
        _ => None,
    }
}

/// Whether the world is frozen (a crash point of the armed session has
/// fired). Durable mutations check this and become no-ops.
#[inline]
pub fn is_frozen() -> bool {
    hooks::armed(CRASH) && FROZEN.load(Ordering::Relaxed)
}

/// A FIRST-style crash point: a named place where a crash may be
/// scheduled. Free on the disarmed path; in record mode it counts the
/// label, in armed mode it may freeze the world.
#[inline]
pub fn crash_point(label: &str) {
    if hooks::armed(CRASH) {
        crash_point_slow(label);
    }
}

#[cold]
fn crash_point_slow(label: &str) {
    if FROZEN.load(Ordering::Relaxed) {
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
mod tests {
    use super::*;

    #[test]
    fn record_mode_counts_labels_in_first_seen_order() {
        let _session = record();
        crash_point("b");
        crash_point("a");
        crash_point("b");
        assert_eq!(recording(), vec![("b".to_owned(), 2), ("a".to_owned(), 1)]);
    }

    #[test]
    fn armed_nth_freezes_on_exact_hit_and_thaw_on_drop() {
        let _exclusive = hooks::arm(0);
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
        assert_eq!(fired(), Some(("x".to_owned(), 2)), "the record outlives the session");
    }

    #[test]
    fn per_mille_coin_is_deterministic_per_seed() {
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
        let _exclusive = hooks::arm(0);
        // A session's state outlives its guard: a stale record, a trigger
        // that would fire on its next hit, and one that fired (FROZEN set).
        let nth1 = || arm("x", 7, Trigger::Nth(1));
        for (session, armed_hits) in [(record as fn() -> Armed, 0), (nth1, 0), (nth1, 1)] {
            let s = session();
            (0..armed_hits).for_each(|_| crash_point("x"));
            drop(s);
            let before = (recording(), fired());
            crash_point("x");
            assert_eq!((recording(), fired()), before, "a disarmed hit touched the registry");
            assert!(!is_frozen());
        }
    }
}
