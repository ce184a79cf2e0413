//! The unified hazard vocabulary shared by every analyzer.
//!
//! The static critical-section passes (`txfix-static`), the dynamic
//! trace passes (`txfix-analyze`) and the region-inference pipeline
//! (`txfix-autofix`) all describe what they found as a [`Hazard`]: one
//! representation, one JSON encoding, one overlap relation. A static
//! finding and a dynamic finding about the same bug [`overlap`] — same
//! [`HazardClass`], at least one shared subject name — which is how the
//! agreement matrix matches the two analyzers and how inference
//! deduplicates their findings into one region seed.
//!
//! [`overlap`]: Hazard::overlaps

use crate::analysis::HazardClass;
use crate::json::{Json, ToJson};
use std::fmt;

/// What an analysis pass detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// Two paths can reach `loc` with disjoint locksets, at least one
    /// writing, neither hardware-atomic.
    Race {
        /// The racing location.
        loc: String,
    },
    /// A read-modify-write (or invariant-group access) whose protection
    /// is dropped partway: the locations are individually reachable but
    /// not covered by one continuous critical section.
    Atomicity {
        /// The locations whose unit is torn (sorted).
        locs: Vec<String>,
    },
    /// A cycle in the lock-order graph through non-revocable
    /// acquisitions (potential deadlock).
    LockCycle {
        /// The locks on the cycle (sorted).
        locks: Vec<String>,
    },
    /// A path waits on `cv` while holding `lock`, which a notifying
    /// path must acquire: the notifier can block behind the waiter
    /// forever.
    WaitCycle {
        /// The condition variable waited on.
        cv: String,
        /// The non-revocable lock held across the wait.
        lock: String,
    },
    /// A path notifies `cv` before writing `loc`, the state the wait
    /// predicate reads: the waiter can test a stale predicate and sleep
    /// through the only wakeup.
    LostWakeup {
        /// The condition variable notified.
        cv: String,
        /// The predicate location written after the notify.
        loc: String,
    },
}

impl Hazard {
    /// The coarse class, for recipe mapping and dynamic/static matching.
    pub fn class(&self) -> HazardClass {
        match self {
            Hazard::Race { .. } | Hazard::Atomicity { .. } => HazardClass::SharedData,
            Hazard::LockCycle { .. } => HazardClass::LockCycle,
            Hazard::WaitCycle { .. } => HazardClass::WaitCycle,
            Hazard::LostWakeup { .. } => HazardClass::LostWakeup,
        }
    }

    /// The names (locations, locks, condition variables) the hazard is
    /// about, for overlap matching.
    pub fn subjects(&self) -> Vec<String> {
        match self {
            Hazard::Race { loc } => vec![loc.clone()],
            Hazard::Atomicity { locs } => locs.clone(),
            Hazard::LockCycle { locks } => locks.clone(),
            Hazard::WaitCycle { cv, lock } => vec![cv.clone(), lock.clone()],
            Hazard::LostWakeup { cv, loc } => vec![cv.clone(), loc.clone()],
        }
    }

    /// Whether two hazards are about the same problem: same class and at
    /// least one shared subject name. Race and Atomicity deliberately
    /// share a class — a data race and the torn unit around it are one
    /// bug, and one wrap fixes both.
    pub fn overlaps(&self, other: &Hazard) -> bool {
        self.class() == other.class()
            && self.subjects().iter().any(|s| other.subjects().contains(s))
    }
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::Race { loc } => write!(f, "possible data race on {loc}"),
            Hazard::Atomicity { locs } => {
                write!(f, "atomicity not continuous across {}", locs.join(", "))
            }
            Hazard::LockCycle { locks } => {
                write!(f, "lock-order cycle through {}", locks.join(" -> "))
            }
            Hazard::WaitCycle { cv, lock } => {
                write!(f, "wait on {cv} holds \"{lock}\" that a notifier needs")
            }
            Hazard::LostWakeup { cv, loc } => {
                write!(f, "{cv} notified before {loc} is updated (lost wakeup)")
            }
        }
    }
}

impl ToJson for Hazard {
    fn to_json_value(&self) -> Json {
        match self {
            Hazard::Race { loc } => {
                Json::obj([("kind", Json::str("race")), ("loc", Json::str(loc.clone()))])
            }
            Hazard::Atomicity { locs } => {
                Json::obj([("kind", Json::str("atomicity")), ("locs", Json::strings(locs))])
            }
            Hazard::LockCycle { locks } => {
                Json::obj([("kind", Json::str("lock_cycle")), ("locks", Json::strings(locks))])
            }
            Hazard::WaitCycle { cv, lock } => Json::obj([
                ("kind", Json::str("wait_cycle")),
                ("cv", Json::str(cv.clone())),
                ("lock", Json::str(lock.clone())),
            ]),
            Hazard::LostWakeup { cv, loc } => Json::obj([
                ("kind", Json::str("lost_wakeup")),
                ("cv", Json::str(cv.clone())),
                ("loc", Json::str(loc.clone())),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_requires_same_class_and_shared_subject() {
        let race = Hazard::Race { loc: "x".into() };
        let av = Hazard::Atomicity { locs: vec!["x".into(), "y".into()] };
        let other_av = Hazard::Atomicity { locs: vec!["z".into()] };
        let cycle = Hazard::LockCycle { locks: vec!["x".into()] };
        assert!(race.overlaps(&av), "race and torn unit on one loc are one bug");
        assert!(!race.overlaps(&other_av));
        assert!(!race.overlaps(&cycle), "same name, different class");
        let wait = Hazard::WaitCycle { cv: "cv".into(), lock: "l".into() };
        let lost = Hazard::LostWakeup { cv: "cv".into(), loc: "x".into() };
        assert!(!wait.overlaps(&lost), "different classes despite the shared cv");
    }
}
