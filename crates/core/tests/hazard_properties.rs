//! Property tests over the hazard vocabulary: [`Hazard::class`] and
//! [`Hazard::overlaps`] are the glue between the static and dynamic
//! analyzers (agreement matrix, inference dedup), so their algebra —
//! totality, symmetry, class discipline — must hold for
//! *any* hazard, not just the ones the corpus happens to produce.

use proptest::prelude::*;
use txfix_core::{Hazard, HazardClass};

/// A small closed name pool so generated hazards actually collide.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("stats".to_string()),
        Just("cache".to_string()),
        Just("queue".to_string()),
        Just("log".to_string()),
        Just("cv.ready".to_string()),
    ]
}

fn names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(name(), 1..4)
}

fn hazard() -> impl Strategy<Value = Hazard> {
    prop_oneof![
        name().prop_map(|loc| Hazard::Race { loc }),
        names().prop_map(|locs| Hazard::Atomicity { locs }),
        names().prop_map(|locks| Hazard::LockCycle { locks }),
        (name(), name()).prop_map(|(cv, lock)| Hazard::WaitCycle { cv, lock }),
        (name(), name()).prop_map(|(cv, loc)| Hazard::LostWakeup { cv, loc }),
    ]
}

proptest! {
    /// `class` is total and stable under the variant's shape: the same
    /// constructor always lands in the same class, whatever the names.
    #[test]
    fn class_depends_only_on_the_variant(h in hazard()) {
        let expected = match &h {
            Hazard::Race { .. } | Hazard::Atomicity { .. } => HazardClass::SharedData,
            Hazard::LockCycle { .. } => HazardClass::LockCycle,
            Hazard::WaitCycle { .. } => HazardClass::WaitCycle,
            Hazard::LostWakeup { .. } => HazardClass::LostWakeup,
        };
        prop_assert_eq!(h.class(), expected);
    }

    /// Every hazard names at least one subject, so `overlaps` is
    /// reflexive: a finding always matches itself.
    #[test]
    fn overlap_is_reflexive(h in hazard()) {
        prop_assert!(!h.subjects().is_empty());
        prop_assert!(h.overlaps(&h));
    }

    /// `overlaps` is symmetric — the agreement matrix must not depend on
    /// which analyzer's finding is on the left.
    #[test]
    fn overlap_is_symmetric(a in hazard(), b in hazard()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    /// `overlaps` never crosses classes, and within a class it holds
    /// exactly when a subject name is shared.
    #[test]
    fn overlap_requires_same_class_and_shared_subject(a in hazard(), b in hazard()) {
        let shared = a.subjects().iter().any(|s| b.subjects().contains(s));
        prop_assert_eq!(a.overlaps(&b), a.class() == b.class() && shared);
        if a.class() != b.class() {
            prop_assert!(!a.overlaps(&b));
        }
    }
}

#[test]
fn class_names_partition_the_vocabulary() {
    // One representative per variant; the four classes cover all five
    // variants with Race and Atomicity deliberately sharing SharedData.
    let reps = [
        (Hazard::Race { loc: "x".into() }, HazardClass::SharedData),
        (Hazard::Atomicity { locs: vec!["x".into()] }, HazardClass::SharedData),
        (Hazard::LockCycle { locks: vec!["a".into(), "b".into()] }, HazardClass::LockCycle),
        (Hazard::WaitCycle { cv: "cv".into(), lock: "l".into() }, HazardClass::WaitCycle),
        (Hazard::LostWakeup { cv: "cv".into(), loc: "x".into() }, HazardClass::LostWakeup),
    ];
    for (h, class) in reps {
        assert_eq!(h.class(), class, "{h}");
    }
}

#[test]
fn race_and_atomicity_on_one_location_are_one_bug() {
    let race = Hazard::Race { loc: "stats".into() };
    let av = Hazard::Atomicity { locs: vec!["stats".into(), "total".into()] };
    assert!(race.overlaps(&av));
    assert!(av.overlaps(&race));
    // ...but a lock cycle through the same name is a different bug.
    let cycle = Hazard::LockCycle { locks: vec!["stats".into()] };
    assert!(!race.overlaps(&cycle));
}
