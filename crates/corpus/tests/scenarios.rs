//! The headline corpus test: every implemented bug manifests in its buggy
//! variant and is cured by both the developers' fix and the TM fix.

use txfix_corpus::{Outcome, Variant, SCENARIOS};

#[test]
fn every_buggy_variant_exhibits_its_bug() {
    for s in SCENARIOS {
        let out = (s.run)(Variant::Buggy);
        assert!(
            out.is_bug(),
            "scenario {} did not exhibit its bug in the buggy variant: {out:?}",
            s.key
        );
    }
}

#[test]
fn every_developer_fix_is_clean() {
    for s in SCENARIOS {
        let out = (s.run)(Variant::DevFix);
        assert_eq!(out, Outcome::Correct, "developer fix of {} misbehaved", s.key);
    }
}

#[test]
fn every_tm_fix_is_clean() {
    for s in SCENARIOS {
        let out = (s.run)(Variant::TmFix);
        assert_eq!(out, Outcome::Correct, "TM fix of {} misbehaved", s.key);
    }
}

#[test]
fn fixes_stay_clean_across_repeated_runs() {
    // Concurrency fixes must hold up across many executions, not one lucky
    // schedule.
    for s in SCENARIOS {
        for _ in 0..5 {
            assert_eq!((s.run)(Variant::TmFix), Outcome::Correct, "TM fix of {}", s.key);
        }
    }
}

#[test]
fn buggy_variants_are_reproducible() {
    // The forced interleavings make the demonstrations deterministic; run
    // each three times to prove it is not a fluke of one schedule.
    for s in SCENARIOS {
        for round in 0..3 {
            let out = (s.run)(Variant::Buggy);
            assert!(out.is_bug(), "scenario {} round {round}: bug did not reproduce", s.key);
        }
    }
}
