//! The headline corpus test: every implemented bug manifests in its buggy
//! variant and is cured by both the developers' fix and the TM fix, each
//! on its pinned schedule.

use txfix_corpus::{scenario_by_key, Outcome, RunResult, Variant, SCENARIOS};

#[test]
fn every_buggy_variant_exhibits_its_bug() {
    for s in SCENARIOS {
        let out = s.run(Variant::Buggy);
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
        let out = s.run(Variant::DevFix);
        assert_eq!(out, Outcome::Correct, "developer fix of {} misbehaved", s.key);
    }
}

#[test]
fn every_tm_fix_is_clean() {
    for s in SCENARIOS {
        let out = s.run(Variant::TmFix);
        assert_eq!(out, Outcome::Correct, "TM fix of {} misbehaved", s.key);
    }
}

#[test]
fn buggy_variants_are_reproducible() {
    // A buggy run replays its pinned trace: every round follows the trace
    // exactly and observes the same bug.
    for s in SCENARIOS {
        let first = s.replay(Variant::Buggy);
        assert_eq!(first.log.trace(), s.bug_trace, "{}: replay left its pinned trace", s.key);
        let RunResult::Bug(msg) = &first.result else {
            panic!("{}: bug did not reproduce: {:?}", s.key, first.result);
        };
        assert!(!msg.starts_with("replay diverged"), "{}: {msg}", s.key);
        for round in 1..3 {
            let again = s.replay(Variant::Buggy);
            assert_eq!(again.log.trace(), s.bug_trace, "{} round {round}: another schedule", s.key);
            assert_eq!(again.result, first.result, "{} round {round}: another bug", s.key);
        }
    }
}

#[test]
fn a_trace_that_leaves_the_execution_stops_the_run() {
    let mut s = *scenario_by_key("av_stats_race").expect("row exists");
    assert_eq!(s.bug_trace.len(), 4, "two loads and two stores");
    s.bug_trace = &[0, 5, 1, 0];
    assert_eq!(
        s.run(Variant::Buggy),
        Outcome::BugObserved(
            "replay diverged at depth 1: the trace picks candidate 5 of 2".to_string()
        ),
    );
}
