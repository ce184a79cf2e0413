//! Scheduler and explorer integration tests: DFS completeness on a toy
//! state space, a non-deterministic build refused, replay determinism,
//! serial-rung schedule-independence, and the corpus-level acceptance
//! sweep.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use txfix_corpus::{
    replay_picker, run_schedule, scenario_by_key, Outcome, RunResult, ScheduleOutcome,
    ScheduledRun, Variant, SCENARIOS,
};
use txfix_explore::dfs::explore_dfs;
use txfix_explore::explore_variant;
use txfix_stm::chaos::splitmix64;
use txfix_stm::sched::{self, Pick, Picker};
use txfix_stm::trace::TracedCell;
use txfix_stm::TVar;
use txfix_tmsync::serial_atomic;
use txfix_tmsync::SerialDomain;

/// Two threads, two writes each, all to the same cell: every pair of
/// operations is dependent, so partial-order reduction must not prune
/// anything and DFS must enumerate exactly C(4,2) = 6 interleavings.
fn toy_dependent() -> ScheduledRun {
    let cell = Arc::new(TracedCell::new("toy.shared", 0));
    let c2 = cell.clone();
    ScheduledRun {
        threads: vec![
            Box::new(move || {
                cell.store(1);
                cell.store(2);
            }),
            Box::new(move || {
                c2.store(3);
                c2.store(4);
            }),
        ],
        check: Box::new(|| Outcome::Correct),
    }
}

/// Two threads, two writes each, to *different* cells: everything
/// commutes, so sleep sets must collapse the 6 interleavings.
fn toy_independent() -> ScheduledRun {
    let a = Arc::new(TracedCell::new("toy.a", 0));
    let b = Arc::new(TracedCell::new("toy.b", 0));
    ScheduledRun {
        threads: vec![
            Box::new(move || {
                a.store(1);
                a.store(2);
            }),
            Box::new(move || {
                b.store(3);
                b.store(4);
            }),
        ],
        check: Box::new(|| Outcome::Correct),
    }
}

/// Re-drive a recorded decision trace against a fresh run.
fn replay(run: ScheduledRun, trace: &[usize]) -> ScheduleOutcome {
    sched::run_exclusively(|| run_schedule(run, replay_picker(trace.to_vec())))
}

#[test]
fn dfs_enumerates_exactly_the_dependent_interleavings() {
    sched::run_exclusively(|| {
        let out = explore_dfs(&|_| toy_dependent(), Variant::Buggy, 1_000);
        assert!(out.exhausted, "toy space must be exhausted");
        assert_eq!(out.schedules, 6, "2 threads x 2 dependent ops = C(4,2) schedules");
        assert_eq!(out.pruned, 0, "fully dependent ops leave nothing to prune");
        assert!(out.failure.is_none());
    });
}

#[test]
fn sleep_sets_prune_commuting_interleavings() {
    sched::run_exclusively(|| {
        let out = explore_dfs(&|_| toy_independent(), Variant::Buggy, 1_000);
        assert!(out.exhausted);
        assert!(
            out.schedules < 6,
            "independent ops must explore fewer than the {} full interleavings, got {}",
            6,
            out.schedules
        );
        assert!(out.failure.is_none());
    });
}

/// A build that is not a pure function of the schedule: its first
/// construction has the second thread store to another cell than every
/// later one, so the candidate set DFS recorded at the root no longer
/// holds when it re-executes the prefix. That must surface as a failing
/// schedule naming the depth, in every build profile, and never as an
/// exhausted space.
#[test]
fn a_build_whose_candidates_drift_fails_instead_of_proving() {
    let first = AtomicBool::new(true);
    let drifting = move |_: Variant| {
        let shared = Arc::new(TracedCell::new("toy.shared", 0));
        let c2 = if first.swap(false, Ordering::Relaxed) {
            Arc::new(TracedCell::new("toy.other", 0))
        } else {
            shared.clone()
        };
        ScheduledRun {
            threads: vec![
                Box::new(move || {
                    shared.store(1);
                    shared.store(2);
                }),
                Box::new(move || {
                    c2.store(3);
                    c2.store(4);
                }),
            ],
            check: Box::new(|| Outcome::Correct),
        }
    };
    sched::run_exclusively(|| {
        let out = explore_dfs(&drifting, Variant::TmFix, 1_000);
        assert!(!out.exhausted, "a drifting build proved nothing: {out:?}");
        let failure = out.failure.expect("the drift is reported as a failure");
        assert_eq!(
            failure.result,
            RunResult::Bug("non-deterministic build: candidate set diverged at depth 0".into())
        );
    });
}

#[test]
fn failing_schedule_replays_bit_for_bit() {
    let key = "av_stats_race";
    let build = scenario_by_key(key).expect("scenario exists").scheduled;
    let entry = explore_variant(key, build, Variant::Buggy);
    let failure = entry.failure.expect("DFS finds the stats race");
    let trace: Vec<usize> = failure
        .trace
        .split('.')
        .map(|c| c.parse().expect("trace components are indices"))
        .collect();
    let a = replay(build(Variant::Buggy), &trace);
    let b = replay(build(Variant::Buggy), &trace);
    assert!(matches!(a.result, RunResult::Bug(_)), "replayed schedule still fails: {a:?}");
    assert_eq!(a.result, b.result);
    assert_eq!(a.log.events, b.log.events, "same trace, same event sequence");
    assert_eq!(a.log.trace(), trace, "replay followed the trace exactly");
}

/// A picker that chooses uniformly at random from each candidate set,
/// seeded: `seed` and the decision's ordinal fix every choice.
fn seeded_picker(seed: u64) -> Picker {
    let mut step = 0u64;
    Box::new(move |cands| {
        step += 1;
        Pick::Choose((splitmix64(seed ^ splitmix64(step)) % cands.len() as u64) as usize)
    })
}

/// Replay determinism over arbitrary seeded schedules: whatever schedule
/// a seed produces, re-driving its decision trace reproduces the
/// identical event sequence.
#[test]
fn seeded_schedules_replay_deterministically_across_seeds() {
    let key = "av_adhoc_retry";
    let build = scenario_by_key(key).expect("scenario exists").scheduled;
    // A spread of seeds rather than a proptest runner: each case spins up
    // real threads, so keep the count deliberate and the failures
    // reproducible by seed.
    for seed in [0u64, 1, 7, 42, 0xdead_beef, u64::MAX, 0x1234_5678_9abc_def0] {
        for variant in [Variant::Buggy, Variant::TmFix] {
            let (events, trace) = sched::run_exclusively(|| {
                let out = run_schedule(build(variant), seeded_picker(seed));
                let trace = out.log.trace();
                (out.log.events, trace)
            });
            let replayed = replay(build(variant), &trace);
            assert_eq!(replayed.log.events, events, "seed {seed:#x} {variant:?}: replay diverged");
        }
    }
}

/// Satellite: the escalation ladder's Serial rung is schedule-independent.
/// A serial-mode atomic region takes the domain exclusively and runs
/// once; there must be no schedule in which its body re-executes (an
/// abort/retry) or its effects interleave.
#[test]
fn serial_rung_is_schedule_independent() {
    let build = |_v: Variant| {
        let domain = SerialDomain::new();
        let counter = TVar::new(0u64);
        let body_runs = Arc::new(AtomicU64::new(0));
        let (d1, d2) = (domain.clone(), domain.clone());
        let (c1, c2) = (counter.clone(), counter.clone());
        let cc = counter.clone();
        let (r1, r2) = (body_runs.clone(), body_runs.clone());
        let rc = body_runs.clone();
        ScheduledRun {
            threads: vec![
                Box::new(move || {
                    serial_atomic(&d1, |txn| {
                        r1.fetch_add(1, Ordering::Relaxed);
                        c1.modify(txn, |v| v + 1)
                    });
                }),
                Box::new(move || {
                    serial_atomic(&d2, |txn| {
                        r2.fetch_add(1, Ordering::Relaxed);
                        c2.modify(txn, |v| v + 1)
                    });
                }),
            ],
            check: Box::new(move || {
                let runs = rc.load(Ordering::Relaxed);
                let total = cc.load();
                if runs == 2 && total == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved(format!(
                        "serial rung not schedule-independent: {runs} body runs, counter {total}"
                    ))
                }
            }),
        }
    };
    sched::run_exclusively(|| {
        let out = explore_dfs(&build, Variant::TmFix, 2_000);
        assert!(
            out.failure.is_none(),
            "a schedule aborted/duplicated a serial-mode txn: {:?}",
            out.failure
        );
        assert!(out.schedules >= 1);
    });
}

/// The acceptance sweep: every buggy variant breaks within budget, every
/// fixed variant survives everything DFS explores.
#[test]
fn dfs_sweep_finds_every_bug_and_clears_every_fix() {
    for s in SCENARIOS {
        for variant in [Variant::Buggy, Variant::DevFix, Variant::TmFix] {
            let entry = explore_variant(s.key, s.scheduled, variant);
            assert!(
                entry.ok,
                "{} [{}]: expectation not met (schedules={} pruned={} failure={:?})",
                entry.key, entry.variant, entry.schedules, entry.pruned, entry.failure
            );
            assert_eq!(entry.step_limited, 0, "{}: no schedule may hit the step bound", entry.key);
        }
    }
}
