//! Greedy preemption minimization for failing schedules.
//!
//! A raw failing trace can carry context switches the failure does not
//! need. The minimizer re-executes the scenario with hybrid pickers that
//! follow the failing schedule's *thread* choices for a prefix and then
//! go non-preemptive (keep running the current thread while it is
//! runnable), and keeps the shortest prefix that still fails.
//! This is greedy and bounded — not an optimal reduction — but it
//! reliably collapses the tail of a failure trace to the few switches
//! that matter, which is what a human replaying the schedule wants.

use txfix_corpus::{run_schedule, RunResult, ScheduleOutcome, ScheduledRun, Variant};
use txfix_stm::sched::{Pick, Picker};

/// Cap on minimization re-executions.
const MAX_ATTEMPTS: usize = 64;

/// A picker that follows `slots` (the failing schedule's thread-per-step
/// sequence) for the first `cut` decisions, then schedules cooperatively:
/// stay on the thread that ran last while it is still a candidate, else
/// fall back to the lowest slot.
fn hybrid_picker(slots: Vec<usize>, cut: usize) -> Picker {
    let mut depth = 0usize;
    let mut last: Option<usize> = None;
    Box::new(move |cands| {
        let want = if depth < cut { slots.get(depth).copied() } else { last };
        let choice = want.and_then(|slot| cands.iter().position(|&(s, _)| s == slot)).unwrap_or(0);
        last = Some(cands[choice].0);
        depth += 1;
        Pick::Choose(choice)
    })
}

/// Minimize a failing schedule. `slots` is the per-decision thread
/// sequence of the original failure (`RunLog::events` slots). Returns the
/// outcome of the best (fewest-preemption) still-failing run — at worst
/// the original failure re-executed verbatim.
pub fn minimize_failure(
    build: &dyn Fn(Variant) -> ScheduledRun,
    variant: Variant,
    slots: Vec<usize>,
) -> Option<ScheduleOutcome> {
    let mut best: Option<ScheduleOutcome> = None;
    // Ascending cuts: the smallest forced prefix that still fails gives
    // the fewest incidental switches. Cut len(slots) replays verbatim.
    let mut cuts: Vec<usize> = (0..=slots.len()).collect();
    if cuts.len() > MAX_ATTEMPTS {
        // Keep full replay as the final fallback, sample the rest evenly.
        let stride = cuts.len().div_ceil(MAX_ATTEMPTS);
        cuts = (0..=slots.len()).step_by(stride).chain([slots.len()]).collect();
    }
    for cut in cuts {
        let outcome = run_schedule(build(variant), hybrid_picker(slots.clone(), cut));
        if let RunResult::Bug(_) = outcome.result {
            best = Some(outcome);
            break;
        }
    }
    best
}
