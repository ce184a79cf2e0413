//! Greedy minimization of failing schedules.
//!
//! A raw failing trace can carry context switches the failure does not
//! need. The minimizer re-executes the scenario with hybrid pickers that
//! follow the failing schedule's *thread* choices for a prefix and then
//! go non-preemptive (keep running the current thread while it is
//! runnable), and keeps the shortest prefix that still fails; it does
//! not search for the run with the fewest switches.
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
/// sequence of the original failure (`RunLog::events` slots). Tries
/// forced prefixes in ascending length and returns the first run that
/// still fails, so the shortest failing prefix among those tried — at
/// worst the original failure re-executed verbatim. It does not minimise
/// context switches: the cooperative tail still switches when a thread
/// finishes or blocks, and `RunLog::preemptions` counts those too.
pub fn minimize_failure(
    build: &dyn Fn(Variant) -> ScheduledRun,
    variant: Variant,
    slots: Vec<usize>,
) -> Option<ScheduleOutcome> {
    // At most about `MAX_ATTEMPTS` cuts, evenly spaced; the last one,
    // len(slots), replays verbatim.
    let stride = (slots.len() + 1).div_ceil(MAX_ATTEMPTS);
    (0..slots.len()).step_by(stride).chain([slots.len()]).find_map(|cut| {
        let outcome = run_schedule(build(variant), hybrid_picker(slots.clone(), cut));
        matches!(outcome.result, RunResult::Bug(_)).then_some(outcome)
    })
}
