//! Execute one scheduled run of a corpus scenario under a picker.

use txfix_corpus::{Outcome, ScheduledRun};
use txfix_stm::sched::{self, Picker, RunLog, StopReason};

/// What one explored schedule amounted to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunResult {
    /// Every thread finished and the invariant held.
    Pass,
    /// The bug manifested: a broken invariant, a deadlock (every live
    /// thread blocked), or a panic in scenario code.
    Bug(String),
    /// The picker abandoned the schedule as redundant (sleep sets).
    Pruned,
    /// The per-schedule step bound was exceeded — inconclusive.
    StepLimit,
}

/// One executed schedule: the scheduler's record plus the verdict.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The decision/event record (replayable via [`RunLog::trace`]).
    pub log: RunLog,
    /// The verdict.
    pub result: RunResult,
}

/// Default per-schedule step bound; corpus scenarios take well under a
/// hundred steps, so hitting this means a livelock.
pub const DEFAULT_MAX_STEPS: u64 = 20_000;

/// Run one schedule of `run` under `picker`.
///
/// Must be called with the scheduler's exclusivity gate held (strategies
/// wrap whole explorations in [`sched::run_exclusively`]); runs are
/// process-global.
pub fn run_schedule(run: ScheduledRun, max_steps: u64, picker: Picker) -> ScheduleOutcome {
    let ScheduledRun { threads, check } = run;
    let (_, log) = sched::run_workers(threads, max_steps, picker);
    let result = match &log.stop {
        Some(StopReason::Deadlock(blocked)) => {
            RunResult::Bug(format!("deadlock: {}", blocked.join("; ")))
        }
        Some(StopReason::Panic(msg)) => RunResult::Bug(format!("panic: {msg}")),
        Some(StopReason::Pruned) => RunResult::Pruned,
        Some(StopReason::StepLimit) => RunResult::StepLimit,
        None => match check() {
            Outcome::Correct => RunResult::Pass,
            Outcome::BugObserved(msg) => RunResult::Bug(msg),
        },
    };
    // Turnstile integrity: the executed events must match the announced
    // decisions one-for-one. A divergence means an operation ran out of
    // turnstile order — the record no longer describes the execution, so
    // replay and minimization would both lie. It outranks every verdict
    // except an already-detected bug.
    let result = match (log.turnstile_breach(), result) {
        (Some(_), bug @ RunResult::Bug(_)) => bug,
        (Some(msg), _) => RunResult::Bug(msg),
        (None, result) => result,
    };
    ScheduleOutcome { log, result }
}

/// A picker that replays a recorded decision trace (candidate indices)
/// bit-for-bit. Past the end of the trace — or if the run diverges and an
/// index is out of range — it falls back to the lowest-slot candidate,
/// which keeps replay total (a diverged replay then simply runs some
/// schedule instead of crashing the harness).
pub fn replay_picker(trace: Vec<usize>) -> Picker {
    let mut next = 0usize;
    Box::new(move |cands| {
        let i = trace.get(next).copied().unwrap_or(0);
        next += 1;
        sched::Pick::Choose(if i < cands.len() { i } else { 0 })
    })
}
