//! Bounded exhaustive DFS over schedules with sleep-set partial-order
//! reduction.
//!
//! The exploration is *stateless*: every schedule re-executes the
//! scenario from scratch, with a picker that forces the choices recorded
//! on the DFS stack for the shared prefix and extends the stack at the
//! frontier. Scenario builds are deterministic, so the candidate sets at
//! each depth are reproducible across re-executions — the stack's record
//! of "what was runnable here" stays valid. A build that breaks this is
//! reported as a failing schedule, never as an exhausted space.
//!
//! Sleep sets (Godefroid): after fully exploring candidate `t` at a node,
//! `t` is put to sleep for the node's remaining candidates; a sleeping
//! transition is inherited by child nodes until an executed operation is
//! *dependent* with it (same resource, at least one write — see
//! [`SyncOp::dependent`]). A node whose every candidate is asleep proves
//! all its continuations are permutations of already-explored schedules
//! and is pruned without running to completion. This is sound for
//! reachability of local states (invariant violations and deadlocks)
//! because independent operations commute.

use std::sync::{Arc, Mutex};
use txfix_corpus::{run_schedule, RunResult, ScheduleOutcome, ScheduledRun, Variant};
use txfix_stm::sched::{self, Pick, SyncOp};

/// One node on the DFS stack.
#[derive(Clone, Debug)]
struct Frame {
    /// Runnable candidates observed at this node, sorted by slot.
    candidates: Vec<(usize, SyncOp)>,
    /// Index (into `candidates`) currently being explored.
    chosen: usize,
    /// Candidates whose subtrees are fully explored (asleep for the
    /// node's remaining exploration).
    explored: Vec<(usize, SyncOp)>,
    /// Transitions inherited asleep from the path above.
    sleep: Vec<(usize, SyncOp)>,
}

impl Frame {
    fn asleep(&self, slot: usize) -> bool {
        self.sleep.iter().chain(self.explored.iter()).any(|&(s, _)| s == slot)
    }

    /// The sleep set a child reached by executing `self.chosen` inherits:
    /// everything asleep here (inherited or already explored) that the
    /// chosen operation does not depend on.
    fn child_sleep(&self) -> Vec<(usize, SyncOp)> {
        let (_, chosen_op) = self.candidates[self.chosen];
        self.sleep
            .iter()
            .chain(self.explored.iter())
            .copied()
            .filter(|&(_, op)| !op.dependent(chosen_op))
            .collect()
    }

    fn first_awake(&self) -> Option<usize> {
        (0..self.candidates.len()).find(|&i| !self.asleep(self.candidates[i].0))
    }
}

/// Aggregate result of a DFS exploration.
#[derive(Debug)]
pub struct DfsOutcome {
    /// Schedules run to a verdict (pass/bug), excluding pruned ones.
    pub schedules: u64,
    /// Schedules abandoned by sleep-set pruning.
    pub pruned: u64,
    /// Schedules that hit the step bound (inconclusive).
    pub step_limited: u64,
    /// The first failing schedule, if one was found.
    pub failure: Option<ScheduleOutcome>,
    /// True if the state space was exhausted within budget.
    pub exhausted: bool,
}

/// Explore schedules of `scenario`/`variant` depth-first, stopping at the
/// first bug or after `budget` executed schedules.
pub fn explore_dfs(
    build: &dyn Fn(Variant) -> ScheduledRun,
    variant: Variant,
    budget: u64,
) -> DfsOutcome {
    let stack: Arc<Mutex<Vec<Frame>>> = Arc::new(Mutex::new(Vec::new()));
    let mut out =
        DfsOutcome { schedules: 0, pruned: 0, step_limited: 0, failure: None, exhausted: false };

    loop {
        if out.schedules + out.pruned >= budget {
            return out;
        }

        // One re-execution: force the stack's prefix, extend at new depths.
        let picker: sched::Picker = {
            let stack = stack.clone();
            let mut depth = 0usize;
            Box::new(move |cands| {
                let mut st = stack.lock().unwrap();
                let pick = if depth < st.len() {
                    // Forced prefix. Scenario builds are deterministic, so
                    // the candidates must match what we recorded. A
                    // mismatch would silently corrupt the exploration (and
                    // could prove a space it never saw), so it stops the
                    // run as a failure, in every build profile.
                    if st[depth].candidates == cands {
                        Pick::Choose(st[depth].chosen)
                    } else {
                        Pick::Diverge(format!(
                            "non-deterministic build: candidate set diverged at depth {depth}"
                        ))
                    }
                } else {
                    let sleep = match st.last() {
                        Some(parent) => parent.child_sleep(),
                        None => Vec::new(),
                    };
                    let frame = Frame {
                        candidates: cands.to_vec(),
                        chosen: 0,
                        explored: Vec::new(),
                        sleep,
                    };
                    match frame.first_awake() {
                        Some(i) => {
                            let mut frame = frame;
                            frame.chosen = i;
                            st.push(frame);
                            Pick::Choose(i)
                        }
                        None => Pick::Prune,
                    }
                };
                depth += 1;
                pick
            })
        };

        let outcome = run_schedule(build(variant), picker);
        match outcome.result {
            RunResult::Pruned => out.pruned += 1,
            RunResult::StepLimit => {
                out.step_limited += 1;
                out.schedules += 1;
            }
            RunResult::Pass => out.schedules += 1,
            RunResult::Bug(_) => {
                out.schedules += 1;
                out.failure = Some(outcome);
                return out;
            }
        }

        // Backtrack: retire the just-explored choice at the deepest frame
        // and advance to its next awake sibling, popping exhausted frames.
        let mut st = stack.lock().unwrap();
        loop {
            let Some(frame) = st.last_mut() else {
                out.exhausted = true;
                return out;
            };
            let retired = frame.candidates[frame.chosen];
            frame.explored.push(retired);
            if let Some(i) = frame.first_awake() {
                frame.chosen = i;
                break;
            }
            st.pop();
        }
    }
}
