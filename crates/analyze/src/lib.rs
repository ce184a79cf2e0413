//! # txfix-analyze: finding the corpus bugs, not just fixing them
//!
//! The paper argues TM fixes are attractive because they need only *local*
//! reasoning; this crate supplies the other half of that story — the
//! detectors that tell you a fix is needed. It consumes the sync-event
//! trace recorded by [`txfix_stm::trace`] and runs five passes:
//!
//! 1. [`hb`]: a vector-clock happens-before **race detector** — unordered
//!    conflicting accesses with at least one non-atomic participant;
//! 2. [`ser`]: a **conflict-serializability checker** — cycles in the
//!    region (transaction / critical-section / unprotected-run) conflict
//!    graph are atomicity violations even when every individual access is
//!    ordered;
//! 3. [`order`]: a **lock-order validator** — the trace's feeder of the
//!    one lock-order graph (`txfix_txlock::LockOrder`) that `lockdep`
//!    fills live and the static lint fills from summaries, with
//!    preemptible (revocable) cycles suppressed;
//! 4. [`cv`]: **wait/notify discipline** over named condition variables —
//!    waits that hold locks a notifier needs (lock/wait cycles) and
//!    notifies that precede the predicate's publication (lost wakeups);
//! 5. [`integrity`]: checks on the runtime's own machinery — order edges
//!    the trace saw but lockdep did not record, and retry notifies issued
//!    before the commit publishes.
//!
//! Each finding is then pushed through `txfix_core::analysis::analyze` on
//! the scenario's bug record, so the report pairs every detected bug with
//! the paper's suggested fix recipe. [`analyze_scenario`] wires the whole
//! pipeline to one corpus scenario run; the `txfix analyze` CLI subcommand
//! is a thin wrapper around it.

#![warn(missing_docs)]

pub mod cv;
pub mod hb;
pub mod integrity;
pub mod order;
pub mod report;
pub mod ser;
pub mod vc;

pub use report::{Finding, Report};
pub use txfix_core::Hazard;

use txfix_core::json::ToJson;
use txfix_core::sweep::{Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_core::{Analysis, Recipe};
use txfix_corpus::{bug_by_scenario, keys, scenario_by_key, Variant};
use txfix_stm::hooks::{self, LOCKDEP, TRACE};
use txfix_stm::trace::{self, TraceEvent};
use txfix_txlock::lockdep;

/// Run every analysis pass over a recorded trace, attaching the suggested
/// recipe for scenario `key` to each finding.
///
/// `live_inversions` and `live_edges` carry what `txfix_txlock::lockdep`
/// recorded during the same run. Its pairs and the trace-replay pairs are
/// merged and deduplicated (both validators see the same cycles from
/// their own vantage points, and a hazard is one finding no matter who
/// spotted it); its edges are checked against the trace's.
pub fn analyze_trace(
    events: &[TraceEvent],
    live_inversions: &[lockdep::Inversion],
    live_edges: &[(String, String)],
    key: &str,
) -> Vec<Finding> {
    let (recipe, rationale) = suggestion(key);
    let mut findings = Vec::new();

    for race in hb::detect_races(events) {
        findings.push(Finding {
            explanation: format!(
                "threads {} and {} make unordered conflicting accesses to {}, at least one \
                 of them plain; {rationale}",
                race.threads.0, race.threads.1, race.name
            ),
            kind: Hazard::Race { loc: race.name },
            recipe,
        });
    }

    for v in ser::violations(events) {
        findings.push(Finding {
            explanation: format!(
                "threads {:?} interleave critical regions over {} in a way no serial order \
                 explains; {rationale}",
                v.threads,
                v.objects.join(", ")
            ),
            kind: Hazard::Atomicity { locs: v.objects },
            recipe,
        });
    }

    // Lock-order hazards from both vantage points, one finding per pair.
    let order = order::replay(events);
    let mut pairs = order.inversions();
    for inv in live_inversions {
        let pair = if inv.first <= inv.second {
            (inv.first.clone(), inv.second.clone())
        } else {
            (inv.second.clone(), inv.first.clone())
        };
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    for (first, second) in pairs {
        findings.push(Finding {
            explanation: format!(
                "\"{first}\" and \"{second}\" are acquired in both orders with no revocable \
                 escape; {rationale}"
            ),
            kind: Hazard::LockCycle { locks: vec![first, second] },
            recipe,
        });
    }

    // Commit-protocol integrity: a retry-notifier bump from inside a
    // still-open transaction (one deduplicated finding — the ordering is
    // wrong however many commits exhibit it).
    if integrity::premature_notify(events) {
        findings.push(Finding {
            explanation: format!(
                "a committing transaction bumps the retry notifier before its write-back \
                 publishes; a retrying waiter can revalidate against the unpublished state \
                 and sleep through its only wakeup; {rationale}"
            ),
            kind: Hazard::LostWakeup {
                cv: "retry-notifier".to_string(),
                loc: "stm write-back".to_string(),
            },
            recipe,
        });
    }

    // Wait/notify discipline over named condvars.
    for hazard in cv::cv_hazards(events) {
        let explanation = match &hazard {
            Hazard::WaitCycle { cv, lock } => format!(
                "a thread waits on {cv} still holding \"{lock}\", which a notifying thread \
                 must acquire first; {rationale}"
            ),
            Hazard::LostWakeup { cv, loc } => format!(
                "{cv} is signalled before the state under \"{loc}\" is published, so a waiter \
                 can test a stale predicate and miss the wakeup; {rationale}"
            ),
            _ => unreachable!("cv pass reports only wait-cycle and lost-wakeup hazards"),
        };
        findings.push(Finding { explanation, kind: hazard, recipe });
    }

    // Validator-integrity cross-check: the trace and the live lockdep
    // graph witnessed the same acquisitions; an edge only the trace has
    // means the validator's deadlock graph is silently incomplete.
    for (first, second) in integrity::lockdep_gaps(&order, live_edges) {
        findings.push(Finding {
            explanation: format!(
                "the live lock-order validator has no record of the \"{first}\" -> \
                 \"{second}\" acquisition edge the trace witnessed; its deadlock graph is \
                 incomplete and any cycle through the missing edge goes unreported"
            ),
            kind: Hazard::LockCycle { locks: vec![first, second] },
            recipe: None,
        });
    }

    findings
}

/// The recipe suggestion (and a prose rationale) for scenario `key`, from
/// the paper's decision procedure over the scenario's bug record.
fn suggestion(key: &str) -> (Option<Recipe>, String) {
    let Some(bug) = bug_by_scenario(key) else {
        return (None, "no corpus record for this scenario".to_string());
    };
    match txfix_core::analyze(&bug) {
        Analysis::Fixable(plan) => {
            let mut why = format!("suggested fix: {}", plan.primary);
            if let Some(simpler) = plan.simplified_by {
                why.push_str(&format!(", simplified by {simpler}"));
            }
            (Some(plan.primary), why)
        }
        Analysis::Unfixable(reason) => {
            (None, format!("TM cannot fix this bug ({reason}); see the developers' fix"))
        }
    }
}

/// Run scenario `key`'s `variant` under the trace recorder and the live
/// lockdep validator, then analyze the captured trace.
///
/// Returns `None` for an unknown scenario key.
pub fn analyze_scenario(key: &str, variant: Variant) -> Option<Report> {
    let scenario = scenario_by_key(key)?;
    let (outcome, events, live, live_edges) = {
        let _armed = hooks::arm(LOCKDEP | TRACE);
        lockdep::reset();
        trace::reset();
        let outcome = scenario.run(variant);
        let captured = (outcome, trace::take(), lockdep::inversions(), lockdep::edges());
        lockdep::reset();
        captured
    };

    let findings = analyze_trace(&events, &live, &live_edges, key);
    Some(Report {
        scenario: key.to_string(),
        variant: variant.name().to_string(),
        outcome,
        events: events.len(),
        findings,
    })
}

/// `txfix analyze`: run one scenario variant (default: buggy) under the
/// trace recorder and report what the passes detect.
#[derive(Default)]
pub struct AnalyzeSweep {
    variant: Option<Variant>,
}

impl SweepRunner for AnalyzeSweep {
    fn usage(&self) -> &'static str {
        "\x20 analyze <key> [--variant buggy|dev|tm] [--json]\n\
         \x20                              run a variant (default: buggy) under the trace\n\
         \x20                              recorder and report detected bugs with suggested\n\
         \x20                              fix recipes; exits nonzero on findings"
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("scenario", keys::ALL).one())
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        if flag != "--variant" {
            return Ok(Flag::Unknown);
        }
        self.variant = Some(value.and_then(Variant::parse).ok_or("--variant takes buggy|dev|tm")?);
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let report = analyze_scenario(&args.keys[0], self.variant.unwrap_or(Variant::Buggy))
            .expect("the frame checked the key");
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: !report.has_findings(),
            failure: "",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_stm::trace::{AccessKind, EventKind};

    fn ev(thread: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { thread, kind }
    }

    #[test]
    fn findings_carry_the_scenario_recipe() {
        // av_stats_race is a complete-missing-sync AV: recipe 2.
        let events = [
            ev(
                1,
                EventKind::SharedAccess {
                    object: 1,
                    name: "stats".into(),
                    kind: AccessKind::Write,
                    atomic: false,
                },
            ),
            ev(
                2,
                EventKind::SharedAccess {
                    object: 1,
                    name: "stats".into(),
                    kind: AccessKind::Write,
                    atomic: false,
                },
            ),
        ];
        let findings = analyze_trace(&events, &[], &[], "av_stats_race");
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.recipe == Some(Recipe::WrapAll)), "{findings:?}");
    }

    #[test]
    fn live_and_trace_inversions_deduplicate() {
        let events = [
            ev(1, EventKind::LockAcquired { lock: 1, name: "a".into() }),
            ev(1, EventKind::LockAttempt { lock: 2, name: "b".into(), preemptible: false }),
            ev(1, EventKind::LockAcquired { lock: 2, name: "b".into() }),
            ev(1, EventKind::LockReleased { lock: 2 }),
            ev(1, EventKind::LockReleased { lock: 1 }),
            ev(2, EventKind::LockAcquired { lock: 2, name: "b".into() }),
            ev(2, EventKind::LockAttempt { lock: 1, name: "a".into(), preemptible: false }),
        ];
        let live = vec![lockdep::Inversion { first: "a".to_string(), second: "b".to_string() }];
        let live_edges =
            vec![("a".to_string(), "b".to_string()), ("b".to_string(), "a".to_string())];
        let findings = analyze_trace(&events, &live, &live_edges, "dl_local_lock_order");
        let inversions: Vec<_> =
            findings.iter().filter(|f| matches!(f.kind, Hazard::LockCycle { .. })).collect();
        assert_eq!(inversions.len(), 1, "same pair from both validators: {findings:?}");
        assert_eq!(inversions[0].recipe, Some(Recipe::ReplaceLocks));
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(analyze_scenario("no_such_scenario", Variant::Buggy).is_none());
    }
}
