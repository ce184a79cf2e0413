//! Systematic schedule exploration for the txfix corpus.
//!
//! Stress and chaos testing sample schedules; this crate *enumerates*
//! them. Every corpus row's `scheduled` column
//! ([`txfix_corpus::SCENARIOS`]) runs under the cooperative
//! deterministic scheduler in [`txfix_stm::sched`], which virtualizes
//! every synchronization point (transactional reads/writes/commits, lock
//! acquire/release, condvar wait/notify, traced shared accesses, chaos
//! injection points) and hands the interleaving decision to a pluggable
//! *picker*. One strategy drives it: [`dfs`], bounded exhaustive
//! depth-first search with sleep-set partial-order reduction, which finds
//! every corpus bug within a few dozen schedules and proves the absence
//! of bugs in the explored (reduced) space when it exhausts it.
//!
//! Every failure is replayable bit-for-bit from its decision trace
//! ([`txfix_corpus::replay_picker`]), and is greedily minimized
//! ([`minimize`]) before being reported, so the printed schedule contains
//! only the context switches that matter.

pub mod dfs;
pub mod minimize;
pub mod report;

use dfs::DfsOutcome;
use report::{EntryReport, ExploreReport, FailureReport};
use txfix_core::json::ToJson;
use txfix_core::sweep::{Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_corpus::{keys, RunResult, ScheduledRun, Variant, SCENARIOS};
use txfix_stm::sched::{self, format_trace};

/// Maximum schedules (executed plus pruned) per explored build.
pub const BUDGET: u64 = 2_000;

/// Explore an ad-hoc [`ScheduledRun`] builder — the programmatic entry
/// point for callers that synthesize their own runs (fix inference
/// verifies patched scenarios this way) rather than naming a corpus row.
///
/// Holds the scheduler's arming guard for the whole exploration
/// ([`sched::run_exclusively`], re-entrant).
pub fn explore_build(build: &dyn Fn(Variant) -> ScheduledRun, variant: Variant) -> DfsOutcome {
    sched::run_exclusively(|| dfs::explore_dfs(build, variant, BUDGET))
}

/// Explore one variant of scenario `key`, built by `build` (the row's
/// `scheduled` column), and report against its expectation: buggy
/// variants must break within budget, fixed variants must survive every
/// explored schedule.
pub fn explore_variant(
    key: &str,
    build: fn(Variant) -> ScheduledRun,
    variant: Variant,
) -> EntryReport {
    // The scheduler is process-global: hold its gate for the whole
    // exploration (including minimization re-executions).
    sched::run_exclusively(|| {
        let ex = dfs::explore_dfs(&build, variant, BUDGET);
        let failure = ex.failure.map(|raw| {
            let found_after = ex.schedules;
            // Greedily strip incidental context switches before reporting.
            let slots: Vec<usize> = raw.log.events.iter().map(|&(s, _)| s).collect();
            let minimized = minimize::minimize_failure(&build, variant, slots).unwrap_or(raw);
            let message = match &minimized.result {
                RunResult::Bug(m) => m.clone(),
                _ => unreachable!("minimizer only returns failing runs"),
            };
            FailureReport {
                message,
                trace: format_trace(&minimized.log.trace()),
                depth: minimized.log.decisions.len() as u64,
                preemptions: minimized.log.preemptions(),
                found_after,
            }
        });
        let ok = match variant {
            Variant::Buggy => failure.is_some(),
            Variant::DevFix | Variant::TmFix => failure.is_none(),
        };
        EntryReport {
            key: key.to_string(),
            variant: variant.name().to_string(),
            schedules: ex.schedules,
            pruned: ex.pruned,
            step_limited: ex.step_limited,
            exhausted: ex.exhausted,
            failure,
            ok,
        }
    })
}

/// Sweep the scenarios whose key `selected` admits, in corpus order,
/// across the requested variants.
pub fn explore_corpus(selected: impl Fn(&str) -> bool, variants: &[Variant]) -> ExploreReport {
    let mut entries = Vec::new();
    for s in SCENARIOS.iter().filter(|s| selected(s.key)) {
        for &variant in variants {
            entries.push(explore_variant(s.key, s.scheduled, variant));
        }
    }
    ExploreReport { entries }
}

/// `txfix explore`: model-check the selected scenarios.
#[derive(Default)]
pub struct ExploreSweep {
    only: Option<Variant>,
}

impl SweepRunner for ExploreSweep {
    fn usage(&self) -> &'static str {
        "\x20 explore [<key>|--all] [--variant buggy|dev|tm]\n\
         \x20                              model-check scenario schedules by DFS under\n\
         \x20                              the deterministic scheduler: every buggy variant\n\
         \x20                              must break within 2 000 schedules (failing schedule\n\
         \x20                              minimized and printed), every fixed variant\n\
         \x20                              must survive all explored schedules; writes\n\
         \x20                              EXPLORE_stm.json; exits nonzero on violations"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("EXPLORE_stm.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("scenario", keys::ALL))
    }

    // DFS, which no seed steers.
    fn takes_seed(&self) -> bool {
        false
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        if flag != "--variant" {
            return Ok(Flag::Unknown);
        }
        self.only = Some(value.and_then(Variant::parse).ok_or("--variant takes buggy|dev|tm")?);
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let variants = self.only.map_or(Variant::ALL.to_vec(), |v| vec![v]);
        let report = explore_corpus(|key| args.selects(key), &variants);
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok(),
            failure: "exploration expectations not met",
        })
    }
}
