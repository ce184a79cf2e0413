//! Systematic schedule exploration for the txfix corpus.
//!
//! Stress and chaos testing sample schedules; this crate *enumerates*
//! them. Every corpus row's `scheduled` column
//! ([`txfix_corpus::SCENARIOS`]) runs under the cooperative
//! deterministic scheduler in [`txfix_stm::sched`], which virtualizes
//! every synchronization point (transactional reads/writes/commits, lock
//! acquire/release, condvar wait/notify, traced shared accesses, chaos
//! injection points) and hands the interleaving decision to a pluggable
//! *picker*. Two strategies drive it:
//!
//! - [`dfs`]: bounded exhaustive depth-first search with sleep-set
//!   partial-order reduction — proves absence of bugs in the explored
//!   (reduced) space, exhausts small scenarios outright;
//! - [`pct`]: seeded random-priority scheduling with a preemption bound —
//!   probabilistically digs out shallow races in a few hundred runs.
//!
//! Every failure is replayable bit-for-bit from its decision trace
//! ([`txfix_corpus::replay_picker`]), and is greedily minimized
//! ([`minimize`]) before being reported, so the printed schedule contains
//! only the context switches that matter.

pub mod dfs;
pub mod minimize;
pub mod pct;
pub mod report;

use report::{EntryReport, ExploreReport, FailureReport};
use txfix_core::json::ToJson;
use txfix_core::sweep::{self, Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_corpus::{
    keys, run_schedule, RunResult, ScheduleOutcome, ScheduledRun, Variant, SCENARIOS,
};
use txfix_stm::sched::{self, format_trace};

/// Which exploration strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Bounded exhaustive DFS with sleep-set partial-order reduction.
    Dfs,
    /// Seeded PCT-style random-priority scheduling.
    Pct,
}

impl Strategy {
    /// The name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Dfs => "dfs",
            Strategy::Pct => "pct",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "dfs" => Some(Strategy::Dfs),
            "pct" => Some(Strategy::Pct),
            _ => None,
        }
    }
}

/// Exploration parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Strategy to drive schedules with.
    pub strategy: Strategy,
    /// Maximum schedules per (scenario, variant).
    pub budget: u64,
    /// Base seed. Only PCT reads it; DFS reports record it unread.
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { strategy: Strategy::Dfs, budget: 2_000, seed: 0 }
    }
}

/// Raw result of exploring one schedule space.
pub struct Exploration {
    /// Schedules actually executed.
    pub schedules: u64,
    /// Schedules pruned by sleep sets (DFS only).
    pub pruned: u64,
    /// Schedules cut off by the step bound.
    pub step_limited: u64,
    /// Whether the (reduced) space was fully enumerated within budget
    /// (DFS only; PCT never exhausts).
    pub exhausted: bool,
    /// The first failing schedule, if any.
    pub failure: Option<ScheduleOutcome>,
}

/// Explore an ad-hoc [`ScheduledRun`] builder — the programmatic entry
/// point for callers that synthesize their own runs (fix inference
/// verifies patched scenarios this way) rather than naming a corpus row.
///
/// Holds the scheduler's arming guard for the whole exploration
/// ([`sched::run_exclusively`], re-entrant).
pub fn explore_build(
    build: &dyn Fn(Variant) -> ScheduledRun,
    variant: Variant,
    cfg: &ExploreConfig,
) -> Exploration {
    sched::run_exclusively(|| drive(build, variant, cfg))
}

fn drive(
    build: &dyn Fn(Variant) -> ScheduledRun,
    variant: Variant,
    cfg: &ExploreConfig,
) -> Exploration {
    match cfg.strategy {
        Strategy::Dfs => {
            let out = dfs::explore_dfs(build, variant, cfg.budget);
            Exploration {
                schedules: out.schedules,
                pruned: out.pruned,
                step_limited: out.step_limited,
                exhausted: out.exhausted,
                failure: out.failure,
            }
        }
        Strategy::Pct => {
            let mut ex = Exploration {
                schedules: 0,
                pruned: 0,
                step_limited: 0,
                exhausted: false,
                failure: None,
            };
            for index in 0..cfg.budget {
                let outcome = run_schedule(build(variant), pct::pct_picker(cfg.seed, index));
                ex.schedules += 1;
                match outcome.result {
                    RunResult::StepLimit => ex.step_limited += 1,
                    RunResult::Bug(_) => {
                        ex.failure = Some(outcome);
                        break;
                    }
                    RunResult::Pass | RunResult::Pruned => {}
                }
            }
            ex
        }
    }
}

/// Explore one variant of scenario `key`, built by `build` (the row's
/// `scheduled` column), and report against its expectation: buggy
/// variants must break within budget, fixed variants must survive every
/// explored schedule.
pub fn explore_variant(
    key: &str,
    build: fn(Variant) -> ScheduledRun,
    variant: Variant,
    cfg: &ExploreConfig,
) -> EntryReport {
    // The scheduler is process-global: hold its gate for the whole
    // exploration (including minimization re-executions).
    sched::run_exclusively(|| {
        let ex = drive(&build, variant, cfg);
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
pub fn explore_corpus(
    selected: impl Fn(&str) -> bool,
    variants: &[Variant],
    cfg: &ExploreConfig,
) -> ExploreReport {
    let mut entries = Vec::new();
    for s in SCENARIOS.iter().filter(|s| selected(s.key)) {
        for &variant in variants {
            entries.push(explore_variant(s.key, s.scheduled, variant, cfg));
        }
    }
    ExploreReport {
        strategy: cfg.strategy.name().to_string(),
        budget: cfg.budget,
        seed: cfg.seed,
        entries,
    }
}

/// `txfix explore`: model-check the selected scenarios.
#[derive(Default)]
pub struct ExploreSweep {
    cfg: ExploreConfig,
    only: Option<Variant>,
}

impl SweepRunner for ExploreSweep {
    fn usage(&self) -> &'static str {
        "\x20 explore [<key>|--all] [--variant buggy|dev|tm] [--strategy dfs|pct]\n\
         \x20         [--budget N] [--seed S]\n\
         \x20                              model-check scenario schedules under the\n\
         \x20                              deterministic scheduler: every buggy variant\n\
         \x20                              must break within budget (failing schedule\n\
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

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        match flag {
            "--variant" => {
                self.only =
                    Some(value.and_then(Variant::parse).ok_or("--variant takes buggy|dev|tm")?)
            }
            "--strategy" => {
                self.cfg.strategy =
                    value.and_then(Strategy::parse).ok_or("--strategy takes dfs|pct")?
            }
            "--budget" => self.cfg.budget = sweep::positive(flag, value)?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let variants = self.only.map_or(Variant::ALL.to_vec(), |v| vec![v]);
        let report = explore_corpus(|key| args.selects(key), &variants, &self.cfg);
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok(),
            failure: "exploration expectations not met",
        })
    }
}
