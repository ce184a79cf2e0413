//! The corpus table: one [`Scenario`] row per implemented fix.
//!
//! [`SCENARIOS`] is the single registry of the 18 studied bugs the paper
//! implemented and tested. A row is the bug's key and one-liner plus its
//! two forms as columns:
//!
//! - `scheduled` — the **executable form** ([`scheduled`]): a small
//!   concurrent program with three interchangeable variants, as plain
//!   thread bodies the deterministic scheduler drives. The explorer
//!   (`txfix explore`) runs it under every interleaving it reaches;
//!   [`Scenario::run`] replays one pinned schedule. The **buggy** variant
//!   replays `bug_trace`, the explorer's minimised failing decision
//!   trace, and so *demonstrates* the bug — a refused lock acquisition, a
//!   deadlock stop or an invariant violation — on every run. The
//!   **developers' fix** and the **TM fix** replay the lowest-slot
//!   schedule (the empty trace) and must come out clean.
//! - `model` — the **static model**, read through [`Scenario::summary`]:
//!   the variant's critical-section summary for `txfix lint` /
//!   `autofix`. Only the buggy and developer models are written by hand
//!   ([`crate::summaries`]); the TM model is the fix inference derives
//!   from the buggy one.
//!
//! Every consumer — `scenario`, `analyze`, `lint`, `explore`, `autofix`,
//! `list`, the canary probes — reads rows; `keys::ALL` is the table's key
//! column. **Adding a bug is adding one row** (plus the functions it
//! names and the `keys` constant its `BugRecord` carries).

pub mod scheduled;

pub use scheduled::{
    replay_picker, run_schedule, RunResult, ScheduleOutcome, ScheduledRun, DEFAULT_MAX_STEPS,
};

use crate::dataset::keys;
use crate::summaries::{self, Written};
use std::fmt;
use std::fmt::Write as _;
use txfix_core::sweep::{Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_static::{infer, ScenarioSummary};

/// Which implementation of the scenario to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The code as shipped, exhibiting the bug.
    Buggy,
    /// What the application developers did.
    DevFix,
    /// The paper's TM fix (per the bug's recipe).
    TmFix,
}

impl Variant {
    /// All variants.
    pub const ALL: [Variant; 3] = [Variant::Buggy, Variant::DevFix, Variant::TmFix];

    /// Short name for reports and the CLI (`buggy` / `dev` / `tm`).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Buggy => "buggy",
            Variant::DevFix => "dev",
            Variant::TmFix => "tm",
        }
    }

    /// Inverse of [`name`](Variant::name): the value of `--variant`.
    pub fn parse(s: &str) -> Option<Variant> {
        match s {
            "buggy" => Some(Variant::Buggy),
            "dev" => Some(Variant::DevFix),
            "tm" => Some(Variant::TmFix),
            _ => None,
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::Buggy => write!(f, "buggy"),
            Variant::DevFix => write!(f, "developer fix"),
            Variant::TmFix => write!(f, "TM fix"),
        }
    }
}

/// What a scenario run observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The workload completed with every invariant intact.
    Correct,
    /// The bug manifested (deadlock detected / invariant violated), with a
    /// description of what was seen.
    BugObserved(String),
}

impl Outcome {
    /// Whether the bug manifested.
    pub fn is_bug(&self) -> bool {
        matches!(self, Outcome::BugObserved(_))
    }
}

/// One studied bug: its key, its one-liner, its executable form and its
/// static models. The rows are [`SCENARIOS`].
#[derive(Clone, Copy)]
pub struct Scenario {
    /// The scenario key (matches
    /// [`BugRecord::scenario`](txfix_core::BugRecord::scenario)).
    pub key: &'static str,
    /// Human-readable one-liner.
    pub describe: &'static str,
    /// The executable form: a fresh run of the given variant for the
    /// deterministic scheduler.
    pub scheduled: fn(Variant) -> ScheduledRun,
    /// The schedule the buggy variant replays: the explorer's minimised
    /// failing decision trace (`EXPLORE_stm.json`'s buggy entry).
    pub bug_trace: &'static [usize],
    /// The hand-written static models; read through
    /// [`Scenario::summary`].
    model: fn(Written) -> ScenarioSummary,
}

impl Scenario {
    /// Execute variant `v` once on its pinned schedule — the buggy
    /// variant on [`bug_trace`](Scenario::bug_trace), a fix on the
    /// lowest-slot schedule — and return the scheduler's record with the
    /// verdict. A trace that no longer fits the execution stops the run
    /// with a `replay diverged` bug rather than running another schedule.
    pub fn replay(&self, v: Variant) -> ScheduleOutcome {
        let trace = if v == Variant::Buggy { self.bug_trace } else { &[] };
        run_schedule((self.scheduled)(v), DEFAULT_MAX_STEPS, replay_picker(trace.to_vec()))
    }

    /// Execute variant `v` once on its pinned schedule (see
    /// [`replay`](Scenario::replay)) and report what was observed.
    pub fn run(&self, v: Variant) -> Outcome {
        match self.replay(v).result {
            RunResult::Pass => Outcome::Correct,
            RunResult::Bug(msg) => Outcome::BugObserved(msg),
            RunResult::StepLimit => {
                Outcome::BugObserved(format!("livelock: over {DEFAULT_MAX_STEPS} steps"))
            }
            RunResult::Pruned => unreachable!("a replay picker never prunes"),
        }
    }

    /// The static model: the given variant's critical-section summary.
    /// The buggy and developer models are written by hand
    /// ([`crate::summaries`]); the TM model is derived, as the fix
    /// [`infer`] finds for the buggy one.
    ///
    /// # Panics
    ///
    /// If inference fails on the buggy model; the corpus tests pin that
    /// it succeeds on every row.
    pub fn summary(&self, v: Variant) -> ScenarioSummary {
        match v {
            Variant::Buggy => (self.model)(Written::Buggy),
            Variant::DevFix => (self.model)(Written::DevFix),
            Variant::TmFix => {
                let inferred = infer(&self.summary(Variant::Buggy))
                    .unwrap_or_else(|e| panic!("no TM model for {}: {e}", self.key));
                ScenarioSummary { variant: v.name().to_string(), ..inferred.patched }
            }
        }
    }
}

/// All 18 scenarios, in corpus order (deadlocks first).
pub const SCENARIOS: [Scenario; 18] = [
    Scenario {
        key: keys::MOZILLA_I,
        describe: "claiming an object's scope while holding setSlotLock deadlocks against the \
                   scope's blocked owner; Recipe 1 deletes the ownership protocol entirely",
        scheduled: scheduled::mozilla_i,
        bug_trace: &[0, 0, 0, 0, 0, 0],
        model: summaries::mozilla_i,
    },
    Scenario {
        key: keys::DL_CACHE_ATOMTABLE,
        describe: "cache and atom-table locks acquired in opposite orders by two subsystems; \
                   Recipe 1 replaces both with atomic regions",
        scheduled: scheduled::dl_cache_atomtable,
        bug_trace: &[0, 1, 1, 0, 0, 0, 0, 0],
        model: summaries::dl_cache_atomtable,
    },
    Scenario {
        key: keys::DL_THREE_LOCK_CYCLE,
        describe: "three threads each take lock i then lock (i+1)%3, forming a three-party cycle",
        scheduled: scheduled::dl_three_lock_cycle,
        bug_trace: &[2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        model: summaries::dl_three_lock_cycle,
    },
    Scenario {
        key: keys::DL_INTENTIONAL_RACE,
        describe: "frustrated developers removed a lock acquisition to break the cycle, shipping \
                   a data race; the TM fix gets atomicity AND deadlock-freedom",
        scheduled: scheduled::dl_intentional_race,
        bug_trace: &[0, 1, 1, 0, 0, 0, 0, 0],
        model: summaries::dl_intentional_race,
    },
    Scenario {
        key: keys::APACHE_I,
        describe: "listener waits for an idle worker while holding the timeout mutex the workers \
                   need; Recipe 3 makes the mutex revocable and replaces the wait with retry",
        scheduled: scheduled::apache_i,
        bug_trace: &[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        model: summaries::apache_i,
    },
    Scenario {
        key: keys::DL_LOCAL_LOCK_ORDER,
        describe: "both acquisitions live in one function, so the developers' one-line order \
                   swap is as easy as TM — the case where the paper favors the lock fix",
        scheduled: scheduled::dl_local_lock_order,
        bug_trace: &[0, 1, 1, 0, 0, 0, 0, 0],
        model: summaries::dl_local_lock_order,
    },
    Scenario {
        key: keys::DL_MYSQL_TABLE_PAIR,
        describe: "a join locks tables in query order while maintenance locks them in index \
                   order; the TM fix keeps the table locks but acquires them preemptibly",
        scheduled: scheduled::dl_mysql_table_pair,
        bug_trace: &[0, 1, 1, 0, 0, 0, 0, 0],
        model: summaries::dl_mysql_table_pair,
    },
    Scenario {
        key: keys::AV_WRONG_LOCK,
        describe: "one code path guards the cache counter with the wrong lock, so it races with \
                   the correctly locked path; Recipe 4 wraps only the mis-locked region",
        scheduled: scheduled::av_wrong_lock,
        bug_trace: &[0, 0, 1, 1, 1, 1, 0, 0],
        model: summaries::av_wrong_lock,
    },
    Scenario {
        key: keys::AV_REFCOUNT_RACE,
        describe: "two releases read the same reference count and both store count-1, leaking \
                   the object; Recipe 2 wraps the check-and-decrement in one atomic block",
        scheduled: scheduled::av_refcount_race,
        bug_trace: &[0, 1, 1, 0],
        model: summaries::av_refcount_race,
    },
    Scenario {
        key: keys::AV_LAZY_INIT,
        describe: "check-then-initialize without atomicity constructs the singleton twice",
        scheduled: scheduled::av_lazy_init,
        bug_trace: &[0, 1, 1, 0],
        model: summaries::av_lazy_init,
    },
    Scenario {
        key: keys::AV_CV_PARTIAL,
        describe: "a producer updates the item count outside the consumer's monitor, so the \
                   signal can fire before the state it announces exists (lost wakeup)",
        scheduled: scheduled::av_cv_partial,
        bug_trace: &[1, 1, 0, 1, 1, 1, 0, 0],
        model: summaries::av_cv_partial,
    },
    Scenario {
        key: keys::AV_SCOREBOARD,
        describe: "two workers scan the scoreboard, find the same free slot and both claim it",
        scheduled: scheduled::av_scoreboard,
        bug_trace: &[0, 1, 1, 0],
        model: summaries::av_scoreboard,
    },
    Scenario {
        key: keys::APACHE_II,
        describe: "unsynchronized buffer+cursor in ap_buffered_log_writer garbles the access \
                   log; Recipe 2 wraps the function body with the flush as a deferred x-call",
        scheduled: scheduled::apache_ii,
        bug_trace: &[0, 0, 1, 1, 1, 0],
        model: summaries::apache_ii,
    },
    Scenario {
        key: keys::AV_PAIR_INVARIANT,
        describe: "request and byte counters must move together; a reader between the two \
                   stores sees them disagree",
        scheduled: scheduled::av_pair_invariant,
        bug_trace: &[0, 1, 1, 0],
        model: summaries::av_pair_invariant,
    },
    Scenario {
        key: keys::AV_LOG_SEQUENCE,
        describe: "the sequence number is read, the record written, then the counter stored — \
                   two writers emit the same sequence number",
        scheduled: scheduled::av_log_sequence,
        bug_trace: &[0, 0, 1, 1, 1, 0],
        model: summaries::av_log_sequence,
    },
    Scenario {
        key: keys::AV_STATS_RACE,
        describe: "handler statistics are bumped with read-modify-write sequences that interleave",
        scheduled: scheduled::av_stats_race,
        bug_trace: &[0, 1, 1, 0],
        model: summaries::av_stats_race,
    },
    Scenario {
        key: keys::MYSQL_I,
        describe: "the optimized DELETE releases lock_open before logging, so binlog replay \
                   diverges from the server's tables; Recipe 4 wraps delete+log in a serialized \
                   atomic section",
        scheduled: scheduled::mysql_i,
        bug_trace: &[1, 0, 0, 0],
        model: summaries::mysql_i,
    },
    Scenario {
        key: keys::AV_ADHOC_RETRY,
        describe: "a do-it-yourself optimistic-concurrency scheme validates with a plain load \
                   and loses updates; a memory transaction replaces the whole machinery",
        scheduled: scheduled::av_adhoc_retry,
        bug_trace: &[0, 0, 0, 1, 1, 1, 1, 1, 0, 0],
        model: summaries::av_adhoc_retry,
    },
];

/// The row for `key`.
pub fn scenario_by_key(key: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.key == key)
}

/// One line per scenario, key then description (`txfix scenarios`).
pub fn scenario_listing() -> String {
    SCENARIOS.map(|s| format!("{:22} {}", s.key, s.describe)).join("\n")
}

/// `txfix scenario`: run one reproduction's variants and print what each
/// run observed.
#[derive(Default)]
pub struct ScenarioSweep {
    only: Option<Variant>,
}

impl SweepRunner for ScenarioSweep {
    fn usage(&self) -> &'static str {
        "\x20 scenario <key> [--variant buggy|dev|tm]\n\
         \x20                              run a reproduction (default: all three variants)"
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("scenario", keys::ALL).one())
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        if flag != "--variant" {
            return Ok(Flag::Unknown);
        }
        self.only = Some(value.and_then(Variant::parse).ok_or("--variant takes buggy|dev|tm")?);
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        if args.json {
            return Err("scenario has no JSON form".into());
        }
        let s = scenario_by_key(&args.keys[0]).expect("the frame checked the key");
        let mut table = format!("{}: {}\n", s.key, s.describe);
        for v in self.only.map_or(Variant::ALL.to_vec(), |v| vec![v]) {
            let _ = match s.run(v) {
                Outcome::Correct => write!(table, "\n  {v:13} -> clean"),
                Outcome::BugObserved(msg) => write!(table, "\n  {v:13} -> BUG: {msg}"),
            };
        }
        Ok(SweepOutput { rendered: String::new(), table, ok: true, failure: "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_the_registry() {
        let table_keys = SCENARIOS.map(|s| s.key);
        assert_eq!(keys::ALL, table_keys, "keys::ALL is the key column, in row order");
        let mut unique = table_keys.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), SCENARIOS.len(), "duplicate scenario key");
        for bug in crate::all_bugs() {
            if let Some(key) = bug.scenario {
                assert!(scenario_by_key(key).is_some(), "{}: no row for scenario {key}", bug.id);
            }
        }

        for row in SCENARIOS {
            assert!(!row.describe.is_empty(), "{}", row.key);
            for v in Variant::ALL {
                let s = row.summary(v);
                s.validate().unwrap_or_else(|e| panic!("{} ({v:?}): {e}", row.key));
                assert_eq!(s.key, row.key);
                assert_eq!(s.variant, v.name());
                assert!(s.paths.len() >= 2, "{} ({v:?}) models fewer than two paths", row.key);
            }
        }
    }

    /// A derived TM model is the buggy model with synchronization
    /// rewritten and nothing else: the same paths, each making the same
    /// data accesses in the same order. It is a fixpoint of the pipeline
    /// that derived it: lint-clean, and nothing left to infer.
    #[test]
    fn derived_tm_models_keep_the_buggy_accesses_and_are_fixpoints() {
        let accesses = |s: &ScenarioSummary| -> Vec<(String, Vec<txfix_static::Op>)> {
            let data = |p: &txfix_static::PathSummary| {
                p.ops.iter().filter(|op| op.loc().is_some()).cloned().collect()
            };
            s.paths.iter().map(|p| (p.name.clone(), data(p))).collect()
        };
        for row in SCENARIOS {
            let (buggy, tm) = (row.summary(Variant::Buggy), row.summary(Variant::TmFix));
            assert_eq!(accesses(&tm), accesses(&buggy), "{}: the fix moved a data access", row.key);
            assert_eq!(tm.groups, buggy.groups, "{}", row.key);
            let lint = txfix_static::lint_summary(&tm, None)
                .unwrap_or_else(|e| panic!("{}: derived TM model invalid: {e}", row.key));
            assert!(!lint.has_findings(), "{}: derived TM model is not lint-clean", row.key);
            let again = infer(&tm).expect("a clean summary infers trivially");
            assert!(
                again.regions.is_empty(),
                "{}: re-inference planned {:?}",
                row.key,
                again.regions
            );
        }
    }
}
