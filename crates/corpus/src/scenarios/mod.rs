//! The corpus table: one [`Scenario`] row per implemented fix.
//!
//! [`SCENARIOS`] is the single registry of the 18 studied bugs the paper
//! implemented and tested. A row is the bug's key and one-liner plus its
//! three executable forms as columns:
//!
//! - `run` — the **demonstration** (`atomicity`, `deadlock`): a small
//!   concurrent program with three interchangeable variants. Running the
//!   **buggy** variant *demonstrates* the bug — a detected deadlock or an
//!   observed invariant violation — under a forced interleaving (barriers
//!   pin the racy window, so demonstrations are deterministic, not
//!   probabilistic). The **developers' fix** and the **TM fix** run the
//!   same workload and must come out clean. Deadlock demonstrations never
//!   hang: buggy lock cycles are caught by `txfix-txlock`'s
//!   wait-for-graph detector, and lock/wait cycles (which the lock graph
//!   cannot see) by watchdog timeouts.
//! - `scheduled` — the **explorer form** ([`scheduled`]), for the ten bugs
//!   that have one: plain thread bodies the deterministic scheduler can
//!   drive through every interleaving (`txfix explore`).
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

mod atomicity;
mod deadlock;
pub mod scheduled;

pub use scheduled::ScheduledRun;

use crate::dataset::keys;
use crate::summaries::{self, Written};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Barrier;
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

/// One studied bug: its key, its one-liner and its three executable
/// forms. The rows are [`SCENARIOS`].
#[derive(Clone, Copy)]
pub struct Scenario {
    /// The scenario key (matches
    /// [`BugRecord::scenario`](txfix_core::BugRecord::scenario)).
    pub key: &'static str,
    /// Human-readable one-liner.
    pub describe: &'static str,
    /// The barrier-pinned demonstration: execute the given variant once
    /// and report what was observed.
    pub run: fn(Variant) -> Outcome,
    /// The explorer form — a fresh run of the given variant for the
    /// deterministic scheduler — where the bug has one.
    pub scheduled: Option<fn(Variant) -> ScheduledRun>,
    /// The hand-written static models; read through
    /// [`Scenario::summary`].
    model: fn(Written) -> ScenarioSummary,
}

impl Scenario {
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
        run: deadlock::mozilla_i,
        scheduled: Some(scheduled::mozilla_i),
        model: summaries::mozilla_i,
    },
    Scenario {
        key: keys::DL_CACHE_ATOMTABLE,
        describe: "cache and atom-table locks acquired in opposite orders by two subsystems; \
                   Recipe 1 replaces both with atomic regions",
        run: deadlock::dl_cache_atomtable,
        scheduled: None,
        model: summaries::dl_cache_atomtable,
    },
    Scenario {
        key: keys::DL_THREE_LOCK_CYCLE,
        describe: "three threads each take lock i then lock (i+1)%3, forming a three-party cycle",
        run: deadlock::dl_three_lock_cycle,
        scheduled: None,
        model: summaries::dl_three_lock_cycle,
    },
    Scenario {
        key: keys::DL_INTENTIONAL_RACE,
        describe: "frustrated developers removed a lock acquisition to break the cycle, shipping \
                   a data race; the TM fix gets atomicity AND deadlock-freedom",
        run: deadlock::dl_intentional_race,
        scheduled: None,
        model: summaries::dl_intentional_race,
    },
    Scenario {
        key: keys::APACHE_I,
        describe: "listener waits for an idle worker while holding the timeout mutex the workers \
                   need; Recipe 3 makes the mutex revocable and replaces the wait with retry",
        run: deadlock::apache_i,
        scheduled: None,
        model: summaries::apache_i,
    },
    Scenario {
        key: keys::DL_LOCAL_LOCK_ORDER,
        describe: "both acquisitions live in one function, so the developers' one-line order \
                   swap is as easy as TM — the case where the paper favors the lock fix",
        run: deadlock::dl_local_lock_order,
        scheduled: Some(scheduled::dl_local_lock_order),
        model: summaries::dl_local_lock_order,
    },
    Scenario {
        key: keys::DL_MYSQL_TABLE_PAIR,
        describe: "a join locks tables in query order while maintenance locks them in index \
                   order; the TM fix keeps the table locks but acquires them preemptibly",
        run: deadlock::dl_mysql_table_pair,
        scheduled: None,
        model: summaries::dl_mysql_table_pair,
    },
    Scenario {
        key: keys::AV_WRONG_LOCK,
        describe: "one code path guards the cache counter with the wrong lock, so it races with \
                   the correctly locked path; Recipe 4 wraps only the mis-locked region",
        run: atomicity::av_wrong_lock,
        scheduled: None,
        model: summaries::av_wrong_lock,
    },
    Scenario {
        key: keys::AV_REFCOUNT_RACE,
        describe: "two releases read the same reference count and both store count-1, leaking \
                   the object; Recipe 2 wraps the check-and-decrement in one atomic block",
        run: atomicity::av_refcount_race,
        scheduled: Some(scheduled::av_refcount_race),
        model: summaries::av_refcount_race,
    },
    Scenario {
        key: keys::AV_LAZY_INIT,
        describe: "check-then-initialize without atomicity constructs the singleton twice",
        run: atomicity::av_lazy_init,
        scheduled: Some(scheduled::av_lazy_init),
        model: summaries::av_lazy_init,
    },
    Scenario {
        key: keys::AV_CV_PARTIAL,
        describe: "a producer updates the item count outside the consumer's monitor, so the \
                   signal can fire before the state it announces exists (lost wakeup)",
        run: atomicity::av_cv_partial,
        scheduled: Some(scheduled::av_cv_partial),
        model: summaries::av_cv_partial,
    },
    Scenario {
        key: keys::AV_SCOREBOARD,
        describe: "two workers scan the scoreboard, find the same free slot and both claim it",
        run: atomicity::av_scoreboard,
        scheduled: None,
        model: summaries::av_scoreboard,
    },
    Scenario {
        key: keys::APACHE_II,
        describe: "unsynchronized buffer+cursor in ap_buffered_log_writer garbles the access \
                   log; Recipe 2 wraps the function body with the flush as a deferred x-call",
        run: atomicity::apache_ii,
        scheduled: Some(scheduled::apache_ii),
        model: summaries::apache_ii,
    },
    Scenario {
        key: keys::AV_PAIR_INVARIANT,
        describe: "request and byte counters must move together; a reader between the two \
                   stores sees them disagree",
        run: atomicity::av_pair_invariant,
        scheduled: None,
        model: summaries::av_pair_invariant,
    },
    Scenario {
        key: keys::AV_LOG_SEQUENCE,
        describe: "the sequence number is read, the record written, then the counter stored — \
                   two writers emit the same sequence number",
        run: atomicity::av_log_sequence,
        scheduled: Some(scheduled::av_log_sequence),
        model: summaries::av_log_sequence,
    },
    Scenario {
        key: keys::AV_STATS_RACE,
        describe: "handler statistics are bumped with read-modify-write sequences that interleave",
        run: atomicity::av_stats_race,
        scheduled: Some(scheduled::av_stats_race),
        model: summaries::av_stats_race,
    },
    Scenario {
        key: keys::MYSQL_I,
        describe: "the optimized DELETE releases lock_open before logging, so binlog replay \
                   diverges from the server's tables; Recipe 4 wraps delete+log in a serialized \
                   atomic section",
        run: atomicity::mysql_i,
        scheduled: Some(scheduled::mysql_i),
        model: summaries::mysql_i,
    },
    Scenario {
        key: keys::AV_ADHOC_RETRY,
        describe: "a do-it-yourself optimistic-concurrency scheme validates with a plain load \
                   and loses updates; a memory transaction replaces the whole machinery",
        run: atomicity::av_adhoc_retry,
        scheduled: Some(scheduled::av_adhoc_retry),
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

/// Run `f` on two threads sharing a barrier (pins the racy window).
fn two_threads(f: impl Fn(usize, &Barrier) + Sync) {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let f = &f;
            let barrier = &barrier;
            s.spawn(move || f(t, barrier));
        }
    });
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
            let _ = match (s.run)(v) {
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

        let scheduled: Vec<&str> =
            SCENARIOS.iter().filter(|s| s.scheduled.is_some()).map(|s| s.key).collect();
        assert_eq!(
            scheduled,
            [
                keys::MOZILLA_I,
                keys::DL_LOCAL_LOCK_ORDER,
                keys::AV_REFCOUNT_RACE,
                keys::AV_LAZY_INIT,
                keys::AV_CV_PARTIAL,
                keys::APACHE_II,
                keys::AV_LOG_SEQUENCE,
                keys::AV_STATS_RACE,
                keys::MYSQL_I,
                keys::AV_ADHOC_RETRY,
            ],
            "the explorer's universe"
        );

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
