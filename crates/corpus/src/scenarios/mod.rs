//! Executable reproductions of the 18 implemented fixes.
//!
//! Each scenario packages one studied bug as a small concurrent program
//! with three interchangeable variants. Running the **buggy** variant
//! *demonstrates* the bug — a detected deadlock or an observed invariant
//! violation — under a forced interleaving (barriers pin the racy window,
//! so demonstrations are deterministic, not probabilistic). The
//! **developers' fix** and the **TM fix** run the same workload and must
//! come out clean.
//!
//! Deadlock demonstrations never hang: buggy lock cycles are caught by
//! `txfix-txlock`'s wait-for-graph detector, and lock/wait cycles (which
//! the lock graph cannot see) by watchdog timeouts.

mod atomicity;
mod deadlock;
pub mod scheduled;

pub use scheduled::{scheduled_by_key, scheduled_scenarios, ScheduledRun, ScheduledScenario};

use crate::dataset::keys;
use std::fmt;
use std::fmt::Write as _;
use txfix_core::sweep::{Flag, SweepArgs, SweepOutput, SweepRunner, Universe};

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

/// One executable bug reproduction.
pub trait BugScenario: Send + Sync {
    /// The scenario key (matches
    /// [`BugRecord::scenario`](txfix_core::BugRecord::scenario)).
    fn key(&self) -> &'static str;
    /// Human-readable one-liner.
    fn describe(&self) -> &'static str;
    /// Execute the given variant once and report what was observed.
    fn run(&self, variant: Variant) -> Outcome;
}

/// All 18 scenarios, in corpus order (deadlocks first).
pub fn all_scenarios() -> Vec<Box<dyn BugScenario>> {
    let mut v = deadlock::scenarios();
    v.extend(atomicity::scenarios());
    v
}

/// Look up a scenario by key.
pub fn scenario_by_key(key: &str) -> Option<Box<dyn BugScenario>> {
    all_scenarios().into_iter().find(|s| s.key() == key)
}

/// One line per scenario, key then description (`txfix scenarios`).
pub fn scenario_listing() -> String {
    let lines: Vec<String> =
        all_scenarios().iter().map(|s| format!("{:22} {}", s.key(), s.describe())).collect();
    lines.join("\n")
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
        let mut table = format!("{}: {}\n", s.key(), s.describe());
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
    fn registry_covers_all_18_keys() {
        let scenarios = all_scenarios();
        assert_eq!(scenarios.len(), 18);
        for key in keys::ALL {
            assert!(
                scenarios.iter().any(|s| s.key() == key),
                "scenario {key} missing from registry"
            );
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        for s in all_scenarios() {
            assert!(!s.describe().is_empty(), "{}", s.key());
        }
    }
}
