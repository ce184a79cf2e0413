//! The `txfix-explore-v2` report format.
//!
//! Deliberately excludes wall-clock time and anything else
//! non-deterministic: CI runs the sweep twice and byte-compares the JSON
//! to prove replayability, so every field must be a pure function of
//! `(corpus, budget)`. v2 is v1 without the `strategy` and `seed` keys:
//! DFS is the only strategy, and no seed steers it.

use std::fmt::Write as _;
use txfix_core::json::{Json, ToJson};

/// Format identifier.
pub const FORMAT: &str = "txfix-explore-v2";

/// Details of the first failing schedule for a buggy variant, after
/// minimization.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// What broke (invariant message, deadlock description, panic).
    pub message: String,
    /// Replayable decision trace in `a.b.c` form.
    pub trace: String,
    /// Scheduling decisions in the failing schedule.
    pub depth: u64,
    /// Context switches in the (minimized) failing schedule.
    pub preemptions: u64,
    /// Schedules executed before this one failed (1-based ordinal).
    pub found_after: u64,
}

/// One (scenario, variant) exploration.
#[derive(Clone, Debug)]
pub struct EntryReport {
    /// Corpus key.
    pub key: String,
    /// Variant name (`buggy` / `dev` / `tm`).
    pub variant: String,
    /// Schedules run to a verdict.
    pub schedules: u64,
    /// Schedules abandoned by partial-order reduction.
    pub pruned: u64,
    /// Schedules that hit the step bound (inconclusive).
    pub step_limited: u64,
    /// True if DFS exhausted the reduced state space within budget.
    pub exhausted: bool,
    /// The failure, for buggy variants that broke (expected) or fixed
    /// variants that broke (a finding!).
    pub failure: Option<FailureReport>,
    /// Whether the outcome matches the variant's expectation: buggy must
    /// fail within budget, dev/tm must survive every explored schedule.
    pub ok: bool,
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Every explored (scenario, variant).
    pub entries: Vec<EntryReport>,
}

impl ExploreReport {
    /// True if every entry met its expectation.
    pub fn ok(&self) -> bool {
        self.entries.iter().all(|e| e.ok)
    }

    /// Human-readable table, one row per (scenario, variant); an expected
    /// failure is followed by the line that replays it.
    pub fn table(&self) -> String {
        let mut table = format!(
            "{:18} {:5} {:>9} {:>7} {:>8}  verdict",
            "scenario", "var", "schedules", "pruned", "exhaust"
        );
        for e in &self.entries {
            let verdict = match (&e.failure, e.ok) {
                (Some(f), true) => format!(
                    "bug @ schedule {} (depth {}, {} preemptions): {}",
                    f.found_after, f.depth, f.preemptions, f.message
                ),
                (Some(f), false) => {
                    format!("FIXED VARIANT BROKE: {} [trace {}]", f.message, f.trace)
                }
                (None, true) => "clean".to_string(),
                (None, false) => "NO BUG FOUND within budget".to_string(),
            };
            let _ = write!(
                table,
                "\n{:18} {:5} {:>9} {:>7} {:>8}  {}",
                e.key,
                e.variant,
                e.schedules,
                e.pruned,
                if e.exhausted { "yes" } else { "no" },
                verdict
            );
            if let (Some(f), true) = (&e.failure, e.ok) {
                let _ = write!(table, "\n{:55}replay: trace {}", "", f.trace);
            }
        }
        table
    }
}

impl ToJson for FailureReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("message", Json::str(&self.message)),
            ("trace", Json::str(&self.trace)),
            ("depth", Json::int(self.depth)),
            ("preemptions", Json::int(self.preemptions)),
            ("found_after", Json::int(self.found_after)),
        ])
    }
}

impl ToJson for EntryReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("key", Json::str(&self.key)),
            ("variant", Json::str(&self.variant)),
            ("schedules", Json::int(self.schedules)),
            ("pruned", Json::int(self.pruned)),
            ("step_limited", Json::int(self.step_limited)),
            ("exhausted", Json::Bool(self.exhausted)),
            (
                "failure",
                match &self.failure {
                    Some(f) => f.to_json_value(),
                    None => Json::Null,
                },
            ),
            ("ok", Json::Bool(self.ok)),
        ])
    }
}

impl ToJson for ExploreReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("schema", Json::str(FORMAT)),
            ("budget", Json::int(crate::BUDGET)),
            ("ok", Json::Bool(self.ok())),
            ("entries", Json::list(self.entries.iter().map(|e| e.to_json_value()))),
        ])
    }
}
