//! The `txfix-autofix-v3` report format.
//!
//! Like `txfix-explore-v2`, the report deliberately excludes wall-clock
//! time and anything else non-deterministic: CI runs `txfix autofix
//! --all` twice and byte-compares the JSON, so every field must be a
//! pure function of `(corpus, budget)`. v3 is v2 without the `strategy`
//! and `seed` keys: the explorer's one strategy, DFS, takes no seed.

use std::fmt::Write as _;
use txfix_core::json::{Json, ToJson};
use txfix_static::Region;

/// Format identifier.
pub const FORMAT: &str = "txfix-autofix-v3";

/// One exploration of a summary (buggy input or synthesized patch)
/// through the schedule explorer.
#[derive(Clone, Debug, Default)]
pub struct VerifyStats {
    /// Schedules run to a verdict.
    pub schedules: u64,
    /// Schedules abandoned by partial-order reduction.
    pub pruned: u64,
    /// Schedules that hit the step bound (inconclusive).
    pub step_limited: u64,
    /// True if DFS exhausted the reduced space within budget.
    pub exhausted: bool,
    /// The first failing schedule's bug message, if any.
    pub failure: Option<String>,
}

/// One scenario's inference + verification result.
#[derive(Clone, Debug)]
pub struct AutofixEntry {
    /// Corpus key.
    pub key: String,
    /// The inferred fix plan, in application order.
    pub regions: Vec<Region>,
    /// The paper recipe each region amounts to (parallel to `regions`).
    pub recipes: Vec<String>,
    /// Grow rounds the inference used.
    pub rounds: u32,
    /// Inference failure, if any (no verification was attempted).
    pub error: Option<String>,
    /// Whether the patched summary is statically clean.
    pub static_clean: bool,
    /// Exploration of the buggy summary (the bug should reproduce).
    pub buggy: VerifyStats,
    /// Exploration of the patched summary (nothing should fail).
    pub patched: VerifyStats,
}

impl AutofixEntry {
    /// Whether the fix is verified: inference succeeded, the patch is
    /// statically clean, and no explored schedule of the patch fails.
    /// (A buggy input whose counterexample needs more schedules than
    /// the budget is reported via `buggy.failure = None` but does not
    /// fail the entry: the verification obligation is on the patch.)
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.static_clean && self.patched.failure.is_none()
    }
}

/// The whole corpus sweep.
#[derive(Clone, Debug)]
pub struct AutofixReport {
    /// Every autofixed scenario.
    pub entries: Vec<AutofixEntry>,
}

impl AutofixReport {
    /// True if every entry verified.
    pub fn ok(&self) -> bool {
        self.entries.iter().all(|e| e.ok())
    }

    /// Human-readable table: one verdict row per scenario, then its
    /// inferred regions.
    pub fn table(&self) -> String {
        let mut table =
            format!("{:22} {:>6} {:>7} {:>8}  verdict", "scenario", "rounds", "static", "patched");
        for e in &self.entries {
            if let Some(err) = &e.error {
                let _ = write!(
                    table,
                    "\n{:22} {:>6} {:>7} {:>8}  INFERENCE FAILED: {err}",
                    e.key, "-", "-", "-"
                );
                continue;
            }
            let verdict = match (&e.patched.failure, &e.buggy.failure) {
                (Some(f), _) => format!("PATCH BROKE: {f}"),
                (None, Some(b)) => format!("verified (bug reproduced: {b})"),
                (None, None) => "verified (no counterexample within budget)".to_string(),
            };
            let _ = write!(
                table,
                "\n{:22} {:>6} {:>7} {:>8}  {}",
                e.key,
                e.rounds,
                if e.static_clean { "clean" } else { "DIRTY" },
                format!("{}s", e.patched.schedules),
                verdict
            );
            for (region, recipe) in e.regions.iter().zip(&e.recipes) {
                let _ = write!(table, "\n{:24}fix: {region}  [{recipe}]", "");
            }
        }
        table
    }
}

impl ToJson for VerifyStats {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("schedules", Json::int(self.schedules)),
            ("pruned", Json::int(self.pruned)),
            ("step_limited", Json::int(self.step_limited)),
            ("exhausted", Json::Bool(self.exhausted)),
            (
                "failure",
                match &self.failure {
                    Some(m) => Json::str(m),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl ToJson for AutofixEntry {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("key", Json::str(&self.key)),
            ("regions", Json::list(self.regions.iter().map(|r| r.to_json_value()))),
            ("recipes", Json::strings(&self.recipes)),
            ("rounds", Json::int(u64::from(self.rounds))),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            ),
            ("static_clean", Json::Bool(self.static_clean)),
            ("buggy", self.buggy.to_json_value()),
            ("patched", self.patched.to_json_value()),
            ("ok", Json::Bool(self.ok())),
        ])
    }
}

impl ToJson for AutofixReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("schema", Json::str(FORMAT)),
            ("budget", Json::int(txfix_explore::BUDGET)),
            ("ok", Json::Bool(self.ok())),
            ("entries", Json::list(self.entries.iter().map(|e| e.to_json_value()))),
        ])
    }
}
