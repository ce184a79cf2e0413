//! Findings and machine-readable reports.
//!
//! The workspace has no serde (the build environment vendors only a
//! handful of stand-in crates), so the JSON encoding here goes through
//! [`txfix_core::json`]: [`ToJson`] builds a stable object layout.

use std::fmt::Write as _;
use txfix_core::json::{Json, ToJson};
use txfix_core::{Hazard, Recipe};
use txfix_corpus::{bug_by_scenario, Outcome};

/// One detected bug, with the recipe the paper's decision procedure
/// suggests for it. The kind is the workspace-wide
/// [`txfix_core::Hazard`] vocabulary — the same representation the
/// static analyzer reports in, so agreement matching and fix inference
/// consume one type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// What was detected.
    pub kind: Hazard,
    /// The suggested TM fix recipe (from `txfix_core::analysis::analyze`
    /// on the scenario's bug record), when the bug is TM-fixable.
    pub recipe: Option<Recipe>,
    /// Human-readable account of the finding and the suggested fix.
    pub explanation: String,
}

/// The result of analyzing one scenario run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// The scenario key.
    pub scenario: String,
    /// Which variant ran (`buggy`, `dev`, `tm`).
    pub variant: String,
    /// What the run itself observed.
    pub outcome: Outcome,
    /// How many events the recorder captured.
    pub events: usize,
    /// Everything the analysis passes detected.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether the analysis found anything.
    pub fn has_findings(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Human-readable rendering: a header naming the scenario's corpus
    /// bug, the run's outcome, then every finding.
    pub fn table(&self) -> String {
        let bug_id =
            bug_by_scenario(&self.scenario).map(|b| format!(" [{}]", b.id)).unwrap_or_default();
        let mut out = format!(
            "scenario {}{bug_id} — {} variant: {} events recorded",
            self.scenario, self.variant, self.events
        );
        match &self.outcome {
            Outcome::Correct => out.push_str("\n  run outcome: clean"),
            Outcome::BugObserved(msg) => {
                let _ = write!(out, "\n  run outcome: BUG: {msg}");
            }
        }
        if self.findings.is_empty() {
            out.push_str("\n  no findings");
        }
        for f in &self.findings {
            let _ = write!(out, "\n  FINDING: {}\n    {}", f.kind, f.explanation);
        }
        out
    }
}

impl ToJson for Report {
    fn to_json_value(&self) -> Json {
        let outcome = match &self.outcome {
            Outcome::Correct => Json::obj([("kind", Json::str("correct"))]),
            Outcome::BugObserved(detail) => Json::obj([
                ("kind", Json::str("bug_observed")),
                ("detail", Json::str(detail.clone())),
            ]),
        };
        Json::obj([
            ("scenario", Json::str(self.scenario.clone())),
            ("variant", Json::str(self.variant.clone())),
            ("outcome", outcome),
            ("events", Json::int(self.events as u64)),
            ("findings", Json::list(self.findings.iter().map(ToJson::to_json_value))),
        ])
    }
}

impl ToJson for Finding {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("bug", self.kind.to_json_value()),
            ("recipe", self.recipe.map_or(Json::Null, |r| Json::str(r.slug()))),
            ("explanation", Json::str(self.explanation.clone())),
        ])
    }
}
