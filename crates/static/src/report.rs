//! Static findings and the `txfix lint` report, with the same JSON
//! treatment as the dynamic analyzer's reports ([`ToJson`] over
//! [`txfix_core::json`]).

use crate::synth::Verification;
use std::fmt::Write as _;
use txfix_core::json::{Json, ToJson};

// The hazard vocabulary moved to `txfix_core::finding` so the dynamic
// analyzer and the region-inference pipeline share it; re-exported here
// so `txfix_static::report::Hazard` keeps working.
pub use txfix_core::finding::Hazard;

/// One static finding: a hazard and the account of how it was derived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// What was detected.
    pub hazard: Hazard,
    /// Human-readable account of the derivation.
    pub explanation: String,
}

/// One lint finding: a hazard plus the synthesized fixes and their
/// static verification results.
#[derive(Clone, Debug, PartialEq)]
pub struct LintFinding {
    /// What was detected.
    pub hazard: Hazard,
    /// Human-readable account of the derivation.
    pub explanation: String,
    /// The candidate recipes, each applied to the summary and re-checked
    /// (primary recipe first).
    pub fixes: Vec<Verification>,
}

impl LintFinding {
    /// Whether at least one synthesized fix statically verifies.
    pub fn has_verified_fix(&self) -> bool {
        self.fixes.iter().any(|v| v.verified)
    }
}

/// The result of linting one scenario-variant summary.
#[derive(Clone, Debug, PartialEq)]
pub struct LintReport {
    /// The scenario key.
    pub scenario: String,
    /// Which variant was linted (`buggy`, `dev`, `tm`).
    pub variant: String,
    /// How many concurrent paths the summary models.
    pub paths: usize,
    /// Everything the static passes detected.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Whether the passes found anything.
    pub fn has_findings(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Human-readable rendering: a header (naming the corpus bug, when
    /// the caller knows it), then every finding with its synthesized
    /// fixes and their verification status.
    pub fn table(&self, bug_id: Option<&str>) -> String {
        let bug_id = bug_id.map(|id| format!(" [{id}]")).unwrap_or_default();
        let mut out = format!(
            "scenario {}{bug_id} — {} variant: {} paths modeled",
            self.scenario, self.variant, self.paths
        );
        if self.findings.is_empty() {
            out.push_str("\n  no findings");
        }
        for f in &self.findings {
            let _ = write!(out, "\n  FINDING: {}\n    {}", f.hazard, f.explanation);
            for fix in &f.fixes {
                let status = if fix.verified { "statically verified" } else { "NOT verified" };
                let _ = write!(out, "\n    fix: {} — {status}", fix.recipe);
                for h in &fix.residual {
                    let _ = write!(out, "\n      residual: {h}");
                }
                for h in &fix.introduced {
                    let _ = write!(out, "\n      introduced: {h}");
                }
            }
        }
        out
    }
}

impl ToJson for LintReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("scenario", Json::str(self.scenario.clone())),
            ("variant", Json::str(self.variant.clone())),
            ("paths", Json::int(self.paths as u64)),
            ("findings", Json::list(self.findings.iter().map(ToJson::to_json_value))),
        ])
    }
}

impl ToJson for LintFinding {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("hazard", self.hazard.to_json_value()),
            ("explanation", Json::str(self.explanation.clone())),
            ("fixes", Json::list(self.fixes.iter().map(ToJson::to_json_value))),
        ])
    }
}

impl ToJson for Verification {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("recipe", Json::str(self.recipe.slug())),
            ("verified", Json::Bool(self.verified)),
            ("residual", Json::strings(&self.residual)),
            ("introduced", Json::strings(&self.introduced)),
        ])
    }
}
