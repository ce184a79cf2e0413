//! Static findings and the `txfix lint` report, with the same JSON
//! treatment as the dynamic analyzer's reports ([`ToJson`] over
//! [`txfix_core::json`]).

use crate::synth::Verification;
use std::fmt::Write as _;
use txfix_core::json::{get, Json, ToJson};
use txfix_core::Recipe;

// The hazard vocabulary moved to `txfix_core::finding` so the dynamic
// analyzer and the region-inference pipeline share it; re-exported here
// so `txfix_static::report::Hazard` keeps working.
pub use txfix_core::finding::{hazard_from_json, Hazard};

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

    /// Parse a report back from [`ToJson::to_json`] output.
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct.
    pub fn from_json(input: &str) -> Result<LintReport, String> {
        let v = Json::parse(input)?;
        let obj = v.object("lint report")?;
        let findings = get(obj, "findings")?
            .array("findings")?
            .iter()
            .map(finding_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LintReport {
            scenario: get(obj, "scenario")?.string("scenario")?,
            variant: get(obj, "variant")?.string("variant")?,
            paths: get(obj, "paths")?.number("paths")? as usize,
            findings,
        })
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

fn finding_from_json(v: &Json) -> Result<LintFinding, String> {
    let obj = v.object("finding")?;
    let fixes = get(obj, "fixes")?
        .array("fixes")?
        .iter()
        .map(fix_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LintFinding {
        hazard: hazard_from_json(get(obj, "hazard")?)?,
        explanation: get(obj, "explanation")?.string("explanation")?,
        fixes,
    })
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

fn fix_from_json(v: &Json) -> Result<Verification, String> {
    let obj = v.object("fix")?;
    let strings = |key: &str| -> Result<Vec<String>, String> {
        get(obj, key)?.array(key)?.iter().map(|s| s.string(key)).collect::<Result<Vec<_>, _>>()
    };
    Ok(Verification {
        recipe: Recipe::from_slug(&get(obj, "recipe")?.string("recipe")?)?,
        verified: get(obj, "verified")?.bool("verified")?,
        residual: strings("residual")?,
        introduced: strings("introduced")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LintReport {
        LintReport {
            scenario: "av_wrong_lock".into(),
            variant: "buggy".into(),
            paths: 2,
            findings: vec![
                LintFinding {
                    hazard: Hazard::Race { loc: "m133773.cache_count".into() },
                    explanation: "paths reach it with disjoint locksets \"quoted\"\n".into(),
                    fixes: vec![
                        Verification {
                            recipe: Recipe::WrapAll,
                            verified: true,
                            residual: vec![],
                            introduced: vec![],
                        },
                        Verification {
                            recipe: Recipe::WrapUnprotected,
                            verified: false,
                            residual: vec!["possible data race on x".into()],
                            introduced: vec!["lock-order cycle through a -> b".into()],
                        },
                    ],
                },
                LintFinding {
                    hazard: Hazard::LockCycle { locks: vec!["a".into(), "b".into()] },
                    explanation: "both orders".into(),
                    fixes: vec![],
                },
                LintFinding {
                    hazard: Hazard::WaitCycle { cv: "cv".into(), lock: "l".into() },
                    explanation: "".into(),
                    fixes: vec![],
                },
                LintFinding {
                    hazard: Hazard::LostWakeup { cv: "cv".into(), loc: "x".into() },
                    explanation: "".into(),
                    fixes: vec![],
                },
                LintFinding {
                    hazard: Hazard::Atomicity { locs: vec!["x".into(), "y".into()] },
                    explanation: "".into(),
                    fixes: vec![],
                },
            ],
        }
    }

    #[test]
    fn lint_reports_round_trip_through_json() {
        let r = sample_report();
        let parsed = LintReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.has_findings());
        assert!(parsed.findings[0].has_verified_fix());
        assert!(!parsed.findings[1].has_verified_fix());
    }

    #[test]
    fn empty_report_round_trips() {
        let r =
            LintReport { scenario: "x".into(), variant: "tm".into(), paths: 3, findings: vec![] };
        let parsed = LintReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(!parsed.has_findings());
    }

    #[test]
    fn malformed_lint_json_is_rejected() {
        assert!(LintReport::from_json("{").is_err());
        assert!(LintReport::from_json(r#"{"scenario":"x"}"#).is_err());
        assert!(LintReport::from_json(
            r#"{"scenario":"x","variant":"buggy","paths":1,"findings":[{"hazard":{"kind":"nope"},"explanation":"","fixes":[]}]}"#
        )
        .is_err());
    }
}
