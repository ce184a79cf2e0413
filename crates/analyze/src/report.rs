//! Findings and machine-readable reports.
//!
//! The workspace has no serde (the build environment vendors only a
//! handful of stand-in crates), so the JSON encoding here goes through
//! [`txfix_core::json`]: [`ToJson`] builds a stable object layout and
//! [`Report::from_json`] parses it back. Round-tripping is covered by
//! tests.

use std::fmt::Write as _;
use txfix_core::json::{get, Json, ToJson};
use txfix_core::{hazard_from_json, Hazard, Recipe};
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

    /// Parse a report back from [`ToJson::to_json`] output.
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct.
    pub fn from_json(input: &str) -> Result<Report, String> {
        let v = Json::parse(input)?;
        let obj = v.object("report")?;
        let outcome_obj = get(obj, "outcome")?.object("outcome")?;
        let outcome = match get(outcome_obj, "kind")?.string("outcome.kind")?.as_str() {
            "correct" => Outcome::Correct,
            "bug_observed" => {
                Outcome::BugObserved(get(outcome_obj, "detail")?.string("outcome.detail")?)
            }
            other => return Err(format!("unknown outcome kind {other:?}")),
        };
        let findings = get(obj, "findings")?
            .array("findings")?
            .iter()
            .map(finding_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            scenario: get(obj, "scenario")?.string("scenario")?,
            variant: get(obj, "variant")?.string("variant")?,
            outcome,
            events: get(obj, "events")?.number("events")? as usize,
            findings,
        })
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

fn finding_from_json(v: &Json) -> Result<Finding, String> {
    let obj = v.object("finding")?;
    let kind = hazard_from_json(get(obj, "bug")?)?;
    let recipe = match get(obj, "recipe")? {
        Json::Null => None,
        v => Some(Recipe::from_slug(&v.string("recipe")?)?),
    };
    Ok(Finding { kind, recipe, explanation: get(obj, "explanation")?.string("explanation")? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            scenario: "av_wrong_lock".into(),
            variant: "buggy".into(),
            outcome: Outcome::BugObserved("lost update: counter is 1 \"quoted\"\n".into()),
            events: 42,
            findings: vec![
                Finding {
                    kind: Hazard::Race { loc: "m133773.counter".into() },
                    recipe: Some(Recipe::WrapAll),
                    explanation: "unordered conflicting accesses".into(),
                },
                Finding {
                    kind: Hazard::Atomicity { locs: vec!["a".into(), "b".into()] },
                    recipe: Some(Recipe::WrapUnprotected),
                    explanation: "non-serializable interleaving".into(),
                },
                Finding {
                    kind: Hazard::LockCycle { locks: vec!["atoms".into(), "cache".into()] },
                    recipe: None,
                    explanation: "both orders observed".into(),
                },
                Finding {
                    kind: Hazard::WaitCycle { cv: "cv".into(), lock: "outer".into() },
                    recipe: None,
                    explanation: "waiter holds what the notifier needs".into(),
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let parsed = Report::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
    }

    #[test]
    fn correct_outcome_round_trips() {
        let r = Report {
            scenario: "x".into(),
            variant: "tm".into(),
            outcome: Outcome::Correct,
            events: 0,
            findings: vec![],
        };
        let parsed = Report::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(!parsed.has_findings());
    }

    #[test]
    fn every_recipe_round_trips_in_a_finding() {
        for recipe in [
            Recipe::ReplaceLocks,
            Recipe::WrapAll,
            Recipe::DeadlockPreemption,
            Recipe::WrapUnprotected,
        ] {
            let f = Finding {
                kind: Hazard::Race { loc: "x".into() },
                recipe: Some(recipe),
                explanation: String::new(),
            };
            let parsed = finding_from_json(&Json::parse(&f.to_json()).unwrap()).unwrap();
            assert_eq!(parsed, f);
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json(r#"{"scenario": 3}"#).is_err());
        let valid = sample_report().to_json();
        assert!(Report::from_json(&format!("{valid}x")).is_err(), "trailing garbage");
    }
}
