//! # txfix-static: static critical-section analysis with fix synthesis
//!
//! The dynamic analyzer (`txfix-analyze`) only flags interleavings its
//! recorder actually observes. This crate analyzes **critical-section
//! summaries** — declarative models of each corpus scenario variant
//! ([`ir::ScenarioSummary`]) — so a hazard is reported when *any*
//! interleaving of the modeled paths could hit it:
//!
//! - a **lockset pass** (races and dropped-lockset atomicity,
//!   RacerD-style),
//! - a **lock-order-graph pass** (cycles, with `TxMutex`-revocable
//!   acquisitions exempt, over the `LockOrder` graph `txlock::lockdep`
//!   also fills),
//! - **condition-variable passes** (wait-with-held-lock cycles and lost
//!   wakeups).
//!
//! For every finding, [`synth`] then *synthesizes* the paper's fix
//! recipe as an IR transformation and re-runs all passes on the
//! transformed summaries, proving statically that the fix clears the
//! finding without introducing new hazards ([`lint_summary`] packages
//! the whole loop as the `txfix lint` engine). [`infer`] goes from the
//! findings to one whole-summary fix plan instead, growing atomic
//! regions until every pass is silent.
//!
//! The crate deliberately depends only on `txfix-core`: `txfix-corpus`
//! registers the summaries, and the CLI glues the two together.

#![warn(missing_docs)]

pub mod ir;
pub mod region;
pub mod report;
pub mod synth;

mod facts;
mod infer;
mod lockorder;
mod lockset;
mod waits;

pub use infer::{infer, Inference};
pub use ir::{Op, Path, PathSummary, ScenarioSummary, Summary};
pub use region::{wrap_region_seed, Region};
pub use report::{Finding, Hazard, LintFinding, LintReport};
pub use synth::{apply, synthesize, Verification};

use txfix_core::{recipe_candidates, Analysis};

/// Run every static pass over `summary` and return the findings
/// (lockset races, atomicity, lock-order cycles, wait cycles, lost
/// wakeups — in that order).
pub fn check(summary: &ScenarioSummary) -> Vec<Finding> {
    let mut out = lockset::races(summary);
    out.extend(lockset::atomicity(summary));
    out.extend(lockorder::cycles(summary));
    out.extend(waits::wait_cycles(summary));
    out.extend(waits::lost_wakeups(summary));
    out
}

/// The full lint loop for one summary: validate, run the passes, and
/// for each finding synthesize and statically verify the candidate
/// recipes. `analysis` ties the summary to the corpus bug record's
/// §5.3 plan when there is one; without it, each hazard class falls
/// back to its default recipe.
///
/// # Errors
///
/// When the summary fails [`ScenarioSummary::validate`].
pub fn lint_summary(
    summary: &ScenarioSummary,
    analysis: Option<&Analysis>,
) -> Result<LintReport, String> {
    summary.validate()?;
    let findings = check(summary);
    let lint_findings = findings
        .iter()
        .map(|f| {
            let fixes = recipe_candidates(analysis, f.hazard.class())
                .into_iter()
                .map(|recipe| synth::synthesize(summary, &findings, &f.hazard, recipe))
                .collect();
            LintFinding { hazard: f.hazard.clone(), explanation: f.explanation.clone(), fixes }
        })
        .collect();
    Ok(LintReport {
        scenario: summary.key.clone(),
        variant: summary.variant.clone(),
        paths: summary.paths.len(),
        findings: lint_findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_core::{FixPlan, HazardClass, Recipe};

    fn racy() -> ScenarioSummary {
        Summary::new("demo", "buggy")
            .path(Path::new("p0").read("x").write("x"))
            .path(Path::new("p1").write("x"))
            .build()
    }

    #[test]
    fn check_runs_all_passes() {
        let findings = check(&racy());
        assert!(findings.iter().any(|f| matches!(f.hazard, Hazard::Race { .. })));
        assert!(findings.iter().any(|f| matches!(f.hazard, Hazard::Atomicity { .. })));
    }

    #[test]
    fn lint_summary_synthesizes_the_plan_recipes() {
        let plan = Analysis::Fixable(FixPlan {
            primary: Recipe::WrapAll,
            simplified_by: Some(Recipe::WrapUnprotected),
        });
        let report = lint_summary(&racy(), Some(&plan)).unwrap();
        assert!(report.has_findings());
        for f in &report.findings {
            assert_eq!(
                f.fixes.iter().map(|v| v.recipe).collect::<Vec<_>>(),
                vec![Recipe::WrapAll, Recipe::WrapUnprotected],
            );
            assert!(f.has_verified_fix(), "{f:?}");
        }
    }

    #[test]
    fn lint_summary_falls_back_per_hazard_class() {
        let report = lint_summary(&racy(), None).unwrap();
        for f in &report.findings {
            assert_eq!(f.hazard.class(), HazardClass::SharedData);
            assert_eq!(f.fixes.len(), 1);
            assert_eq!(f.fixes[0].recipe, Recipe::WrapAll);
            assert!(f.fixes[0].verified);
        }
    }

    #[test]
    fn lint_summary_rejects_malformed_summaries() {
        let bad = Summary::new("demo", "buggy").path(Path::new("p").acquire("l")).build();
        assert!(lint_summary(&bad, None).is_err());
    }
}
