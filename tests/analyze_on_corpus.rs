//! The trace analyzer applied to the executable corpus: every buggy
//! variant is flagged, its developer and TM fixes come back clean, and
//! every finding carries the recipe the paper's decision procedure assigns
//! to that bug. (The recorder is process-global;
//! `analyze_scenario` serializes itself, so these tests may share one
//! binary but nothing else here may touch the trace machinery directly.)

use txfix::analyze::{analyze_scenario, Report};
use txfix::corpus::{bug_by_scenario, keys, Variant};
use txfix::recipes::{analyze, Analysis, Recipe};

fn suggested_recipe(key: &str) -> Option<Recipe> {
    let bug = bug_by_scenario(key).expect("corpus record");
    match analyze(&bug) {
        Analysis::Fixable(plan) => Some(plan.primary),
        Analysis::Unfixable(_) => None,
    }
}

fn run(key: &str, variant: Variant) -> Report {
    analyze_scenario(key, variant).expect("known scenario key")
}

#[test]
fn buggy_variants_are_flagged_with_the_papers_recipe() {
    for key in keys::ALL {
        let report = run(key, Variant::Buggy);
        assert!(report.has_findings(), "{key} buggy: no findings over {} events", report.events);
        let expected = suggested_recipe(key);
        for f in &report.findings {
            assert_eq!(
                f.recipe, expected,
                "{key} finding suggests a different recipe than txfix_core::analyze: {f:?}"
            );
        }
    }
}

#[test]
fn developer_fixes_are_clean() {
    for key in keys::ALL {
        let report = run(key, Variant::DevFix);
        assert!(!report.has_findings(), "{key} dev fix flagged: {:?}", report.findings);
    }
}

#[test]
fn tm_fixes_are_clean() {
    for key in keys::ALL {
        let report = run(key, Variant::TmFix);
        assert!(!report.has_findings(), "{key} tm fix flagged: {:?}", report.findings);
    }
}

#[test]
fn reports_round_trip_through_json() {
    // An end-to-end round trip over real reports, read back field by
    // field: one with findings, one clean, one whose outcome text
    // exercises string escaping.
    use txfix::corpus::Outcome;
    use txfix::recipes::json::{Json, ToJson};
    for (key, variant) in [
        ("av_stats_race", Variant::Buggy),
        ("av_stats_race", Variant::TmFix),
        ("dl_local_lock_order", Variant::Buggy),
    ] {
        let report = run(key, variant);
        let doc = Json::parse(&report.to_json()).expect("valid JSON");
        let obj = doc.object("report").unwrap();
        assert_eq!(obj["scenario"].string("scenario").unwrap(), report.scenario);
        assert_eq!(obj["variant"].string("variant").unwrap(), report.variant);
        assert_eq!(obj["events"].number("events").unwrap(), report.events as f64);
        let outcome = obj["outcome"].object("outcome").unwrap();
        let kind = outcome["kind"].string("kind").unwrap();
        match &report.outcome {
            Outcome::Correct => assert_eq!(kind, "correct", "{key}"),
            Outcome::BugObserved(detail) => {
                assert_eq!(kind, "bug_observed", "{key}");
                assert_eq!(&outcome["detail"].string("detail").unwrap(), detail);
            }
        }
        let findings = obj["findings"].array("findings").unwrap();
        assert_eq!(findings.len(), report.findings.len(), "{key}");
        for (parsed, f) in findings.iter().zip(&report.findings) {
            let parsed = parsed.object("finding").unwrap();
            assert_eq!(parsed["bug"], f.kind.to_json_value(), "{key}");
            let recipe = f.recipe.map_or(Json::Null, |r| Json::str(r.slug()));
            assert_eq!(parsed["recipe"], recipe, "{key}");
            assert_eq!(parsed["explanation"].string("explanation").unwrap(), f.explanation);
        }
    }
}

#[test]
fn finding_kinds_match_the_bug_class() {
    use txfix::analyze::Hazard;
    // Deadlock scenarios report lock cycles; atomicity scenarios report
    // races and serializability violations; the condvar scenarios report
    // wait cycles and lost wakeups in the same unified vocabulary.
    let dl = run("dl_cache_atomtable", Variant::Buggy);
    assert!(
        dl.findings.iter().any(|f| matches!(f.kind, Hazard::LockCycle { .. })),
        "{:?}",
        dl.findings
    );
    let av = run("av_refcount_race", Variant::Buggy);
    assert!(av.findings.iter().any(|f| matches!(f.kind, Hazard::Race { .. })), "{:?}", av.findings);
    assert!(
        av.findings.iter().any(|f| matches!(f.kind, Hazard::Atomicity { .. })),
        "{:?}",
        av.findings
    );
    let wait = run("apache_i", Variant::Buggy);
    assert!(
        wait.findings.iter().any(|f| matches!(
            &f.kind,
            Hazard::WaitCycle { cv, lock }
                if cv == "apache1.idle_cv" && lock == "apache1.timeout_mutex"
        )),
        "{:?}",
        wait.findings
    );
    let lost = run("av_cv_partial", Variant::Buggy);
    assert!(
        lost.findings.iter().any(|f| matches!(
            &f.kind,
            Hazard::LostWakeup { cv, .. } if cv == "m91106.cv"
        )),
        "{:?}",
        lost.findings
    );
}
