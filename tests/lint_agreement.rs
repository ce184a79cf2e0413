//! The static analyzer (`txfix lint`) against the dynamic one (`txfix
//! analyze`), over the whole corpus:
//!
//! - On **buggy** variants, every dynamic finding is covered by a static
//!   finding (the summaries model at least everything the recorder can
//!   see), every buggy variant is statically flagged, and every static
//!   finding carries a statically verified synthesized fix.
//! - On **developer-fix** and **TM-fix** variants, both analyzers are
//!   silent.
//! - Static findings with no dynamic counterpart are individually
//!   allowlisted with the reason for the divergence — the static side is
//!   *supposed* to see more (it models state the recorder does not
//!   instrument), but each such case must be intentional. Since the
//!   dynamic wait/notify pass landed, the allowlist is empty: every
//!   hazard class the summaries model now has a dynamic counterpart, and
//!   both sides speak `txfix_core::Hazard`, so coverage is plain
//!   [`Hazard::overlaps`] — no ad-hoc shape mapping.

use txfix::analyze::analyze_scenario;
use txfix::corpus::{bug_by_scenario, keys, scenario_by_key, Variant};
use txfix::lint::{lint_summary, LintReport};
use txfix::recipes::analyze;

/// Static findings expected to have no dynamic counterpart, as
/// `"key: hazard"` display strings. Every entry must actually occur
/// (a stale entry fails the test), and every uncovered static finding
/// must be listed here. Currently empty: the recorder's cv pass covers
/// the wait-cycle and lost-wakeup hazards that used to be static-only.
const STATIC_ONLY: &[&str] = &[];

/// Run the full lint loop for one scenario variant.
fn lint(key: &str, variant: Variant) -> LintReport {
    let summary = scenario_by_key(key).expect("known key").summary(variant);
    let analysis = bug_by_scenario(key).map(|bug| analyze(&bug));
    lint_summary(&summary, analysis.as_ref()).expect("summary validates")
}

#[test]
fn static_findings_cover_every_dynamic_finding_on_buggy_variants() {
    for key in keys::ALL {
        let dynamic = analyze_scenario(key, Variant::Buggy).expect("known key");
        let report = lint(key, Variant::Buggy);
        for d in &dynamic.findings {
            assert!(
                report.findings.iter().any(|f| f.hazard.overlaps(&d.kind)),
                "{key}: dynamic finding {:?} has no static counterpart in {:?}",
                d.kind,
                report.findings.iter().map(|f| f.hazard.to_string()).collect::<Vec<_>>(),
            );
        }
    }
}

#[test]
fn every_buggy_variant_is_flagged_with_a_verified_fix() {
    for key in keys::ALL {
        let report = lint(key, Variant::Buggy);
        assert!(report.has_findings(), "{key} buggy: statically clean");
        for f in &report.findings {
            assert!(!f.fixes.is_empty(), "{key}: no recipe candidate for {}", f.hazard);
            assert!(
                f.fixes[0].verified,
                "{key}: primary recipe {} failed verification for {}: residual {:?}, introduced {:?}",
                f.fixes[0].recipe, f.hazard, f.fixes[0].residual, f.fixes[0].introduced
            );
            for v in &f.fixes {
                assert!(
                    v.verified,
                    "{key}: recipe {} failed verification for {}: residual {:?}, introduced {:?}",
                    v.recipe, f.hazard, v.residual, v.introduced
                );
            }
        }
    }
}

#[test]
fn both_analyzers_are_silent_on_fixed_variants() {
    for key in keys::ALL {
        for variant in [Variant::DevFix, Variant::TmFix] {
            let report = lint(key, variant);
            assert!(
                !report.has_findings(),
                "{key} ({variant:?}): static findings on a fixed variant: {:?}",
                report.findings.iter().map(|f| f.hazard.to_string()).collect::<Vec<_>>(),
            );
            let dynamic = analyze_scenario(key, variant).expect("known key");
            assert!(
                !dynamic.has_findings(),
                "{key} ({variant:?}): dynamic findings on a fixed variant: {:?}",
                dynamic.findings,
            );
        }
    }
}

#[test]
fn static_only_findings_are_exactly_the_allowlisted_divergences() {
    let mut unused: Vec<&str> = STATIC_ONLY.to_vec();
    for key in keys::ALL {
        let dynamic = analyze_scenario(key, Variant::Buggy).expect("known key");
        for f in lint(key, Variant::Buggy).findings {
            if dynamic.findings.iter().any(|d| f.hazard.overlaps(&d.kind)) {
                continue;
            }
            let entry = format!("{key}: {}", f.hazard);
            assert!(
                STATIC_ONLY.contains(&entry.as_str()),
                "unallowlisted static-only finding {entry:?}",
            );
            unused.retain(|e| *e != entry);
        }
    }
    assert!(unused.is_empty(), "stale allowlist entries: {unused:?}");
}
