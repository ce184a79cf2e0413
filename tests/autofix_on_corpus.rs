//! The autofix loop (`txfix autofix`) over the corpus: inference must
//! converge to a statically clean patch for every buggy variant, and on
//! representative scenarios the explorer must reproduce the bug on the
//! buggy summary and find nothing on the patched one.

use txfix::autofix::autofix_scenario;
use txfix::corpus::{scenario_by_key, Variant, SCENARIOS};
use txfix::lint::{check, infer, Op, Path, Region, Summary};

#[test]
fn inference_converges_to_a_statically_clean_patch_on_every_buggy_variant() {
    for row in SCENARIOS {
        let key = row.key;
        let buggy = row.summary(Variant::Buggy);
        let inf = infer(&buggy).unwrap_or_else(|e| panic!("{key}: inference failed: {e}"));
        assert!(!inf.regions.is_empty(), "{key}: buggy variant inferred an empty fix plan");
        assert!(inf.rounds >= 1, "{key}: buggy variant converged without a grow round");
        let residual = check(&inf.patched);
        assert!(
            residual.is_empty(),
            "{key}: patched summary still has findings: {:?}",
            residual.iter().map(|f| f.hazard.to_string()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn fixed_variants_need_no_fix() {
    for row in SCENARIOS {
        let key = row.key;
        for variant in [Variant::DevFix, Variant::TmFix] {
            let summary = row.summary(variant);
            let inf = infer(&summary).expect("clean summaries infer trivially");
            assert!(inf.regions.is_empty(), "{key} ({variant:?}): non-empty plan");
            assert_eq!(inf.rounds, 0, "{key} ({variant:?}): took grow rounds");
        }
    }
}

/// Nested critical sections: a race under distinct nested locksets
/// still seeds, grows, and lands on a clean patch.
#[test]
fn inference_handles_nested_lock_summaries() {
    let summary = Summary::new("synthetic_nested", "buggy")
        .path(
            Path::new("outer_inner")
                .acquire("outer")
                .acquire("inner")
                .read("x")
                .write("x")
                .release("inner")
                .release("outer"),
        )
        .path(Path::new("bare").read("x").write("x"))
        .build();
    let inf = infer(&summary).expect("nested summary infers");
    assert!(!inf.regions.is_empty());
    assert!(check(&inf.patched).is_empty(), "patched nested summary not clean");
    // The bare path's accesses must now be protected; the region must
    // serialize against (or replace) the nested critical section.
    let bare = &inf.patched.paths[1];
    assert!(matches!(bare.ops[0], Op::AtomicBegin { .. }), "bare path left unwrapped: {bare:?}");
}

/// Overlapping seeds merge: two findings whose group-closed subjects
/// intersect produce one region, not two overlapping ones.
#[test]
fn overlapping_region_seeds_merge_into_one() {
    let summary = Summary::new("synthetic_overlap", "buggy")
        .group(&["x", "y"])
        .path(Path::new("writer_x").read("x").write("x"))
        .path(Path::new("writer_y").read("y").write("y"))
        .path(Path::new("reader").read("x").read("y"))
        .build();
    let inf = infer(&summary).expect("overlapping summary infers");
    let wraps: Vec<&Region> =
        inf.regions.iter().filter(|r| matches!(r, Region::Wrap { .. })).collect();
    assert_eq!(wraps.len(), 1, "expected one merged wrap, got {:?}", inf.regions);
    let Region::Wrap { locs, paths, .. } = wraps[0] else { unreachable!() };
    assert_eq!(locs, &["x".to_string(), "y".to_string()]);
    assert_eq!(paths.len(), 3, "merged wrap must cover all three paths: {paths:?}");
    assert!(check(&inf.patched).is_empty());
}

/// End-to-end on representative scenarios, one per hazard class: the
/// explorer reproduces the bug on the buggy summary and finds nothing
/// on the inferred patch.
#[test]
fn explorer_confirms_bug_and_fix_on_representative_scenarios() {
    // data race, lock-order cycle, lost wakeup
    for key in ["av_refcount_race", "mozilla_i", "av_cv_partial"] {
        let entry = autofix_scenario(scenario_by_key(key).expect("known key"));
        assert!(entry.error.is_none(), "{key}: {:?}", entry.error);
        assert!(entry.static_clean, "{key}: patch not statically clean");
        assert!(
            entry.buggy.failure.is_some(),
            "{key}: explorer failed to reproduce the bug on the buggy summary"
        );
        assert!(
            entry.patched.failure.is_none(),
            "{key}: explored schedule broke the patch: {:?}",
            entry.patched.failure
        );
        assert!(entry.ok());
    }
}
