//! # txfix-corpus: the 60-bug study corpus and its executable scenarios
//!
//! Three parts:
//!
//! - [`dataset`]: the 60 [`BugRecord`](txfix_core::BugRecord)s (22
//!   deadlocks + 38 atomicity violations across Mozilla, Apache and
//!   MySQL), carrying the structural attributes from which the paper's
//!   Tables 1–3 are re-derived. The tests in this crate assert that every
//!   aggregate stated in the paper's prose holds of the dataset.
//! - [`scenarios`]: **the corpus table**, [`SCENARIOS`] — one
//!   [`Scenario`] row per fix the study implemented and tested (7
//!   deadlocks + 11 atomicity violations). A row's columns are the bug's
//!   two forms: `scheduled`, the bug as plain thread bodies for the
//!   deterministic scheduler with the **buggy** variant, the
//!   **developers' fix** and the **TM fix** built from the corresponding
//!   recipe, and its static model ([`Scenario::summary`]). The schedule
//!   explorer drives `scheduled` through every interleaving it reaches;
//!   [`Scenario::run`] replays one pinned schedule of it (the buggy
//!   variant's minimised failing trace, a fix's lowest-slot schedule).
//! - [`summaries`]: the hand-written static models — declarative
//!   critical-section summaries of each buggy and developer-fix variant
//!   for the static analyzer (`txfix lint`), with buggy-variant names
//!   matching what the trace recorder emits. The TM variant's summary is
//!   derived from the buggy one by fix inference.
//!
//! Everything that enumerates the corpus reads the table: [`keys::ALL`]
//! is its key column, [`scenario_by_key`] its one lookup, and the
//! universes of `scenario`/`analyze`/`lint`/`explore`/`autofix` (and so
//! `txfix list`'s matrix) are derived from its columns. To add a studied
//! bug, add its `keys` constant and one row (see [`scenarios`]).

#![warn(missing_docs)]

pub mod dataset;
pub mod scenarios;
pub mod summaries;

pub use dataset::{all_bugs, bug_by_id, bug_by_scenario, keys};
pub use scenarios::{
    replay_picker, run_schedule, scenario_by_key, scenario_listing, Outcome, RunResult, Scenario,
    ScenarioSweep, ScheduleOutcome, ScheduledRun, Variant, DEFAULT_MAX_STEPS, SCENARIOS,
};
pub use summaries::LintSweep;

#[cfg(test)]
mod consistency {
    use super::*;
    use txfix_core::{App, BugKind, CorpusSummary};

    #[test]
    fn headline_counts_match_the_paper() {
        let bugs = all_bugs();
        let s = CorpusSummary::compute(&bugs);
        assert_eq!(s.total, 60, "60 bugs examined");
        assert_eq!(s.deadlocks.total, 22, "22 deadlocks");
        assert_eq!(s.atomicity.total, 38, "38 atomicity violations");
        assert_eq!(s.deadlocks.fixable, 12, "TM fixes 12 of 22 deadlocks");
        assert_eq!(s.atomicity.fixable, 31, "TM fixes 31 of 38 atomicity violations");
        assert_eq!(s.fixable(), 43, "43 of 60 fixable (71%)");
        assert_eq!(s.total - s.fixable(), 17, "17 not fixable (29%)");
    }

    #[test]
    fn recipe_breakdown_matches_the_paper() {
        let s = CorpusSummary::compute(&all_bugs());
        assert_eq!(s.fixed_by_simple_recipes, 40, "recipes 1 and 2 suffice for 40 of 43");
        assert_eq!(s.fixed_only_by_recipe3, 3, "recipe 3 fixes 3 more");
        assert_eq!(s.simplified_by_recipe3, 6, "recipe 3 simplifies 6 of the 9 recipe-1 fixes");
        assert_eq!(s.simplified_by_recipe4, 14, "recipe 4 simplifies 14 (20 total simplified)");
        assert_eq!(s.multi_module_non_preemptible, 5, "5 unfixable multi-module deadlocks");
    }

    #[test]
    fn atomicity_structure_matches_the_paper() {
        let s = CorpusSummary::compute(&all_bugs());
        assert_eq!(s.av_complete_missing, 22, "22 AVs with completely missing sync");
        assert_eq!(s.av_complete_missing_fixable, 17, "17 of them fixable by recipe 2");
        assert_eq!(s.av_single_block, 12, "12 fixable with a single atomic block");
        assert_eq!(s.av_single_block_easy, 9, "9 single-block fixes judged easy");
        assert_eq!(s.av_single_block_medium, 3, "3 judged medium (downcall reasoning)");
    }

    #[test]
    fn downcalls_match_the_paper() {
        let bugs = all_bugs();
        let s = CorpusSummary::compute(&bugs);
        assert_eq!(s.downcall_condvar, 5, "five fixes required condition variables");
        assert_eq!(s.downcall_retry, 2, "two required a retry");
        assert_eq!(s.downcall_io, 8, "eight required I/O");
        assert_eq!(s.downcall_long_action, 7, "seven required very long transactions");
        // All CV-requiring fixes are Mozilla bugs.
        for b in &bugs {
            if b.chars.downcalls.condvar {
                assert_eq!(b.app, App::Mozilla, "{} has a CV downcall outside Mozilla", b.id);
            }
        }
    }

    #[test]
    fn preference_matches_the_paper() {
        let s = CorpusSummary::compute(&all_bugs());
        assert_eq!(s.tm_preferred, 34, "34 of 43 TM fixes judged preferable (56% of 60)");
        assert_eq!(s.tm_preferred_deadlock, 10, "TM favored for 10 deadlocks");
        assert_eq!(s.tm_preferred_atomicity, 24, "TM favored for 24 atomicity violations");
    }

    #[test]
    fn implemented_fixes_match_the_paper() {
        let s = CorpusSummary::compute(&all_bugs());
        assert_eq!(s.implemented, 18, "18 fixes implemented and tested");
        assert_eq!(s.implemented_deadlock, 7, "7 deadlock fixes implemented");
        assert_eq!(s.implemented_atomicity, 11, "11 atomicity fixes implemented");
    }

    #[test]
    fn ids_are_unique_and_well_formed() {
        let bugs = all_bugs();
        let mut ids: Vec<&str> = bugs.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 60, "duplicate bug ids");
        for b in &bugs {
            assert!(b.id.contains('#'));
            assert!(!b.summary.is_empty());
            if b.kind == BugKind::AtomicityViolation {
                assert!(
                    b.chars.missing_sync.is_some(),
                    "{} must classify its missing synchronization",
                    b.id
                );
            }
        }
    }

    #[test]
    fn scenario_keys_are_exactly_the_implemented_bugs() {
        let bugs = all_bugs();
        let mut found: Vec<&str> = bugs.iter().filter_map(|b| b.scenario).collect();
        found.sort_unstable();
        let mut expected = keys::ALL.to_vec();
        expected.sort_unstable();
        assert_eq!(found, expected);
        for key in keys::ALL {
            assert!(bug_by_scenario(key).is_some(), "no bug for scenario {key}");
        }
    }

    #[test]
    fn per_app_totals_are_consistent() {
        let bugs = all_bugs();
        let count = |app, kind| bugs.iter().filter(|b| b.app == app && b.kind == kind).count();
        assert_eq!(count(App::Mozilla, BugKind::Deadlock), 13);
        assert_eq!(count(App::Apache, BugKind::Deadlock), 5);
        assert_eq!(count(App::MySql, BugKind::Deadlock), 4);
        assert_eq!(count(App::Mozilla, BugKind::AtomicityViolation), 20);
        assert_eq!(count(App::Apache, BugKind::AtomicityViolation), 9);
        assert_eq!(count(App::MySql, BugKind::AtomicityViolation), 9);
    }

    #[test]
    fn paper_named_ids_are_marked_real() {
        for id in [
            "Mozilla#54743",
            "Mozilla#60303",
            "Mozilla#90994",
            "Mozilla#79054",
            "Mozilla#123930",
            "Mozilla#65146",
            "Mozilla#27486",
            "Mozilla#18025",
            "Mozilla#133773",
            "Mozilla#19421",
            "Mozilla#72965",
            "Apache#25520",
            "Apache#7617",
            "MySQL#16582",
        ] {
            let b = bug_by_id(id).unwrap_or_else(|| panic!("missing {id}"));
            assert!(!b.synthetic_id, "{id} is named in the paper");
        }
    }
}
