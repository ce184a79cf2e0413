//! Recipe-applicability analysis: the decision procedure of paper §5.3,
//! extracted from its prose into executable rules.
//!
//! Given a [`BugRecord`], [`analyze`] decides whether TM can fix the bug,
//! with which primary recipe, which sophisticated recipe (3 or 4) can
//! *simplify* the fix, and — when TM cannot help — why.

use crate::bug::{BugChars, BugKind, BugRecord, MissingSync};
use std::fmt;

/// The paper's four fix recipes (§4.2–§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Recipe {
    /// Recipe 1: replace deadlock-prone locks with atomic regions.
    ReplaceLocks,
    /// Recipe 2: wrap all conflicting code regions in atomic regions.
    WrapAll,
    /// Recipe 3: asymmetric deadlock preemption with revocable resources.
    DeadlockPreemption,
    /// Recipe 4: wrap only the unprotected region, serialized against all
    /// lock critical sections.
    WrapUnprotected,
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Recipe::ReplaceLocks => write!(f, "recipe 1 (replace deadlock-prone locks)"),
            Recipe::WrapAll => write!(f, "recipe 2 (wrap all)"),
            Recipe::DeadlockPreemption => write!(f, "recipe 3 (deadlock preemption)"),
            Recipe::WrapUnprotected => write!(f, "recipe 4 (wrap unprotected)"),
        }
    }
}

impl Recipe {
    /// Stable machine-readable identifier, used by the JSON report
    /// formats (`txfix analyze --json`, `txfix lint --json`).
    pub fn slug(self) -> &'static str {
        match self {
            Recipe::ReplaceLocks => "replace-locks",
            Recipe::WrapAll => "wrap-all",
            Recipe::DeadlockPreemption => "deadlock-preemption",
            Recipe::WrapUnprotected => "wrap-unprotected",
        }
    }
}

/// The coarse hazard classes the detectors (dynamic and static) report,
/// used to map a finding onto the recipe that addresses it and to match
/// static findings against dynamic ones. Data races and atomicity
/// violations share one class: both are unserialized access to shared
/// data, and the same wrap fixes both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HazardClass {
    /// A cycle in the lock-order graph (potential deadlock).
    LockCycle,
    /// A condition-variable wait that keeps a lock a notifier needs.
    WaitCycle,
    /// Shared data reachable without common serialization (a data race
    /// or a torn read-modify-write / multi-location invariant).
    SharedData,
    /// A notification that can fire before its waiter is ready.
    LostWakeup,
}

impl fmt::Display for HazardClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardClass::LockCycle => write!(f, "lock-order cycle"),
            HazardClass::WaitCycle => write!(f, "wait-with-held-lock cycle"),
            HazardClass::SharedData => write!(f, "unserialized shared data"),
            HazardClass::LostWakeup => write!(f, "lost wakeup"),
        }
    }
}

/// The recipe a finding of `class` gets when no corpus record ties it to
/// the §5.3 decision procedure: the simple recipe of the matching bug
/// kind (1 for lock cycles, 2 for data), and preemption for CV hazards,
/// which atomic regions alone cannot express.
pub fn fallback_recipe(class: HazardClass) -> Recipe {
    match class {
        HazardClass::LockCycle => Recipe::ReplaceLocks,
        HazardClass::WaitCycle => Recipe::DeadlockPreemption,
        HazardClass::SharedData => Recipe::WrapAll,
        HazardClass::LostWakeup => Recipe::WrapAll,
    }
}

/// The candidate recipes a linter should synthesize for a finding of
/// `class`: the §5.3 plan (primary first, then the simplifying recipe)
/// when the finding is tied to an analyzed corpus bug, the per-class
/// default otherwise, and nothing when the analysis says TM cannot fix
/// the bug.
pub fn recipe_candidates(analysis: Option<&Analysis>, class: HazardClass) -> Vec<Recipe> {
    match analysis {
        Some(Analysis::Fixable(plan)) => {
            let mut out = vec![plan.primary];
            out.extend(plan.simplified_by);
            out
        }
        Some(Analysis::Unfixable(_)) => Vec::new(),
        None => vec![fallback_recipe(class)],
    }
}

/// Why TM cannot fix a bug (§5.3.1 / §5.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnfixableReason {
    /// Nested monitor lockout: the deadlock requires two-way communication
    /// that preemption/retry cannot untangle.
    TwoWayCommunication,
    /// Non-preemptible code spanning multiple modules — fixing would mean
    /// rewriting every module (and some, like third-party plugins, cannot
    /// be changed).
    MultiModuleNonPreemptible,
    /// A design error (e.g. waiting on a destroyed component), not a
    /// mutual-exclusion problem.
    DesignFlaw,
    /// The region must hold atomicity across a long-latency operation and
    /// its completion callback; an (inevitable) transaction would block
    /// the whole process.
    LongLatencyCallback,
    /// Exactly-once execution semantics are required, beyond TM's
    /// guarantees.
    ExactlyOnce,
    /// The violated atomicity is of I/O across process boundaries, which
    /// process-local TM cannot cover.
    CrossProcessIo,
}

impl fmt::Display for UnfixableReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfixableReason::TwoWayCommunication => {
                write!(f, "two-way communication (nested monitor lockout)")
            }
            UnfixableReason::MultiModuleNonPreemptible => {
                write!(f, "non-preemptible code across multiple modules")
            }
            UnfixableReason::DesignFlaw => write!(f, "design flaw, not a mutual-exclusion problem"),
            UnfixableReason::LongLatencyCallback => {
                write!(f, "atomicity across a long-latency operation and its callback")
            }
            UnfixableReason::ExactlyOnce => write!(f, "requires exactly-once semantics beyond TM"),
            UnfixableReason::CrossProcessIo => write!(f, "atomicity of cross-process I/O"),
        }
    }
}

/// Result of analyzing one bug.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Analysis {
    /// TM can fix the bug.
    Fixable(FixPlan),
    /// TM cannot fix the bug.
    Unfixable(UnfixableReason),
}

/// How TM fixes a fixable bug.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixPlan {
    /// The recipe that fixes the bug with the fewest ingredients
    /// (straightforward recipes preferred, matching the paper's "Recipes 1
    /// and 2 are sufficient to tackle 40 of the 43").
    pub primary: Recipe,
    /// A sophisticated recipe that *also* works and reduces the fix's
    /// implementation effort (Recipe 3 localizes lock replacement; Recipe
    /// 4 avoids duplicating existing locking effort).
    pub simplified_by: Option<Recipe>,
}

impl Analysis {
    /// Whether TM can fix the bug.
    pub fn is_fixable(&self) -> bool {
        matches!(self, Analysis::Fixable(_))
    }

    /// The fix plan, if fixable.
    pub fn plan(&self) -> Option<&FixPlan> {
        match self {
            Analysis::Fixable(p) => Some(p),
            Analysis::Unfixable(_) => None,
        }
    }
}

/// Decide whether and how TM can fix `bug`.
pub fn analyze(bug: &BugRecord) -> Analysis {
    match bug.kind {
        BugKind::Deadlock => analyze_deadlock(&bug.chars),
        BugKind::AtomicityViolation => analyze_atomicity(&bug.chars),
    }
}

fn analyze_deadlock(c: &BugChars) -> Analysis {
    // §5.3.1, "When TM does not work".
    if c.two_way_communication {
        return Analysis::Unfixable(UnfixableReason::TwoWayCommunication);
    }
    if c.design_flaw {
        return Analysis::Unfixable(UnfixableReason::DesignFlaw);
    }
    if c.multi_module && c.non_preemptible {
        return Analysis::Unfixable(UnfixableReason::MultiModuleNonPreemptible);
    }

    if c.cv_wait {
        // Deadlocks through condition-variable waits: atomic regions alone
        // (Recipe 1) cannot express them; only preemption + retry works,
        // and only if the waiting thread can be rolled back.
        if c.non_preemptible {
            return Analysis::Unfixable(UnfixableReason::MultiModuleNonPreemptible);
        }
        return Analysis::Fixable(FixPlan {
            primary: Recipe::DeadlockPreemption,
            simplified_by: None,
        });
    }

    debug_assert!(c.lock_cycle, "a TM-relevant deadlock is a lock cycle or a CV wait");
    // Pure lock-order inversions: Recipe 1 always applies (inevitability
    // handles non-preemptible sections). Recipe 3 additionally applies —
    // and localizes the fix — when at least one participant can be rolled
    // back.
    Analysis::Fixable(FixPlan {
        primary: Recipe::ReplaceLocks,
        simplified_by: if c.non_preemptible { None } else { Some(Recipe::DeadlockPreemption) },
    })
}

fn analyze_atomicity(c: &BugChars) -> Analysis {
    // §5.3.2, "When TM does not work".
    if c.long_latency_callback {
        return Analysis::Unfixable(UnfixableReason::LongLatencyCallback);
    }
    if c.exactly_once {
        return Analysis::Unfixable(UnfixableReason::ExactlyOnce);
    }
    if c.cross_process_io {
        return Analysis::Unfixable(UnfixableReason::CrossProcessIo);
    }

    let missing = c
        .missing_sync
        .expect("atomicity-violation records must classify their missing synchronization");

    // Recipe 2 fixes every remaining AV; Recipe 4 additionally applies —
    // and saves re-doing the existing synchronization work — whenever the
    // violation is asymmetric: some regions already express their
    // atomicity objective (with the intended lock, the wrong lock, or an
    // ad hoc mechanism) and only the buggy region needs wrapping.
    let simplified_by = match missing {
        MissingSync::Partial | MissingSync::WrongLock | MissingSync::AdHoc => {
            Some(Recipe::WrapUnprotected)
        }
        MissingSync::Complete => None,
    };
    Analysis::Fixable(FixPlan { primary: Recipe::WrapAll, simplified_by })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bug::{App, DevFix, Difficulty, Downcalls};

    fn record(kind: BugKind, chars: BugChars) -> BugRecord {
        BugRecord {
            id: "Test#1",
            app: App::Mozilla,
            kind,
            synthetic_id: true,
            summary: "test",
            chars,
            dev_fix: DevFix { difficulty: Difficulty::Medium, loc: 10, attempts: 1 },
            scenario: None,
        }
    }

    #[test]
    fn lock_cycle_is_recipe1_with_recipe3_simplification() {
        let a = analyze(&record(
            BugKind::Deadlock,
            BugChars { lock_cycle: true, fix_sites: 4, ..Default::default() },
        ));
        let plan = a.plan().expect("fixable");
        assert_eq!(plan.primary, Recipe::ReplaceLocks);
        assert_eq!(plan.simplified_by, Some(Recipe::DeadlockPreemption));
    }

    #[test]
    fn non_preemptible_lock_cycle_is_recipe1_only() {
        let a = analyze(&record(
            BugKind::Deadlock,
            BugChars { lock_cycle: true, non_preemptible: true, ..Default::default() },
        ));
        let plan = a.plan().expect("fixable");
        assert_eq!(plan.primary, Recipe::ReplaceLocks);
        assert_eq!(plan.simplified_by, None);
    }

    #[test]
    fn cv_wait_deadlock_needs_recipe3() {
        let a = analyze(&record(
            BugKind::Deadlock,
            BugChars {
                cv_wait: true,
                downcalls: Downcalls { retry: true, ..Downcalls::NONE },
                ..Default::default()
            },
        ));
        assert_eq!(a.plan().unwrap().primary, Recipe::DeadlockPreemption);
    }

    #[test]
    fn nested_monitor_lockout_is_unfixable() {
        let a = analyze(&record(
            BugKind::Deadlock,
            BugChars { cv_wait: true, two_way_communication: true, ..Default::default() },
        ));
        assert_eq!(a, Analysis::Unfixable(UnfixableReason::TwoWayCommunication));
    }

    #[test]
    fn multi_module_non_preemptible_is_unfixable() {
        let a = analyze(&record(
            BugKind::Deadlock,
            BugChars {
                lock_cycle: true,
                multi_module: true,
                non_preemptible: true,
                ..Default::default()
            },
        ));
        assert_eq!(a, Analysis::Unfixable(UnfixableReason::MultiModuleNonPreemptible));
    }

    #[test]
    fn design_flaw_is_unfixable() {
        let a = analyze(&record(
            BugKind::Deadlock,
            BugChars { design_flaw: true, ..Default::default() },
        ));
        assert_eq!(a, Analysis::Unfixable(UnfixableReason::DesignFlaw));
    }

    #[test]
    fn complete_missing_sync_is_recipe2() {
        let a = analyze(&record(
            BugKind::AtomicityViolation,
            BugChars {
                missing_sync: Some(MissingSync::Complete),
                single_atomic_block: true,
                ..Default::default()
            },
        ));
        let plan = a.plan().unwrap();
        assert_eq!(plan.primary, Recipe::WrapAll);
        assert_eq!(plan.simplified_by, None);
    }

    #[test]
    fn partial_missing_sync_is_simplified_by_recipe4() {
        let a = analyze(&record(
            BugKind::AtomicityViolation,
            BugChars { missing_sync: Some(MissingSync::Partial), ..Default::default() },
        ));
        let plan = a.plan().unwrap();
        assert_eq!(plan.primary, Recipe::WrapAll);
        assert_eq!(plan.simplified_by, Some(Recipe::WrapUnprotected));
    }

    #[test]
    fn unfixable_av_reasons() {
        for (chars, reason) in [
            (
                BugChars {
                    missing_sync: Some(MissingSync::Complete),
                    long_latency_callback: true,
                    ..Default::default()
                },
                UnfixableReason::LongLatencyCallback,
            ),
            (
                BugChars {
                    missing_sync: Some(MissingSync::Complete),
                    exactly_once: true,
                    ..Default::default()
                },
                UnfixableReason::ExactlyOnce,
            ),
            (
                BugChars {
                    missing_sync: Some(MissingSync::Partial),
                    cross_process_io: true,
                    ..Default::default()
                },
                UnfixableReason::CrossProcessIo,
            ),
        ] {
            let a = analyze(&record(BugKind::AtomicityViolation, chars));
            assert_eq!(a, Analysis::Unfixable(reason));
        }
    }

    #[test]
    fn recipe_candidates_follow_the_plan_when_there_is_one() {
        let plan = Analysis::Fixable(FixPlan {
            primary: Recipe::WrapAll,
            simplified_by: Some(Recipe::WrapUnprotected),
        });
        assert_eq!(
            recipe_candidates(Some(&plan), HazardClass::SharedData),
            vec![Recipe::WrapAll, Recipe::WrapUnprotected]
        );
        let unfixable = Analysis::Unfixable(UnfixableReason::DesignFlaw);
        assert!(recipe_candidates(Some(&unfixable), HazardClass::LockCycle).is_empty());
        assert_eq!(recipe_candidates(None, HazardClass::LockCycle), vec![Recipe::ReplaceLocks]);
        assert_eq!(
            recipe_candidates(None, HazardClass::WaitCycle),
            vec![Recipe::DeadlockPreemption]
        );
    }

    #[test]
    fn recipe_display_mentions_number() {
        assert!(Recipe::ReplaceLocks.to_string().contains("recipe 1"));
        assert!(Recipe::WrapAll.to_string().contains("recipe 2"));
        assert!(Recipe::DeadlockPreemption.to_string().contains("recipe 3"));
        assert!(Recipe::WrapUnprotected.to_string().contains("recipe 4"));
    }
}
