//! # txfix-core: the paper's contribution — fix recipes and bug analysis
//!
//! *Applying Transactional Memory to Concurrency Bugs* (ASPLOS 2012) is an
//! empirical methodology: four **recipes** for applying TM to existing
//! buggy code, plus a decision procedure for when each applies and a
//! difficulty model comparing TM fixes against what developers actually
//! shipped. This crate is that methodology as a library:
//!
//! - [`recipe`]: runtime combinators for the recipes that need more than
//!   a plain atomic region ([`txfix_stm::atomic`] is Recipes 1 and 2) —
//!   [`preemptible`] (Recipe 3, asymmetric deadlock preemption over
//!   revocable locks) and [`wrap_unprotected_atomic`] (Recipe 4,
//!   atomic/lock serialization).
//! - [`bug`]: the [`BugRecord`] model capturing each studied bug's
//!   structure (lock cycles, CV waits, missing-sync class, downcalls, the
//!   developers' fix).
//! - [`analysis`]: [`analyze`] — the §5.3 rules deciding whether TM can
//!   fix a bug and with which recipe.
//! - [`difficulty`]: the §5.2 effort model rating TM fixes
//!   easy/medium/hard and picking the preferable fix.
//! - [`finding`]: the unified [`Hazard`] vocabulary every analyzer
//!   (static, dynamic, region inference) reports in.
//! - [`report`]: rebuild the paper's Tables 1–3 from any dataset
//!   ([`table1`], [`table2`], [`table3`], [`CorpusSummary`]).
//! - [`json`]: the hand-rolled JSON reader/writer shared by the
//!   machine-readable report formats (no serde in this build).
//!
//! The 60-bug dataset itself lives in `txfix-corpus`, which also provides
//! executable reproductions of the 18 implemented fixes.

#![warn(missing_docs)]

pub mod analysis;
pub mod bug;
pub mod difficulty;
pub mod finding;
pub mod json;
pub mod recipe;
pub mod report;
pub mod sweep;

pub use analysis::{
    analyze, fallback_recipe, recipe_candidates, Analysis, FixPlan, HazardClass, Recipe,
    UnfixableReason,
};
pub use bug::{App, BugChars, BugKind, BugRecord, DevFix, Difficulty, Downcalls, MissingSync};
pub use difficulty::{preference, tm_difficulty, Preference};
pub use finding::Hazard;
pub use recipe::{preemptible, preemptible_report, wrap_unprotected_atomic};
pub use report::{table1, table2, table3, CorpusSummary, FixabilityCell, TextTable};
/// The lock-order graph the static pass shares with `lockdep` and the
/// trace replay.
pub use txfix_txlock::LockOrder;
