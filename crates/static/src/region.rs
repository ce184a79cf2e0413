//! The atomic-region model that fix inference plans in.
//!
//! `txfix lint` synthesizes a fix directly from a (finding, recipe)
//! pair. Inference ([`crate::infer`]) instead works with an explicit,
//! growable plan: a [`Region`] names *what* the patch will do to the
//! summary — wrap a span, dissolve a lock cycle, make a participant
//! preemptible, retire a monitor — and [`Region::apply`] lowers it onto
//! the IR with the exact same transformations the recipe synthesizer
//! uses. Inference seeds one region per finding ([`wrap_region_seed`]
//! for shared-data hazards), grows and merges them, and only then
//! lowers.

use crate::ir::ScenarioSummary;
use crate::synth;
use std::collections::BTreeSet;
use std::fmt;
use txfix_core::json::{Json, ToJson};
use txfix_core::Recipe;

/// One planned atomic region (or region-introducing rewrite) over a
/// scenario summary. All name lists are kept sorted so a region's
/// rendering is a pure function of its content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Region {
    /// Wrap each selected path's span of accesses to `locs` in an
    /// atomic region serialized against `serialized` (empty = plain
    /// region). Lowered via the Recipe 2/4 span machinery: spans grow
    /// to stay balanced, subsumed serialized-lock sections are dropped.
    Wrap {
        /// The locations the region must cover (group-closed, sorted).
        locs: Vec<String>,
        /// Indices of the paths to wrap.
        paths: BTreeSet<usize>,
        /// Locks the region is serialized against (sorted).
        serialized: Vec<String>,
    },
    /// Replace every acquire/release of `locks` with atomic-region
    /// entry/exit in every path (Recipe 1 on a lock cycle).
    Dissolve {
        /// The cycle locks (sorted).
        locks: Vec<String>,
    },
    /// Make one cycle participant a preemptible transaction with
    /// revocable cycle-lock acquisitions (Recipe 3 on a lock cycle).
    Preempt {
        /// The cycle locks (sorted).
        locks: Vec<String>,
    },
    /// Turn every path waiting on `cv` into a preemptible transaction,
    /// the wait replaced by transactional retry (Recipe 3 on a wait
    /// cycle).
    PreemptWait {
        /// The condition variable waited on.
        cv: String,
    },
    /// Drop the wait/notify pair on `cv` and turn its monitor critical
    /// sections into atomic regions — TM's retry idiom subsumes the
    /// condition variable. With `serialize`, the regions stay
    /// serialized against the monitor locks for their remaining users.
    Retire {
        /// The condition variable to retire.
        cv: String,
        /// Whether the replacement regions serialize with the monitor.
        serialize: bool,
    },
}

impl Region {
    /// Which of the paper's recipes this region amounts to, for
    /// labeling the synthesized patch.
    pub fn recipe(&self) -> Recipe {
        match self {
            Region::Wrap { serialized, .. } if serialized.is_empty() => Recipe::WrapAll,
            Region::Wrap { .. } => Recipe::WrapUnprotected,
            Region::Dissolve { .. } => Recipe::ReplaceLocks,
            Region::Preempt { .. } | Region::PreemptWait { .. } => Recipe::DeadlockPreemption,
            Region::Retire { serialize: false, .. } => Recipe::WrapAll,
            Region::Retire { serialize: true, .. } => Recipe::WrapUnprotected,
        }
    }

    /// Lower the region onto the summary IR. `None` only for
    /// [`Region::Preempt`] when no path closes the cycle (nothing to
    /// make preemptible).
    pub fn apply(&self, summary: &ScenarioSummary) -> Option<ScenarioSummary> {
        match self {
            Region::Wrap { locs, paths, serialized } => {
                Some(synth::wrap_spans(summary, locs, paths, serialized))
            }
            Region::Dissolve { locks } => Some(synth::replace_locks(summary, locks)),
            Region::Preempt { locks } => synth::preempt_cycle(summary, locks),
            Region::PreemptWait { cv } => Some(synth::preempt_wait(summary, cv)),
            Region::Retire { cv, serialize } => {
                Some(synth::retire_monitor(summary, cv, *serialize))
            }
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Wrap { locs, paths, serialized } => {
                let paths: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
                write!(f, "wrap {{{}}} in paths [{}]", locs.join(", "), paths.join(", "))?;
                if !serialized.is_empty() {
                    write!(f, " serialized with {{{}}}", serialized.join(", "))?;
                }
                Ok(())
            }
            Region::Dissolve { locks } => write!(f, "dissolve locks {{{}}}", locks.join(", ")),
            Region::Preempt { locks } => {
                write!(f, "preempt one holder of {{{}}}", locks.join(", "))
            }
            Region::PreemptWait { cv } => write!(f, "preempt waiters on {cv}"),
            Region::Retire { cv, serialize } => {
                write!(f, "retire {cv}{}", if *serialize { " (serialized)" } else { "" })
            }
        }
    }
}

impl ToJson for Region {
    fn to_json_value(&self) -> Json {
        match self {
            Region::Wrap { locs, paths, serialized } => Json::obj([
                ("kind", Json::str("wrap")),
                ("locs", Json::strings(locs)),
                ("paths", Json::list(paths.iter().map(|p| Json::int(*p as u64)))),
                ("serialized", Json::strings(serialized)),
            ]),
            Region::Dissolve { locks } => {
                Json::obj([("kind", Json::str("dissolve")), ("locks", Json::strings(locks))])
            }
            Region::Preempt { locks } => {
                Json::obj([("kind", Json::str("preempt")), ("locks", Json::strings(locks))])
            }
            Region::PreemptWait { cv } => {
                Json::obj([("kind", Json::str("preempt_wait")), ("cv", Json::str(cv.clone()))])
            }
            Region::Retire { cv, serialize } => Json::obj([
                ("kind", Json::str("retire")),
                ("cv", Json::str(cv.clone())),
                ("serialize", Json::Bool(*serialize)),
            ]),
        }
    }
}

/// Seed a wrap region for a shared-data hazard over `subjects`: close
/// the locations over the summary's invariant groups, then start from
/// the minimal Recipe 4 shape — only the under-protected paths, with
/// the serialization set the locations' other protectors demand.
pub fn wrap_region_seed(summary: &ScenarioSummary, subjects: &[String]) -> Region {
    let locs = synth::expand_groups(summary, subjects);
    let (paths, serialized) = synth::wrap_seed(summary, &locs);
    Region::Wrap { locs, paths, serialized }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Path, Summary};

    #[test]
    fn wrap_seed_matches_recipe4_shape() {
        let s = Summary::new("t", "buggy")
            .path(Path::new("p0").acquire("right").read("x").write("x").release("right"))
            .path(Path::new("p1").read("x").write("x"))
            .build();
        let region = wrap_region_seed(&s, &["x".to_string()]);
        let Region::Wrap { locs, paths, serialized } = &region else {
            panic!("expected a wrap, got {region:?}");
        };
        assert_eq!(locs, &["x".to_string()]);
        assert_eq!(paths.iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(serialized, &["right".to_string()]);
        assert_eq!(region.recipe(), txfix_core::Recipe::WrapUnprotected);
        let fixed = region.apply(&s).unwrap();
        assert!(crate::check(&fixed).is_empty(), "{:?}", crate::check(&fixed));
    }

    #[test]
    fn regions_render_and_serialize_deterministically() {
        let r = Region::Wrap {
            locs: vec!["a".into(), "b".into()],
            paths: [0usize, 2].into_iter().collect(),
            serialized: vec!["l".into()],
        };
        assert_eq!(r.to_string(), "wrap {a, b} in paths [0, 2] serialized with {l}");
        assert!(r.to_json().contains("\"kind\":\"wrap\""));
        assert_eq!(Region::Dissolve { locks: vec!["l".into()] }.to_string(), "dissolve locks {l}");
        assert_eq!(
            Region::Retire { cv: "cv".into(), serialize: true }.to_string(),
            "retire cv (serialized)"
        );
    }
}
