//! Atomic-region inference: from static findings to a fix plan.
//!
//! The inference loop is the Joshi–Lal "grow until quiet" discipline
//! over the summary IR:
//!
//! 1. **Seed** one region per static finding ([`check`]):
//!    a data hazard seeds a [`Region::Wrap`] over the group-closed
//!    subjects, a lock-order cycle seeds [`Region::Dissolve`], a wait
//!    cycle seeds [`Region::PreemptWait`], a lost wakeup seeds
//!    [`Region::Retire`].
//! 2. **Merge** overlapping regions (RaceFixer-style): wraps whose
//!    location sets intersect become one wrap over the union; dissolves
//!    sharing a lock union their cycles; duplicate cv regions collapse,
//!    a serializing retire absorbing a plain one.
//! 3. **Apply** the merged plan to the summary (deterministic order:
//!    dissolves, preemptions, retires, then wraps — lock-structure
//!    rewrites first so span placement sees the final lock layout) and
//!    re-run the checkers.
//! 4. **Grow** on residual findings: widen the overlapping wrap to the
//!    re-closed subject union, escalating to serialization against
//!    every lock and then to every path if the seed geometry is already
//!    maximal; escalate a plain retire to a serializing one; add any
//!    missing region kind. Repeat from 3 until the checkers are silent
//!    or a round makes no progress.
//!
//! On the whole corpus the loop converges in one round — the seeds are
//! already sufficient — but the growth ladder is what makes the loop a
//! fixpoint search rather than a lookup table, and synthetic summaries
//! in the tests exercise it. Its output is also the corpus's TM model:
//! `txfix-corpus` derives each scenario's `tm` summary as the patch
//! inferred for the buggy one.

use std::collections::BTreeSet;

use crate::{check, wrap_region_seed, Region, ScenarioSummary};
use txfix_core::Hazard;

/// Give up after this many grow rounds.
const MAX_ROUNDS: u32 = 8;

/// The result of a successful inference.
#[derive(Clone, Debug)]
pub struct Inference {
    /// The inferred fix plan, in application order.
    pub regions: Vec<Region>,
    /// The summary with the plan applied (statically clean).
    pub patched: ScenarioSummary,
    /// Grow rounds used (1 = the seeds were already sufficient; 0 = the
    /// input had no findings and no fix was needed).
    pub rounds: u32,
}

/// Infer a fix plan for `summary` and apply it.
///
/// # Errors
///
/// If the summary is structurally invalid, a region fails to lower, or
/// the grow loop stalls or exceeds `MAX_ROUNDS` with findings left.
pub fn infer(summary: &ScenarioSummary) -> Result<Inference, String> {
    summary.validate()?;
    let findings = check(summary);
    if findings.is_empty() {
        return Ok(Inference { regions: Vec::new(), patched: summary.clone(), rounds: 0 });
    }
    let mut regions = merge(seed_regions(summary, findings.iter().map(|f| &f.hazard)));
    for round in 1..=MAX_ROUNDS {
        let patched = apply_all(summary, &regions)?;
        let residual = check(&patched);
        if residual.is_empty() {
            return Ok(Inference { regions, patched, rounds: round });
        }
        if !grow(summary, &mut regions, residual.iter().map(|f| &f.hazard)) {
            return Err(format!(
                "{}: inference stuck after round {round}: {} residual finding(s) and no region can grow",
                summary.key,
                residual.len()
            ));
        }
        regions = merge(regions);
    }
    Err(format!("{}: inference did not converge within {MAX_ROUNDS} rounds", summary.key))
}

/// One region per finding.
fn seed_regions<'a>(
    summary: &ScenarioSummary,
    hazards: impl Iterator<Item = &'a Hazard>,
) -> Vec<Region> {
    hazards
        .map(|h| match h {
            Hazard::Race { loc } => wrap_region_seed(summary, std::slice::from_ref(loc)),
            Hazard::Atomicity { locs } => wrap_region_seed(summary, locs),
            Hazard::LockCycle { locks } => Region::Dissolve { locks: locks.clone() },
            Hazard::WaitCycle { cv, .. } => Region::PreemptWait { cv: cv.clone() },
            Hazard::LostWakeup { cv, .. } => Region::Retire { cv: cv.clone(), serialize: false },
        })
        .collect()
}

/// Merge overlapping regions to a fixpoint and sort into application
/// order (lock-structure rewrites before wraps, then by rendering, so
/// the plan is a pure function of its content).
fn merge(mut regions: Vec<Region>) -> Vec<Region> {
    loop {
        let mut merged = None;
        'search: for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if let Some(m) = merge_pair(&regions[i], &regions[j]) {
                    merged = Some((i, j, m));
                    break 'search;
                }
            }
        }
        match merged {
            Some((i, j, m)) => {
                regions[i] = m;
                regions.remove(j);
            }
            None => break,
        }
    }
    regions.sort_by_key(|r| (application_rank(r), r.to_string()));
    regions.dedup();
    regions
}

fn application_rank(r: &Region) -> u8 {
    match r {
        Region::Dissolve { .. } => 0,
        Region::Preempt { .. } => 1,
        Region::PreemptWait { .. } => 2,
        Region::Retire { .. } => 3,
        Region::Wrap { .. } => 4,
    }
}

fn union_sorted(a: &[String], b: &[String]) -> Vec<String> {
    let set: BTreeSet<&String> = a.iter().chain(b).collect();
    set.into_iter().cloned().collect()
}

fn intersects(a: &[String], b: &[String]) -> bool {
    a.iter().any(|x| b.contains(x))
}

fn merge_pair(a: &Region, b: &Region) -> Option<Region> {
    match (a, b) {
        (
            Region::Wrap { locs: la, paths: pa, serialized: sa },
            Region::Wrap { locs: lb, paths: pb, serialized: sb },
        ) if intersects(la, lb) => Some(Region::Wrap {
            locs: union_sorted(la, lb),
            paths: pa.union(pb).copied().collect(),
            serialized: union_sorted(sa, sb),
        }),
        (Region::Dissolve { locks: la }, Region::Dissolve { locks: lb }) if intersects(la, lb) => {
            Some(Region::Dissolve { locks: union_sorted(la, lb) })
        }
        (Region::Preempt { locks: la }, Region::Preempt { locks: lb }) if intersects(la, lb) => {
            Some(Region::Preempt { locks: union_sorted(la, lb) })
        }
        (Region::PreemptWait { cv: ca }, Region::PreemptWait { cv: cb }) if ca == cb => {
            Some(Region::PreemptWait { cv: ca.clone() })
        }
        (Region::Retire { cv: ca, serialize: za }, Region::Retire { cv: cb, serialize: zb })
            if ca == cb =>
        {
            Some(Region::Retire { cv: ca.clone(), serialize: *za || *zb })
        }
        _ => None,
    }
}

/// Lower the plan onto the summary; `Err` if a region does not apply
/// or the result fails validation.
fn apply_all(summary: &ScenarioSummary, regions: &[Region]) -> Result<ScenarioSummary, String> {
    let mut out = summary.clone();
    for r in regions {
        out = r
            .apply(&out)
            .ok_or_else(|| format!("{}: region '{r}' is not applicable", summary.key))?;
    }
    out.validate().map_err(|e| format!("patched summary invalid: {e}"))?;
    Ok(out)
}

/// Grow the plan to cover residual findings. Returns whether anything
/// changed — `false` means the loop is stuck.
fn grow<'a>(
    summary: &ScenarioSummary,
    regions: &mut Vec<Region>,
    residual: impl Iterator<Item = &'a Hazard>,
) -> bool {
    let mut changed = false;
    for h in residual {
        changed |= match h {
            Hazard::Race { loc } => grow_wrap(summary, regions, std::slice::from_ref(loc)),
            Hazard::Atomicity { locs } => grow_wrap(summary, regions, locs),
            Hazard::LockCycle { locks } => grow_dissolve(regions, locks),
            Hazard::WaitCycle { cv, .. } => {
                push_if_absent(regions, Region::PreemptWait { cv: cv.clone() })
            }
            Hazard::LostWakeup { cv, .. } => grow_retire(regions, cv),
        };
    }
    changed
}

/// Widen the wrap overlapping `subjects`, or seed a new one. The
/// escalation ladder keeps growth monotone: re-seed over the union of
/// locations, then serialize against every lock, then cover every path.
fn grow_wrap(summary: &ScenarioSummary, regions: &mut Vec<Region>, subjects: &[String]) -> bool {
    for r in regions.iter_mut() {
        let Region::Wrap { locs, paths, serialized } = &*r else { continue };
        if !intersects(locs, subjects) {
            continue;
        }
        let reseeded = wrap_region_seed(summary, &union_sorted(locs, subjects));
        let Region::Wrap { locs: nl, paths: np, serialized: ns } = reseeded else {
            unreachable!("wrap_region_seed returns Region::Wrap")
        };
        let widened = Region::Wrap {
            locs: union_sorted(&nl, locs),
            paths: paths.union(&np).copied().collect(),
            serialized: union_sorted(&ns, serialized),
        };
        if widened != *r {
            *r = widened;
            return true;
        }
        let all_locks: Vec<String> = summary.lock_names().into_iter().collect();
        if *serialized != all_locks {
            *r = Region::Wrap { locs: nl, paths: np, serialized: all_locks };
            return true;
        }
        if paths.len() != summary.paths.len() {
            *r = Region::Wrap {
                locs: nl,
                paths: (0..summary.paths.len()).collect(),
                serialized: all_locks,
            };
            return true;
        }
        return false;
    }
    regions.push(wrap_region_seed(summary, subjects));
    true
}

fn grow_dissolve(regions: &mut Vec<Region>, locks: &[String]) -> bool {
    for r in regions.iter_mut() {
        let Region::Dissolve { locks: existing } = &*r else { continue };
        if intersects(existing, locks) {
            let union = union_sorted(existing, locks);
            if union == *existing {
                return false;
            }
            *r = Region::Dissolve { locks: union };
            return true;
        }
    }
    regions.push(Region::Dissolve { locks: locks.to_vec() });
    true
}

fn grow_retire(regions: &mut Vec<Region>, cv: &str) -> bool {
    for r in regions.iter_mut() {
        let Region::Retire { cv: existing, serialize } = &*r else { continue };
        if existing == cv {
            if *serialize {
                return false;
            }
            *r = Region::Retire { cv: cv.to_string(), serialize: true };
            return true;
        }
    }
    regions.push(Region::Retire { cv: cv.to_string(), serialize: false });
    true
}

fn push_if_absent(regions: &mut Vec<Region>, region: Region) -> bool {
    if regions.contains(&region) {
        return false;
    }
    regions.push(region);
    true
}
