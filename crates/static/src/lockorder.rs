//! The static lock-order pass: cycle detection over all path summaries
//! at once, with revocable acquisitions exempt.
//!
//! This is the static feeder of the one lock-order graph
//! ([`LockOrder`]) that `txfix_txlock::lockdep` fills live: a path that
//! acquires `b` while holding `a` records `a -> b`, firm when that
//! acquisition is a plain (non-revocable) lock. A cycle broken by a
//! `TxMutex` acquisition inside a transaction resolves itself through
//! Recipe 3's preemption, so it is not a deadlock.

use crate::ir::{Op, ScenarioSummary};
use crate::report::{Finding, Hazard};
use txfix_core::LockOrder;

/// The lock-order pass: report each strongly connected component of two
/// or more locks over firm edges.
pub(crate) fn cycles(summary: &ScenarioSummary) -> Vec<Finding> {
    let mut order = LockOrder::default();
    for path in &summary.paths {
        let mut held: Vec<String> = Vec::new();
        for op in &path.ops {
            match op {
                Op::Acquire { lock, revocable } => {
                    order.attempt(&held, lock, !*revocable);
                    held.push(lock.clone());
                }
                Op::Release { lock } => {
                    if let Some(pos) = held.iter().rposition(|h| h == lock) {
                        held.remove(pos);
                    }
                }
                _ => {}
            }
        }
    }
    order
        .cycles()
        .into_iter()
        .map(|locks| Finding {
            explanation: format!(
                "these locks are acquired in conflicting orders by different paths \
                 and none of the closing acquisitions is revocable: {}",
                locks.join(", "),
            ),
            hazard: Hazard::LockCycle { locks },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Path, Summary};

    #[test]
    fn opposite_orders_form_a_cycle() {
        let s = Summary::new("t", "buggy")
            .path(Path::new("p0").acquire("a").acquire("b").release("b").release("a"))
            .path(Path::new("p1").acquire("b").acquire("a").release("a").release("b"))
            .build();
        let c = cycles(&s);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].hazard, Hazard::LockCycle { locks: vec!["a".into(), "b".into()] });
    }

    #[test]
    fn revocable_acquisitions_break_the_cycle() {
        // One side acquires inside a transaction with TxMutex (Recipe 3):
        // the cycle resolves by preemption, so it is not reported.
        let s = Summary::new("t", "tm")
            .path(
                Path::new("p0")
                    .atomic_begin()
                    .acquire_tx("a")
                    .acquire_tx("b")
                    .release("b")
                    .release("a")
                    .atomic_end(),
            )
            .path(Path::new("p1").acquire("b").acquire("a").release("a").release("b"))
            .build();
        assert!(cycles(&s).is_empty());
    }

    #[test]
    fn disjoint_nesting_is_not_a_cycle() {
        let s = Summary::new("t", "dev")
            .path(Path::new("p0").acquire("a").acquire("b").release("b").release("a"))
            .path(Path::new("p1").acquire("c").acquire("d").release("d").release("c"))
            .build();
        assert!(cycles(&s).is_empty());
    }
}
