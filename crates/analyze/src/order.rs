//! The trace's lock-order graph: one replay of the recorded lock events.
//!
//! This is the trace feeder of the one lock-order graph
//! ([`LockOrder`]) that `txfix_txlock::lockdep` fills live. Every
//! `LockAttempt` adds "held → attempted" edges, firm unless the attempt
//! is revocable (`preemptible`); a `LockAcquired` adds them too, with no
//! firm witness, because try-acquisitions emit no attempt. From the one
//! replay come both outputs `txfix analyze` uses:
//!
//! - [`TraceOrder::inversions`]: lock-order hazards for *any* traced lock
//!   (TxMutex, serial mutexes, external objects);
//! - [`TraceOrder::edges`]: the edge set the live validator should have
//!   recorded, which `integrity::lockdep_gaps` diffs against it.

use std::collections::HashMap;
use txfix_stm::trace::{self, EventKind, TraceEvent};
use txfix_txlock::LockOrder;

/// A lock pair acquired in both orders (a firm edge on a cycle), as
/// sorted diagnostic names.
pub type InversionPair = (String, String);

/// The lock-order graph replayed from a trace, keyed by trace lock id.
pub struct TraceOrder {
    graph: LockOrder<u64>,
    names: HashMap<u64, String>,
}

/// Replay the lock events of `events` into a [`TraceOrder`].
pub fn replay(events: &[TraceEvent]) -> TraceOrder {
    let mut held: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut order = TraceOrder { graph: LockOrder::default(), names: HashMap::new() };
    for ev in events {
        let held = held.entry(ev.thread).or_default();
        match &ev.kind {
            EventKind::LockAttempt { lock, name, preemptible } => {
                order.names.insert(*lock, name.clone());
                order.graph.attempt(held, lock, !preemptible);
            }
            EventKind::LockAcquired { lock, name } => {
                order.names.insert(*lock, name.clone());
                order.graph.attempt(held, lock, false);
                held.push(*lock);
            }
            EventKind::LockReleased { lock } => {
                if let Some(pos) = held.iter().rposition(|l| l == lock) {
                    held.remove(pos);
                }
            }
            _ => {}
        }
    }
    order
}

impl TraceOrder {
    /// Lock-order inversions, one per sorted name pair, sorted.
    pub fn inversions(&self) -> Vec<InversionPair> {
        let mut out: Vec<InversionPair> = self
            .graph
            .inversions()
            .iter()
            .map(|(a, b)| {
                let (a, b) = (self.names[a].clone(), self.names[b].clone());
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The `(held, acquiring)` edges as sorted, deduplicated name pairs,
    /// in the form of `lockdep::edges()`. Locks carrying the
    /// external-object trace tag never touch lockdep, so edges involving
    /// them are excluded.
    pub fn edges(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .graph
            .edges()
            .filter(|(a, b)| !trace::is_external_object(**a) && !trace::is_external_object(**b))
            .map(|(a, b)| (self.names[a].clone(), self.names[b].clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(thread: u64, lock: u64, preemptible: bool) -> TraceEvent {
        TraceEvent {
            thread,
            kind: EventKind::LockAttempt { lock, name: format!("l{lock}"), preemptible },
        }
    }

    fn acquired(thread: u64, lock: u64) -> TraceEvent {
        TraceEvent { thread, kind: EventKind::LockAcquired { lock, name: format!("l{lock}") } }
    }

    fn released(thread: u64, lock: u64) -> TraceEvent {
        TraceEvent { thread, kind: EventKind::LockReleased { lock } }
    }

    #[test]
    fn ab_ba_is_reported_once() {
        let order = replay(&[
            attempt(1, 1, false),
            acquired(1, 1),
            attempt(1, 2, false),
            acquired(1, 2),
            released(1, 2),
            released(1, 1),
            attempt(2, 2, false),
            acquired(2, 2),
            attempt(2, 1, false),
            acquired(2, 1),
            released(2, 1),
            released(2, 2),
        ]);
        assert_eq!(order.inversions(), vec![("l1".to_string(), "l2".to_string())]);
    }

    #[test]
    fn blocked_attempt_still_counts() {
        // Thread 2's second acquisition never succeeds (a real deadlock
        // would strike here); the attempt alone closes the cycle.
        let order = replay(&[
            attempt(1, 1, false),
            acquired(1, 1),
            attempt(2, 2, false),
            acquired(2, 2),
            attempt(1, 2, false),
            attempt(2, 1, false),
        ]);
        assert_eq!(order.inversions().len(), 1);
        assert_eq!(order.edges(), vec![("l1".into(), "l2".into()), ("l2".into(), "l1".into())]);
    }

    #[test]
    fn try_acquisitions_record_edges_but_close_no_cycle() {
        // Nested acquisitions with no attempt event (try-locks): the edges
        // are on record for the lockdep cross-check, but carry no firm
        // witness.
        let order = replay(&[
            acquired(1, 1),
            acquired(1, 2),
            released(1, 2),
            released(1, 1),
            acquired(2, 2),
            acquired(2, 1),
        ]);
        assert_eq!(order.edges(), vec![("l1".into(), "l2".into()), ("l2".into(), "l1".into())]);
        assert!(order.inversions().is_empty());
    }

    #[test]
    fn external_locks_are_excluded_from_the_edges() {
        let tagged = 1u64 << 63 | 9;
        let order = replay(&[
            acquired(1, tagged),
            attempt(1, 2, false),
            acquired(1, 2),
            released(1, 2),
            released(1, tagged),
            acquired(2, 3),
            acquired(2, tagged),
        ]);
        assert!(order.edges().is_empty(), "{:?}", order.edges());
    }
}
