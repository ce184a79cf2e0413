//! Detector-integrity passes: checks on the *runtime's own machinery*,
//! derived from the recorded trace.
//!
//! The other passes look for bugs in the program under test. These two
//! look for bugs in the detectors and the commit protocol itself — the
//! class of defect the canary harness (`txfix canary`) plants on purpose:
//!
//! - [`lockdep_gaps`]: diffs the lock-order edge set replayed from the
//!   trace ([`TraceOrder::edges`]) against what the live
//!   `txfix_txlock::lockdep` validator recorded during the same run. The
//!   two witness the same acquisitions from independent vantage points,
//!   so on a healthy run they agree exactly; an edge present in the trace
//!   but absent from the validator means lockdep's deadlock graph is
//!   silently incomplete, and any cycle through the missing edge would go
//!   unreported.
//! - [`premature_notify`]: flags a retry-notifier bump emitted by a
//!   thread whose transaction is still open. The healthy commit path
//!   publishes its write-back, emits `TxnCommit`, and only then notifies;
//!   a notify that precedes the commit lets a retrying waiter wake,
//!   revalidate against the still-unpublished state, and sleep through
//!   the only wakeup for the real update — a lost wakeup.

use crate::order::TraceOrder;
use std::collections::{HashMap, HashSet};
use txfix_stm::trace::{EventKind, TraceEvent};

/// Order edges the trace witnessed but the live validator did not record:
/// each is a silent hole in lockdep's deadlock graph. Empty on a healthy
/// run. `live_edges` is `lockdep::edges()` captured from the same run.
pub fn lockdep_gaps(order: &TraceOrder, live_edges: &[(String, String)]) -> Vec<(String, String)> {
    let live: HashSet<&(String, String)> = live_edges.iter().collect();
    order.edges().into_iter().filter(|e| !live.contains(e)).collect()
}

/// Whether any retry-notifier bump was emitted by a thread with a
/// still-open transaction (`TxnBegin` seen, no `TxnCommit`/`TxnAbort`
/// yet) — the lost-wakeup-prone notify-before-publish ordering.
pub fn premature_notify(events: &[TraceEvent]) -> bool {
    let mut open: HashMap<u64, u32> = HashMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::TxnBegin { .. } => *open.entry(ev.thread).or_default() += 1,
            EventKind::TxnCommit { .. } | EventKind::TxnAbort { .. } => {
                if let Some(c) = open.get_mut(&ev.thread) {
                    *c = c.saturating_sub(1);
                }
            }
            EventKind::RetryNotify if open.get(&ev.thread).copied().unwrap_or(0) > 0 => {
                return true;
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { thread, kind }
    }

    fn acq(thread: u64, lock: u64, name: &str) -> TraceEvent {
        ev(thread, EventKind::LockAcquired { lock, name: name.into() })
    }

    fn rel(thread: u64, lock: u64) -> TraceEvent {
        ev(thread, EventKind::LockReleased { lock })
    }

    #[test]
    fn gaps_are_the_set_difference() {
        let events =
            [acq(1, 1, "a"), acq(1, 2, "b"), rel(1, 2), rel(1, 1), acq(2, 2, "b"), acq(2, 3, "c")];
        let order = crate::order::replay(&events);
        let live = vec![("a".to_string(), "b".to_string())];
        assert_eq!(lockdep_gaps(&order, &live), vec![("b".into(), "c".into())]);
        let all = vec![("a".to_string(), "b".to_string()), ("b".to_string(), "c".to_string())];
        assert!(lockdep_gaps(&order, &all).is_empty());
    }

    #[test]
    fn notify_after_commit_is_clean() {
        assert!(!premature_notify(&[
            ev(1, EventKind::TxnBegin { serial: 1 }),
            ev(1, EventKind::TxnCommit { serial: 1 }),
            ev(1, EventKind::RetryNotify),
        ]));
    }

    #[test]
    fn notify_inside_open_txn_is_flagged() {
        assert!(premature_notify(&[
            ev(1, EventKind::TxnBegin { serial: 1 }),
            ev(1, EventKind::RetryNotify),
            ev(1, EventKind::TxnCommit { serial: 1 }),
        ]));
    }

    #[test]
    fn notify_from_an_untracked_thread_is_clean() {
        assert!(!premature_notify(&[
            ev(1, EventKind::TxnBegin { serial: 1 }),
            ev(2, EventKind::RetryNotify),
            ev(1, EventKind::TxnCommit { serial: 1 }),
        ]));
    }
}
