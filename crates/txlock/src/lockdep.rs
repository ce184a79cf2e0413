//! A lock-order validator (lockdep-style).
//!
//! The paper's §3.1 pins the cost of lock-based fixes on *non-local
//! reasoning*: "adding a new lock requires considering whether it can
//! introduce deadlock with all existing locks". This module mechanizes
//! that reasoning: when enabled, every [`TxMutex`](crate::TxMutex)
//! acquisition *attempt* records ordering edges between the locks a
//! thread holds and the lock it is acquiring; a cycle through those edges
//! is a **potential deadlock** (a lock-order inversion), reported even if
//! no actual deadlock ever strikes — and still reported when one does,
//! because the edge is on record before the acquisition blocks. The
//! corpus uses it to show that the buggy lock disciplines are detectably
//! wrong before the first hang, and that the developers' reordered fixes
//! validate cleanly. Edges witnessed only by revocable
//! [`lock_tx`](crate::TxMutex::lock_tx) acquisitions are *benign*: a
//! cycle through them is resolved by preempting the transaction (paper
//! Recipe 3), so such cycles are suppressed and the paper's Recipe 3
//! fixes validate clean despite keeping their inverted acquisition order.
//! The edges live in a [`LockOrder`], whose cycle search runs when
//! [`inversions`] is asked.
//!
//! Validation is process-global and off by default (zero cost beyond one
//! atomic load per acquisition); enable it around the region of interest:
//!
//! ```
//! use txfix_txlock::{lockdep, TxMutex};
//!
//! lockdep::reset();
//! lockdep::enable();
//! let a = TxMutex::new("order.a", ());
//! let b = TxMutex::new("order.b", ());
//! {
//!     let _ga = a.lock().unwrap();
//!     let _gb = b.lock().unwrap(); // records a -> b
//! }
//! {
//!     let _gb = b.lock().unwrap();
//!     let _ga = a.lock().unwrap(); // records b -> a: inversion!
//! }
//! lockdep::disable();
//! assert_eq!(lockdep::inversions().len(), 1);
//! ```

use crate::graph::LockId;
use crate::LockOrder;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct OrderState {
    /// Observed "held `a` while acquiring `b`" order graph; a plain
    /// `lock()` (or a successful try-lock) is a firm witness.
    graph: LockOrder<LockId>,
    names: HashMap<LockId, String>,
}

impl OrderState {
    fn name(&self, id: &LockId) -> String {
        self.names.get(id).cloned().unwrap_or_else(|| "?".into())
    }
}

static ORDER: Mutex<Option<OrderState>> = Mutex::new(None);

thread_local! {
    static HELD: RefCell<Vec<LockId>> = const { RefCell::new(Vec::new()) };
}

/// A detected lock-order hazard: `first -> second` or `second -> first`
/// is a firm edge on a cycle of the recorded order graph. A two-lock
/// inversion is one pair; a cycle of more locks reports each of its firm
/// edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inversion {
    /// Name of one lock in the inverted pair.
    pub first: String,
    /// Name of the other lock.
    pub second: String,
}

impl fmt::Display for Inversion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock-order inversion: \"{}\" and \"{}\" are acquired in both orders",
            self.first, self.second
        )
    }
}

/// Start recording acquisition orders.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording (already-recorded state is kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clear all recorded edges.
pub fn reset() {
    let mut g = ORDER.lock();
    *g = Some(OrderState::default());
}

/// Inversions in the edges recorded since the last [`reset`], as sorted
/// name pairs, deduplicated and sorted.
pub fn inversions() -> Vec<Inversion> {
    let g = ORDER.lock();
    let Some(s) = g.as_ref() else { return Vec::new() };
    let mut pairs: Vec<(String, String)> = s
        .graph
        .inversions()
        .iter()
        .map(|(a, b)| {
            let (a, b) = (s.name(a), s.name(b));
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs.into_iter().map(|(first, second)| Inversion { first, second }).collect()
}

/// The recorded order edges as sorted, deduplicated `(held, acquiring)`
/// name pairs. This is the validator's ground truth in auditable form:
/// `txfix analyze` cross-checks it against the edges independently
/// derivable from the recorded trace, so a validator that silently drops
/// an edge (a lockdep bug, or a planted canary) is caught by disagreement
/// rather than trusted blindly.
pub fn edges() -> Vec<(String, String)> {
    let g = ORDER.lock();
    let Some(s) = g.as_ref() else { return Vec::new() };
    let mut pairs: Vec<(String, String)> =
        s.graph.edges().map(|(from, to)| (s.name(from), s.name(to))).collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

/// Record the order edges of an acquisition *attempt*: the thread holds
/// its current lock set and is about to block on (or test) `id`. Recording
/// at attempt time — before the acquisition can succeed — means a
/// discipline whose demonstration ends in an actual deadlock still leaves
/// the inverted edge on record; acquisition-time recording would lose
/// exactly the edge that completes the cycle.
pub(crate) fn note_attempt(id: LockId, name: &str, preemptible: bool) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // Canary: drop this attempt's order edges on the floor. The execution
    // is unchanged — only the validator's graph goes quietly incomplete,
    // which is exactly the failure mode the trace cross-check exists for.
    #[cfg(feature = "canary-txlock")]
    if txfix_stm::canary::fire(txfix_stm::canary::Canary::LockSkipLockdep) {
        return;
    }
    HELD.with(|h| {
        let mut g = ORDER.lock();
        let s = g.get_or_insert_with(OrderState::default);
        s.names.insert(id, name.to_owned());
        s.graph.attempt(&h.borrow(), &id, !preemptible);
    });
}

pub(crate) fn note_acquired(id: LockId) {
    HELD.with(|h| h.borrow_mut().push(id));
}

pub(crate) fn note_released(id: LockId) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&l| l == id) {
            held.remove(pos);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxMutex;

    // Lockdep state is process-global; serialize these tests.
    static TEST_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn inversion_detected_without_an_actual_deadlock() {
        let _g = TEST_GATE.lock();
        reset();
        enable();
        let a = TxMutex::new("ld.a", ());
        let b = TxMutex::new("ld.b", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        disable();
        let inv = inversions();
        assert_eq!(inv.len(), 1, "{inv:?}");
        assert!(inv[0].to_string().contains("ld.a"));
        assert!(inv[0].to_string().contains("ld.b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let _g = TEST_GATE.lock();
        reset();
        enable();
        let a = TxMutex::new("ld.c1", ());
        let b = TxMutex::new("ld.c2", ());
        for _ in 0..3 {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        disable();
        assert!(inversions().is_empty());
        assert!(!edges().is_empty());
    }

    #[test]
    fn cross_thread_inversion_is_detected() {
        let _g = TEST_GATE.lock();
        reset();
        enable();
        let a = std::sync::Arc::new(TxMutex::new("ld.x", ()));
        let b = std::sync::Arc::new(TxMutex::new("ld.y", ()));
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        let (a2, b2) = (a.clone(), b.clone());
        std::thread::spawn(move || {
            let _gb = b2.lock().unwrap();
            let _ga = a2.lock().unwrap();
        })
        .join()
        .unwrap();
        disable();
        assert_eq!(inversions().len(), 1);
    }

    #[test]
    fn disabled_validator_records_nothing() {
        let _g = TEST_GATE.lock();
        reset();
        let a = TxMutex::new("ld.off1", ());
        let b = TxMutex::new("ld.off2", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        assert!(inversions().is_empty());
        assert!(edges().is_empty());
    }

    #[test]
    fn preemptible_cycles_are_benign() {
        let _g = TEST_GATE.lock();
        reset();
        enable();
        let a = std::sync::Arc::new(TxMutex::new("ld.p1", 0u32));
        let b = std::sync::Arc::new(TxMutex::new("ld.p2", 0u32));
        // Recipe 3 shape: both orders occur, but revocably, inside
        // preemptible transactions.
        for swap in [false, true] {
            let (a2, b2) = (a.clone(), b.clone());
            txfix_stm::atomic(move |txn| {
                let (first, second) = if swap { (&b2, &a2) } else { (&a2, &b2) };
                first.lock_tx(txn)?;
                second.lock_tx(txn)?;
                Ok(())
            });
        }
        disable();
        assert!(edges().len() >= 2, "revocable attempts still record edges");
        assert!(
            inversions().is_empty(),
            "a cycle carried entirely by revocable acquisitions is preemptible, not a hazard"
        );
    }

    #[test]
    fn failed_attempt_still_records_the_inversion() {
        let _g = TEST_GATE.lock();
        reset();
        enable();
        let a = std::sync::Arc::new(TxMutex::new("ld.f1", ()));
        let b = std::sync::Arc::new(TxMutex::new("ld.f2", ()));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (a2, b2) = (a.clone(), b.clone());
                let barrier = &barrier;
                s.spawn(move || {
                    let (first, second) = if t == 0 { (&*a2, &*b2) } else { (&*b2, &*a2) };
                    let g = first.lock().unwrap();
                    barrier.wait();
                    // One of the two second acquisitions fails with a
                    // detected deadlock; its order edge must survive.
                    let _ = second.lock();
                    drop(g);
                });
            }
        });
        disable();
        assert_eq!(inversions().len(), 1, "{:?}", inversions());
    }

    #[test]
    fn duplicate_inversions_are_deduplicated() {
        let _g = TEST_GATE.lock();
        reset();
        enable();
        let a = TxMutex::new("ld.d1", ());
        let b = TxMutex::new("ld.d2", ());
        for _ in 0..4 {
            {
                let _ga = a.lock().unwrap();
                let _gb = b.lock().unwrap();
            }
            {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            }
        }
        disable();
        assert_eq!(inversions().len(), 1);
    }
}
