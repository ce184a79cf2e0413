//! Runtime combinators for the fix recipes.
//!
//! Recipes 1 and 2 are plain atomic regions, [`txfix_stm::atomic`]. The
//! entry points here are for the two that need more: a developer fixing
//! a bug picks the recipe and gets the right combination of revocable
//! locks, preemption priority, backoff and serialization without
//! re-deriving it.

use std::sync::Arc;
use txfix_stm::{StmResult, Txn, TxnBuilder, TxnError, TxnReport};
use txfix_tmsync::{serial_atomic_with, SerialDomain};

/// The victim priority a [`preemptible`] region registers with. Lower
/// values abort first when a deadlock cycle forms, and a transaction that
/// blocks in `TxMutex::lock_tx` unregistered ranks 0. The paper makes the
/// *infrequent / low-priority* thread preemptible, so it goes first.
pub const PREEMPT_PRIORITY: i32 = -1;

/// **Recipe 3 — asymmetric deadlock preemption.** Run `body` as an
/// abortable transaction registered as a *preferred deadlock victim*:
/// locks acquired with [`TxMutex::lock_tx`] inside the body are revocable,
/// and when a deadlock cycle forms, this transaction aborts, releases its
/// locks, backs off exponentially with jitter (the runtime's one ladder,
/// which is what prevents the livelock discussed in §4.4) and retries —
/// letting the other (unmodified, lock-based) threads make progress.
///
/// The body may also use [`Txn::retry`] in place of a condition-variable
/// wait, the combination used in the Apache-I case study (§5.4.2).
///
/// # Errors
///
/// [`TxnError::Cancelled`] if the body cancels.
///
/// [`TxMutex::lock_tx`]: txfix_txlock::TxMutex::lock_tx
pub fn preemptible<T>(body: impl FnMut(&mut Txn) -> StmResult<T>) -> Result<T, TxnError> {
    preemptible_report(body).map(|(v, _)| v)
}

/// Like [`preemptible`], additionally returning the execution report
/// (attempt/preemption counts — the observable cost of Recipe 3).
///
/// # Errors
///
/// Same as [`preemptible`].
pub fn preemptible_report<T>(
    mut body: impl FnMut(&mut Txn) -> StmResult<T>,
) -> Result<(T, TxnReport), TxnError> {
    Txn::build().site("recipe3_preemptible").try_run(move |txn| {
        txfix_txlock::enlist_preemptible(txn, PREEMPT_PRIORITY);
        body(txn)
    })
}

/// **Recipe 4 — wrap unprotected.** Run `body` as an atomic region
/// serialized against every lock-based critical section in `domain`
/// (see [`SerialDomain`]): only the buggy region changes, the code that
/// already uses locks correctly stays untouched.
pub fn wrap_unprotected_atomic<T>(
    domain: &Arc<SerialDomain>,
    body: impl FnMut(&mut Txn) -> StmResult<T>,
) -> T {
    serial_atomic_with(domain, &TxnBuilder::default().site("recipe4_wrap_unprotected"), body)
        .expect("default serial atomic region cannot fail terminally")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use txfix_stm::TVar;
    use txfix_tmsync::SerialMutex;
    use txfix_txlock::TxMutex;

    #[test]
    fn preemptible_resolves_ab_ba_against_plain_locks() {
        use std::sync::Barrier;
        let a = Arc::new(TxMutex::new("r3-A", 0u32));
        let b = Arc::new(TxMutex::new("r3-B", 0u32));
        let barrier = Arc::new(Barrier::new(2));

        std::thread::scope(|s| {
            let (a1, b1, bar) = (a.clone(), b.clone(), barrier.clone());
            s.spawn(move || {
                let _ga = a1.lock().unwrap();
                bar.wait();
                let _gb = b1.lock().unwrap();
            });
            let (a2, b2, bar) = (a.clone(), b.clone(), barrier.clone());
            s.spawn(move || {
                let mut synced = false;
                let (_, report) = preemptible_report(|txn| {
                    b2.lock_tx(txn)?;
                    if !synced {
                        synced = true;
                        bar.wait();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    a2.lock_tx(txn)
                })
                .unwrap();
                assert!(report.preemptions >= 1, "expected at least one preemption");
            });
        });
        assert!(!a.is_locked() && !b.is_locked());
    }

    #[test]
    fn recipe4_serializes_against_domain_locks() {
        let domain = SerialDomain::new();
        let counter = Arc::new(SerialMutex::new(domain.clone(), 0u64));
        let tv = TVar::new(0u64);
        std::thread::scope(|s| {
            let (d, tv) = (domain.clone(), tv.clone());
            s.spawn(move || {
                for _ in 0..100 {
                    wrap_unprotected_atomic(&d, |txn| tv.modify(txn, |x| x + 1));
                }
            });
            let c = counter.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    *c.lock() += 1;
                }
            });
        });
        assert_eq!(tv.load(), 100);
        assert_eq!(*counter.lock(), 100);
    }
}
