//! Deadlock semantics with lazy victim registration: a transaction joins
//! the wait-for graph's abortable set the first time one of its
//! acquisitions *blocks*, not at its first `lock_tx`. Every cycle below is
//! built from locks that were each first taken uncontended — the case the
//! lazy scheme must not lose — on real threads, the interleaving forced by
//! a barrier between the first and the second acquisition.

use std::sync::{mpsc, Barrier};
use std::time::Duration;
use txfix_stm::{atomic, Abort, StmResult, Txn};
use txfix_txlock::{enlist_preemptible, TxMutex};

/// One side of an AB-BA pair: take `first`, meet the peer, take `second`.
/// Returns the aborts this side's `lock_tx(second)` calls reported.
fn txn_side(
    first: &TxMutex<u32>,
    second: &TxMutex<u32>,
    barrier: &Barrier,
    prologue: impl Fn(&mut Txn),
) -> Vec<Abort> {
    let mut aborts = Vec::new();
    let mut met = false;
    atomic(|txn| -> StmResult<()> {
        prologue(txn);
        first.lock_tx(txn)?;
        if !met {
            met = true;
            barrier.wait();
        }
        second.lock_tx(txn).inspect_err(|e| aborts.push(e.clone()))?;
        first.with_held(|v| *v += 1);
        second.with_held(|v| *v += 1);
        Ok(())
    });
    aborts
}

fn is_preemption(a: &Abort) -> bool {
    matches!(a, Abort::Deadlock | Abort::Killed)
}

#[test]
fn cycle_of_uncontended_first_locks_resolves_by_aborting_a_transaction() {
    let (a, b) = (TxMutex::new("lazy.a", 0u32), TxMutex::new("lazy.b", 0u32));
    let barrier = Barrier::new(2);
    let (left, right) = std::thread::scope(|s| {
        let h = s.spawn(|| txn_side(&a, &b, &barrier, |_| {}));
        (txn_side(&b, &a, &barrier, |_| {}), h.join().unwrap())
    });
    let aborts: Vec<_> = left.iter().chain(&right).collect();
    assert!(!aborts.is_empty(), "the cycle must have been broken by a preemption");
    assert!(aborts.iter().all(|a| is_preemption(a)), "unexpected abort in {aborts:?}");
    assert_eq!((*a.lock().unwrap(), *b.lock().unwrap()), (2, 2), "both sides committed once");
}

#[test]
fn cycle_with_a_plain_locker_victimises_the_transaction() {
    let (a, b) = (TxMutex::new("mixed.a", 0u32), TxMutex::new("mixed.b", 0u32));
    let barrier = Barrier::new(2);
    let aborts = std::thread::scope(|s| {
        let plain = s.spawn(|| {
            let mut ga = a.lock().expect("first lock is uncontended");
            barrier.wait();
            // Never `DeadlockError`: the cycle has an abortable member.
            let mut gb = b.lock().expect("the transaction must yield, not the plain locker");
            *ga += 1;
            *gb += 1;
        });
        let aborts = txn_side(&b, &a, &barrier, |_| {});
        plain.join().unwrap();
        aborts
    });
    assert!(!aborts.is_empty() && aborts.iter().all(is_preemption), "got {aborts:?}");
    assert_eq!((*a.lock().unwrap(), *b.lock().unwrap()), (2, 2));
}

#[test]
fn explicit_low_priority_is_still_the_preferred_victim() {
    for _ in 0..20 {
        let (a, b) = (TxMutex::new("prio.a", 0u32), TxMutex::new("prio.b", 0u32));
        let barrier = Barrier::new(2);
        let (low, peer) = std::thread::scope(|s| {
            let h = s.spawn(|| txn_side(&a, &b, &barrier, |txn| enlist_preemptible(txn, -1)));
            let peer = txn_side(&b, &a, &barrier, |_| {});
            (h.join().unwrap(), peer)
        });
        assert!(!low.is_empty() && low.iter().all(is_preemption), "low-priority side: {low:?}");
        assert!(peer.is_empty(), "the priority-0 peer was preempted: {peer:?}");
    }
}

#[test]
fn registration_ends_with_the_transaction_on_commit_and_on_abort() {
    // A registration that outlived its transaction would let the detector
    // "resolve" a later plain-lock cycle on the same thread by killing a
    // finished transaction: nobody yields and both lockers wait forever.
    // So: the transactional AB-BA (one side commits straight, one aborts
    // first), then a plain AB-BA on the same two threads, which must be
    // reported to one of them. A watchdog turns the hang into a failure.
    let (verdict_tx, verdict_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (a, b) = (TxMutex::new("ends.a", 0u32), TxMutex::new("ends.b", 0u32));
        let barrier = Barrier::new(2);
        let side = |first: &TxMutex<u32>, second: &TxMutex<u32>| {
            txn_side(first, second, &barrier, |_| {});
            barrier.wait(); // both transactions are done before any plain lock
            let _held = first.lock().expect("no cycle yet");
            barrier.wait();
            second.lock().is_err()
        };
        let detected = std::thread::scope(|s| {
            let h = s.spawn(|| side(&a, &b));
            let here = side(&b, &a);
            h.join().unwrap() || here
        });
        verdict_tx.send(detected).unwrap();
    });
    let detected = verdict_rx.recv_timeout(Duration::from_secs(30)).expect("plain cycle hung");
    assert!(detected, "a plain AB-BA must be reported as a true deadlock");
}
