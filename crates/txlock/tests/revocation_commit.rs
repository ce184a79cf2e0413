//! Revocation racing the victim's commit window (satellite of the chaos
//! PR): a kill that lands after the victim has decided to commit must be
//! ignored (Recipe 3 — commits are not abort points), the lock must be
//! released exactly once (a double release panics "released by
//! non-owner"), and a blocked acquirer must still be woken.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use txfix_stm::chaos::{self, FaultPlan, InjectionPoint, Trigger};
use txfix_stm::{hooks, KillHandle, Txn};
use txfix_txlock::TxMutex;

// Chaos plans are process-global: every test holds the arming guard
// (`hooks::arm(0)`, then the plan's own), so one test's triggers are never
// drawn by another's transactions.

fn spin_until(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn kill_in_the_commit_window_commits_cleanly_and_wakes_the_waiter() {
    let _g = hooks::arm(0);
    let m = TxMutex::new("revocation_commit.window", 0u64);
    let handle_slot: Mutex<Option<KillHandle>> = Mutex::new(None);
    let holder_ready = AtomicBool::new(false);
    let kill_delivered = AtomicBool::new(false);
    let waiter_value = AtomicU64::new(u64::MAX);

    std::thread::scope(|s| {
        let victim = s.spawn(|| {
            Txn::build()
                .try_run(|txn| {
                    m.with_tx(txn, |v| *v += 1)?;
                    *handle_slot.lock().unwrap() = Some(txn.kill_handle());
                    holder_ready.store(true, Ordering::SeqCst);
                    // Hold the commit decision open until the kill has
                    // landed: the body is done, the lock is held, and the
                    // kill flag is set when commit runs.
                    spin_until(&kill_delivered, "kill delivery");
                    Ok(())
                })
                .expect("commit must ignore a kill that arrives after the decision")
        });

        let waiter = s.spawn(|| {
            spin_until(&holder_ready, "holder to take the lock");
            // Blocks until the victim's commit releases the lock; a lost
            // wakeup leaves this thread parked and trips spin_until's
            // timeout via the join below.
            let guard = m.lock().expect("waiter must not be diagnosed as deadlocked");
            waiter_value.store(*guard, Ordering::SeqCst);
        });

        spin_until(&holder_ready, "holder to take the lock");
        let handle = handle_slot.lock().unwrap().take().expect("handle published");
        handle.kill();
        assert!(handle.is_killed());
        kill_delivered.store(true, Ordering::SeqCst);

        let (_, report) = victim.join().expect("victim thread");
        assert_eq!(report.attempts, 1, "the kill must not force a retry of a committing txn");
        waiter.join().expect("waiter thread");
    });

    assert_eq!(waiter_value.load(Ordering::SeqCst), 1, "waiter sees the committed increment");
    assert_eq!(*m.lock().expect("lock free after both threads"), 1);
}

#[test]
fn injected_revocation_releases_once_and_wakes_the_next_acquirer() {
    let _g = hooks::arm(0);
    // The victim's first acquisition is revoked right after it succeeds —
    // the abort unwinds through the same release path a real preemption
    // takes. The retry must re-acquire, commit, and leave the lock free.
    let plan = FaultPlan::new(9).with(InjectionPoint::LockRevoke, Trigger::Nth(1));
    let _armed = chaos::scoped(&plan);
    let m = TxMutex::new("revocation_commit.revoke", 0u64);
    let (_, report) =
        Txn::build().try_run(|txn| m.with_tx(txn, |v| *v += 1)).expect("retry must commit");
    assert_eq!(report.attempts, 2, "one revoked acquisition, one clean one");
    // A leaked or double-released lock would deadlock or panic here.
    assert_eq!(*m.lock().expect("lock free after revocation"), 1);
    assert_eq!(chaos::injected_total(), 1);
}

#[test]
fn revocation_storm_under_contention_conserves_the_protected_count() {
    let _g = hooks::arm(0);
    let plan = FaultPlan::new(10)
        .with(InjectionPoint::LockRevoke, Trigger::PerMille(200))
        .with(InjectionPoint::LockAcquire, Trigger::PerMille(100))
        .with(InjectionPoint::LockDelay, Trigger::PerMille(100));
    let _armed = chaos::scoped(&plan);
    let m = TxMutex::new("revocation_commit.storm", 0u64);
    const THREADS: usize = 4;
    const OPS: u64 = 100;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = &m;
            s.spawn(move || {
                txfix_stm::seed_backoff_rng(chaos::splitmix64(0xF00D ^ t as u64));
                for _ in 0..OPS {
                    Txn::build()
                        .try_run(|txn| m.with_tx(txn, |v| *v += 1))
                        .expect("every op commits despite revocations");
                }
            });
        }
    });
    assert_eq!(
        *m.lock().expect("lock free after the storm"),
        THREADS as u64 * OPS,
        "each op's increment lands exactly once"
    );
}
