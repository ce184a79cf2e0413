//! Integration tests for the fault-injection layer's runtime hooks: armed
//! plans must fire deterministically at the right abort points, the
//! runtime must recover (no stuck orecs, no lost writes), irrevocable
//! transactions must be exempt, and a disarmed layer must inject nothing.

use std::sync::Mutex;
use txfix_stm::chaos::{self, FaultPlan, InjectionPoint, Trigger};
use txfix_stm::{obs, TVar, Txn};

/// The arming tables are process-global; serialize every test that
/// installs a plan so triggers are consumed by the intended transactions.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn begin_injection_forces_exactly_one_retry() {
    let _g = gate();
    let plan = FaultPlan::new(1).with(InjectionPoint::TxnBegin, Trigger::Nth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(0u32);
    let (_, report) = Txn::build().try_run(|t| v.modify(t, |x| x + 1)).expect("commits");
    assert_eq!(report.attempts, 2, "the first begin is injected, the second commits");
    assert_eq!(v.load(), 1, "exactly one commit's effect");
    assert_eq!(chaos::injected_total(), 1);
}

#[test]
fn read_injection_aborts_and_recovers() {
    let _g = gate();
    let plan = FaultPlan::new(2).with(InjectionPoint::TxnRead, Trigger::Nth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(10u32);
    let (got, report) = Txn::build()
        .try_run(|t| {
            let x = v.read(t)?;
            v.write(t, x + 1)?;
            Ok(x)
        })
        .expect("commits");
    assert_eq!(report.attempts, 2);
    assert_eq!(got, 10);
    assert_eq!(v.load(), 11);
}

#[test]
fn precommit_injection_aborts_and_recovers() {
    let _g = gate();
    let plan = FaultPlan::new(3).with(InjectionPoint::TxnPreCommit, Trigger::Nth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(0u32);
    let (_, report) = Txn::build().try_run(|t| v.modify(t, |x| x + 1)).expect("commits");
    assert_eq!(report.attempts, 2);
    assert_eq!(v.load(), 1);
}

#[test]
fn writeback_injection_releases_orecs_before_aborting() {
    let _g = gate();
    let plan = FaultPlan::new(4).with(InjectionPoint::TxnWriteback, Trigger::Nth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(0u32);
    let w = TVar::new(0u32);
    let (_, report) = Txn::build()
        .try_run(|t| {
            v.modify(t, |x| x + 1)?;
            w.modify(t, |x| x + 1)
        })
        .expect("commits");
    assert_eq!(report.attempts, 2, "mid-writeback failure retries once");
    // Both writes from the retried attempt — a half-applied first attempt
    // would leave 2 somewhere; a stuck orec would hang the next reader.
    assert_eq!((v.load(), w.load()), (1, 1));
    let (sum, _) = Txn::build()
        .try_run(|t| Ok(v.read(t)? + w.read(t)?))
        .expect("orecs must be free after the injected writeback failure");
    assert_eq!(sum, 2);
}

#[test]
fn every_nth_fires_periodically_across_transactions() {
    let _g = gate();
    let plan = FaultPlan::new(5).with(InjectionPoint::TxnPreCommit, Trigger::EveryNth(2));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(0u32);
    for _ in 0..8 {
        Txn::build().try_run(|t| v.modify(t, |x| x + 1)).expect("commits");
    }
    assert_eq!(v.load(), 8, "every transaction still commits exactly once");
    let precommit = chaos::point_stats()
        .into_iter()
        .find(|s| s.point == InjectionPoint::TxnPreCommit)
        .expect("stats for every point");
    assert_eq!(precommit.injected, precommit.hits / 2, "every 2nd hit fires");
    assert!(precommit.injected >= 4, "8 commits draw at least 8 hits");
}

#[test]
fn irrevocable_transactions_are_exempt() {
    let _g = gate();
    let plan = FaultPlan::new(6)
        .with(InjectionPoint::TxnRead, Trigger::EveryNth(1))
        .with(InjectionPoint::TxnPreCommit, Trigger::EveryNth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(0u32);
    let (_, report) = Txn::build()
        .try_run(|t| {
            t.become_irrevocable()?;
            v.modify(t, |x| x + 1)
        })
        .expect("commits");
    assert_eq!(report.attempts, 1, "no injection point may touch an irrevocable txn");
    assert!(report.committed_irrevocably);
    assert_eq!(v.load(), 1);
    assert_eq!(chaos::injected_total(), 0, "exempt paths do not even draw hits");
}

#[test]
fn disarmed_layer_injects_nothing() {
    let _g = gate();
    chaos::clear();
    assert!(!chaos::is_active());
    // `clear` keeps the counters of the last installed plan.
    let before = chaos::injected_total();
    let v = TVar::new(0u32);
    for _ in 0..50 {
        Txn::build().try_run(|t| v.modify(t, |x| x + 1)).expect("commits");
    }
    assert_eq!(v.load(), 50);
    assert_eq!(chaos::injected_total(), before);
}

#[test]
fn injected_faults_are_attributed_to_the_obs_site() {
    let _g = gate();
    obs::enable();
    let site = obs::intern("chaos_attribution_probe");
    let before = obs::snapshot();
    let plan = FaultPlan::new(7).with(InjectionPoint::TxnBegin, Trigger::Nth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(0u32);
    Txn::build()
        .site("chaos_attribution_probe")
        .try_run(|t| v.modify(t, |x| x + 1))
        .expect("commits");
    let delta = obs::snapshot().delta(&before);
    let probe = delta.site(site).expect("site registered");
    assert_eq!(probe.faults_injected, 1, "the fault lands on the current site's counter");
    assert_eq!(probe.commits, 1);
}

#[test]
fn scoped_guard_disarms_on_drop() {
    let _g = gate();
    {
        let plan = FaultPlan::new(8).with(InjectionPoint::TxnBegin, Trigger::EveryNth(1));
        let _armed = chaos::scoped(&plan);
        assert!(chaos::is_active());
    }
    assert!(!chaos::is_active(), "guard drop must disarm the layer");
    let v = TVar::new(0u32);
    let (_, report) = Txn::build().try_run(|t| v.modify(t, |x| x + 1)).expect("commits");
    assert_eq!(report.attempts, 1);
}
