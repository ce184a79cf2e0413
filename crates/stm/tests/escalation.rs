//! Integration tests for the graceful-degradation ladder: a transaction
//! that keeps failing must escalate (hardware →) optimistic → stronger
//! backoff → serial/irrevocable within its attempt budget, commit exactly
//! once, and account for every rung promotion in `TxnReport` and the obs
//! registry.
//!
//! The "always fails" pressure comes from the chaos layer (deterministic
//! triggers) or from a capacity bound, so the tests are
//! interleaving-independent. Chaos plans are process-global: a test that
//! installs one holds its guard, and a test that needs none armed holds
//! `hooks::arm(0)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use txfix_stm::chaos::{self, FaultPlan, InjectionPoint, Trigger};
use txfix_stm::hooks;
use txfix_stm::{
    obs, CapacityKind, EscalationPolicy, EscalationRung, TVar, Txn, TxnBuilder, TxnError,
};

#[test]
fn always_conflicting_txn_reaches_serial_within_budget_and_commits_once() {
    obs::enable();
    let site = obs::intern("escalation_serial_probe");
    let before = obs::snapshot();

    // Every non-serial begin fails: only the serial (irrevocable) rung can
    // commit, so the ladder is the *only* way out.
    let plan = FaultPlan::new(40).with(InjectionPoint::TxnBegin, Trigger::EveryNth(1));
    let _armed = chaos::scoped(&plan);

    let v = TVar::new(0u32);
    let body_runs = AtomicU64::new(0);
    let (_, report) = Txn::build()
        .site("escalation_serial_probe")
        .escalation(EscalationPolicy { backoff_after: 3, serial_after: 6, deadline: None })
        .try_run(|t| {
            body_runs.fetch_add(1, Ordering::SeqCst);
            v.modify(t, |x| x + 1)
        })
        .expect("the serial rung must commit");

    assert_eq!(report.attempts, 7, "6 failed optimistic/backoff attempts, then serial");
    assert_eq!(report.committed_rung, EscalationRung::Serial);
    assert!(report.committed_irrevocably, "the serial rung runs irrevocably");
    assert_eq!(report.escalations, 2, "optimistic -> stronger backoff -> serial");
    assert_eq!(v.load(), 1, "commits exactly once");
    assert_eq!(body_runs.load(Ordering::SeqCst), 1, "injected begins never reach the body");

    let delta = obs::snapshot().delta(&before);
    let probe = delta.site(site).expect("site registered");
    assert_eq!(probe.commits, 1);
    assert_eq!(probe.escalations, 2);
    assert_eq!(probe.irrevocable, 1);
    assert_eq!(probe.faults_injected, 6);
}

#[test]
fn deadline_jumps_straight_to_the_serial_rung() {
    let _g = hooks::arm(0);
    let v = TVar::new(0u32);
    let policy = EscalationPolicy { deadline: Some(Duration::ZERO), ..EscalationPolicy::default() };
    let (_, report) =
        Txn::build().escalation(policy).try_run(|t| v.modify(t, |x| x + 1)).expect("commits");
    assert_eq!(report.attempts, 1, "an expired deadline serializes immediately");
    assert_eq!(report.committed_rung, EscalationRung::Serial);
    assert!(report.committed_irrevocably);
    assert_eq!(report.escalations, 2, "both promotions are taken (and recorded) at once");
    assert_eq!(v.load(), 1);
}

#[test]
fn intermittent_conflicts_commit_on_the_stronger_backoff_rung() {
    // Reads always fail, but the body stops reading after three attempts:
    // the commit lands after the backoff promotion, before serial.
    let plan = FaultPlan::new(41).with(InjectionPoint::TxnRead, Trigger::EveryNth(1));
    let _armed = chaos::scoped(&plan);
    let v = TVar::new(7u32);
    let w = TVar::new(0u32);
    let attempts_seen = AtomicU64::new(0);
    let (_, report) = Txn::build()
        .escalation(EscalationPolicy { backoff_after: 2, serial_after: 100, deadline: None })
        .try_run(|t| {
            if attempts_seen.fetch_add(1, Ordering::SeqCst) < 3 {
                let _ = v.read(t)?;
            }
            // Write-only (`modify` would read and draw another injection).
            w.write(t, 42)
        })
        .expect("commits");
    assert_eq!(report.attempts, 4);
    assert_eq!(report.committed_rung, EscalationRung::StrongerBackoff);
    assert!(!report.committed_irrevocably);
    assert_eq!(report.escalations, 1);
    assert_eq!(w.load(), 42);
}

#[test]
fn clean_transactions_stay_on_the_optimistic_rung() {
    let _g = hooks::arm(0);
    let v = TVar::new(0u32);
    let (_, report) = Txn::build()
        .escalation(EscalationPolicy { backoff_after: 2, serial_after: 4, deadline: None })
        .try_run(|t| v.modify(t, |x| x + 1))
        .expect("commits");
    assert_eq!(report.attempts, 1);
    assert_eq!(report.committed_rung, EscalationRung::Optimistic);
    assert_eq!(report.escalations, 0);
    assert!(!report.committed_irrevocably);
}

#[test]
fn rungs_are_ordered_and_named() {
    assert!(EscalationRung::Hardware < EscalationRung::Optimistic);
    assert!(EscalationRung::Optimistic < EscalationRung::StrongerBackoff);
    assert!(EscalationRung::StrongerBackoff < EscalationRung::Serial);
    assert_eq!(EscalationRung::Hardware.name(), "hardware");
    assert_eq!(EscalationRung::Optimistic.name(), "optimistic");
    assert_eq!(EscalationRung::StrongerBackoff.name(), "stronger_backoff");
    assert_eq!(EscalationRung::Serial.name(), "serial");
    assert_eq!(EscalationRung::Hardware.next(), EscalationRung::Optimistic);
    assert_eq!(EscalationRung::Serial.next(), EscalationRung::Serial, "top rung is absorbing");
}

// The hardware rung: a builder that sets `capacity` starts there, the
// paper's §5.4.1 best-effort HTM with a software fallback.

/// A read-only body over `vars`, wider than any capacity below 32.
fn sum(vars: &[TVar<u32>], t: &mut Txn) -> txfix_stm::StmResult<u32> {
    let mut s = 0;
    for v in vars {
        s += v.read(t)?;
    }
    Ok(s)
}

fn hybrid() -> TxnBuilder {
    Txn::build().escalation(EscalationPolicy::default())
}

#[test]
fn a_small_transaction_commits_on_the_hardware_rung() {
    let _g = hooks::arm(0);
    let v = TVar::new(1u32);
    let (out, report) = hybrid()
        .capacity(1024, 256)
        .try_run(|t| v.modify(t, |x| x * 3).map(|_| 3))
        .expect("fits the hardware");
    assert_eq!(out, 3);
    assert_eq!(report.committed_rung, EscalationRung::Hardware);
    assert_eq!((report.attempts, report.escalations), (1, 0));
    assert_eq!(v.load(), 3);
}

#[test]
fn a_capacity_overflow_falls_back_to_unbounded_optimistic() {
    let _g = hooks::arm(0);
    obs::enable();
    let site = obs::intern("escalation_capacity_probe");
    let before = obs::snapshot();
    let vars: Vec<TVar<u32>> = (0..32u32).map(TVar::new).collect();
    let (total, report) = hybrid()
        .site("escalation_capacity_probe")
        .capacity(8, 8)
        .try_run(|t| sum(&vars, t))
        .expect("the software rung is unbounded");
    assert_eq!(total, (0..32).sum::<u32>());
    assert_eq!(report.committed_rung, EscalationRung::Optimistic);
    assert_eq!(report.attempts, 2, "one hardware overflow, one software commit");
    assert_eq!(report.escalations, 1);
    assert!(!report.committed_irrevocably);

    let delta = obs::snapshot().delta(&before);
    let probe = delta.site(site).expect("site registered");
    assert_eq!(probe.aborts_capacity, 1);
    assert_eq!(probe.escalations, 1);
    assert_eq!(probe.commits, 1);
}

#[test]
fn serial_after_one_falls_back_to_the_global_lock() {
    let _g = hooks::arm(0);
    let vars: Vec<TVar<u32>> = (0..32).map(|_| TVar::new(1)).collect();
    let (total, report) = Txn::build()
        .capacity(4, 4)
        .escalation(EscalationPolicy { serial_after: 1, ..EscalationPolicy::default() })
        .try_run(|t| sum(&vars, t))
        .expect("the serial rung commits");
    assert_eq!(total, 32);
    assert_eq!(report.committed_rung, EscalationRung::Serial);
    assert!(report.committed_irrevocably);
    assert_eq!(report.attempts, 2);
}

#[test]
fn without_a_policy_a_capacity_overflow_is_terminal() {
    let _g = hooks::arm(0);
    let vars: Vec<TVar<u32>> = (0..32).map(|_| TVar::new(1)).collect();
    let r = Txn::build().capacity(4, 4).try_run(|t| sum(&vars, t));
    assert!(
        matches!(r, Err(TxnError::Capacity { kind: CapacityKind::ReadSet, attempts: 1 })),
        "{r:?}"
    );
}

#[test]
fn a_hybrid_counter_is_exact_under_contention() {
    let _g = hooks::arm(0);
    let v = TVar::new(0u64);
    let txb = hybrid().capacity(64, 64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (v, txb) = (v.clone(), txb.clone());
            s.spawn(move || {
                for _ in 0..250 {
                    txb.run(|t| v.modify(t, |x| x + 1));
                }
            });
        }
    });
    assert_eq!(v.load(), 1000);
}

#[test]
fn run_with_the_default_hybrid_configuration_commits() {
    let _g = hooks::arm(0);
    let v = TVar::new(0u32);
    let ((), report) = hybrid().capacity(1024, 256).run(|t| v.write(t, 9));
    assert_eq!(report.committed_rung, EscalationRung::Hardware);
    assert_eq!(v.load(), 9);
}
