//! Cross-crate integration tests: the substrate layers working together
//! through the facade crate, the way the recipes combine them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txfix::recipes::{preemptible, wrap_unprotected_atomic};
use txfix::stm::{atomic, EscalationPolicy, EscalationRung, TVar, Txn};
use txfix::tmsync::{guard, SerialDomain, SerialMutex, TxCondvar};
use txfix::txlock::TxMutex;
use txfix::xcall::{SimFs, SimPipe, XFile, XPipe};

#[test]
fn stm_txlock_and_xcall_compose_in_one_transaction() {
    // A transaction that mixes TVar state, a revocable lock and deferred
    // file I/O: everything commits together or not at all.
    let fs = SimFs::new();
    let journal = XFile::open_or_create(&fs, "journal");
    let account = TVar::new(100i64);
    let audit = Arc::new(TxMutex::new("it.audit", Vec::<String>::new()));

    let first = AtomicBool::new(true);
    let (j, a, au) = (journal.clone(), account.clone(), audit.clone());
    atomic(move |txn| {
        let balance = a.read(txn)?;
        a.write(txn, balance - 25)?;
        j.x_append(txn, format!("withdraw 25 (was {balance})\n").as_bytes())?;
        au.with_tx(txn, |log| log.push("withdraw".to_string()))?;
        if first.swap(false, Ordering::SeqCst) {
            return txn.restart(); // everything above must be discarded
        }
        Ok(())
    });

    assert_eq!(account.load(), 75);
    assert_eq!(journal.file().read_all(), b"withdraw 25 (was 100)\n");
    // Lock-protected data is mutual-exclusion only (not isolated), so both
    // attempts' pushes are present — exactly the Recipe 3 caveat.
    assert_eq!(audit.lock().unwrap().len(), 2);
    assert!(!audit.is_locked());
}

#[test]
fn recipe3_preemption_with_deferred_io() {
    // Two preemptible transactions in opposite lock orders, each also
    // journaling through an x-call: deadlock resolves by preemption, and
    // the journal sees exactly one line per *committed* transfer.
    let fs = SimFs::new();
    let journal = XFile::open_or_create(&fs, "transfers");
    let a = Arc::new(TxMutex::new("it.r3.a", 100i64));
    let b = Arc::new(TxMutex::new("it.r3.b", 100i64));
    const PER_THREAD: usize = 50;

    std::thread::scope(|s| {
        for t in 0..2usize {
            let (a, b, j) = (a.clone(), b.clone(), journal.clone());
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    preemptible(|txn| {
                        let (first, second) = if t == 0 { (&a, &b) } else { (&b, &a) };
                        first.lock_tx(txn)?;
                        second.lock_tx(txn)?;
                        j.x_append(txn, b"T\n")?;
                        first.with_held(|v| *v -= 1);
                        second.with_held(|v| *v += 1);
                        Ok(())
                    })
                    .expect("preemptible transfer");
                }
            });
        }
    });

    assert_eq!(*a.lock().unwrap() + *b.lock().unwrap(), 200);
    assert_eq!(journal.file().read_all().len(), 2 * PER_THREAD * 2);
}

#[test]
fn recipe4_serializes_against_foreign_locks_with_tvar_state() {
    let domain = SerialDomain::new();
    let ledger = Arc::new(SerialMutex::new(domain.clone(), Vec::<u32>::new()));
    let counter = TVar::new(0u32);

    std::thread::scope(|s| {
        let (l, d, c) = (ledger.clone(), domain.clone(), counter.clone());
        s.spawn(move || {
            for i in 0..200 {
                wrap_unprotected_atomic(&d, |txn| {
                    c.modify(txn, |v| v + 1)?;
                    Ok(())
                });
                l.lock().push(i);
            }
        });
        let l = ledger.clone();
        s.spawn(move || {
            for i in 0..200 {
                l.lock().push(1000 + i);
            }
        });
    });
    assert_eq!(counter.load(), 200);
    assert_eq!(ledger.lock().len(), 400);
}

#[test]
fn tx_condvar_with_pipe_io() {
    // Producer pushes bytes into a pipe and signals transactionally;
    // consumer waits on the condvar, then drains with a compensated read.
    let pipe = SimPipe::new(64);
    let xpipe = XPipe::new(pipe.clone());
    let ready = TVar::new(false);
    let cv = Arc::new(TxCondvar::new());
    let got = Arc::new(std::sync::Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        let (xp, r, c, g) = (xpipe.clone(), ready.clone(), cv.clone(), got.clone());
        s.spawn(move || {
            let bytes = atomic(|txn| {
                if !r.read(txn)? {
                    return c.wait(txn);
                }
                let data = xp.x_try_read(txn, 16)?.unwrap_or_default();
                guard(txn, !data.is_empty())?;
                Ok(data)
            });
            g.lock().unwrap().extend(bytes);
        });
        let (xp, r, c) = (xpipe.clone(), ready.clone(), cv.clone());
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            atomic(|txn| {
                xp.x_write(txn, b"payload")?;
                r.write(txn, true)?;
                c.notify_all_at_commit(txn);
                Ok(())
            });
        });
    });
    assert_eq!(&*got.lock().unwrap(), b"payload");
}

#[test]
fn hybrid_htm_runs_the_recipes_workload() {
    // The HTM model (the ladder's hardware rung) executes a Recipe
    // 2-shaped fix: small transactions in hardware, a large scan falling
    // back to software.
    let cells: Vec<TVar<u64>> = (0..128).map(|_| TVar::new(1)).collect();
    let hybrid = Txn::build().capacity(32, 32).escalation(EscalationPolicy::default());

    let (_, small) = hybrid.try_run(|txn| cells[0].modify(txn, |v| v + 1)).unwrap();
    assert_eq!(small.committed_rung, EscalationRung::Hardware);

    let (sum, large) = hybrid
        .try_run(|txn| {
            let mut s = 0;
            for c in &cells {
                s += c.read(txn)?;
            }
            Ok(s)
        })
        .unwrap();
    assert_eq!(sum, 127 + 2);
    assert_eq!(large.committed_rung, EscalationRung::Optimistic);
}

#[test]
fn corpus_tables_render_through_the_facade() {
    let bugs = txfix::corpus::all_bugs();
    let t1 = txfix::recipes::table1(&bugs).to_string();
    assert!(t1.contains("60"));
    assert!(t1.contains("43"));
    let s = txfix::recipes::CorpusSummary::compute(&bugs);
    assert_eq!(s.fixable(), 43);
}

#[test]
fn a_case_study_scenario_runs_through_the_facade() {
    use txfix::corpus::{scenario_by_key, Outcome, Variant};
    let s = scenario_by_key(txfix::corpus::keys::APACHE_II).expect("apache_ii registered");
    assert!(s.run(Variant::Buggy).is_bug());
    assert_eq!(s.run(Variant::TmFix), Outcome::Correct);
}
