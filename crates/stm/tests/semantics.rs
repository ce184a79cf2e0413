//! Integration tests for the fundamental STM guarantees: atomicity,
//! isolation, and the control-flow extensions (retry, restart, cancel,
//! irrevocability, hooks, kills, capacity).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use txfix_stm::{
    atomic, atomic_relaxed, obs, CapacityKind, StmResult, TVar, TxResource, Txn, TxnError,
};

#[test]
fn transaction_result_is_returned() {
    let v = TVar::new(5u32);
    let doubled = atomic(|txn| {
        let x = v.read(txn)?;
        v.write(txn, x * 2)?;
        Ok(x * 2)
    });
    assert_eq!(doubled, 10);
    assert_eq!(v.load(), 10);
}

#[test]
fn writes_are_invisible_until_commit() {
    let v = TVar::new(0u32);
    let observed_mid_txn = Arc::new(AtomicU64::new(999));
    let inside = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let v2 = v.clone();
        let inside2 = inside.clone();
        let release2 = release.clone();
        s.spawn(move || {
            atomic(move |txn| {
                v2.write(txn, 42)?;
                inside2.store(true, Ordering::SeqCst);
                // Hold the transaction open until the observer has looked.
                while !release2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(())
            });
        });

        while !inside.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        observed_mid_txn.store(v.load() as u64, Ordering::SeqCst);
        release.store(true, Ordering::SeqCst);
    });

    assert_eq!(observed_mid_txn.load(Ordering::SeqCst), 0, "buffered write leaked");
    assert_eq!(v.load(), 42);
}

#[test]
fn concurrent_increments_do_not_lose_updates() {
    let counter = TVar::new(0u64);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 500;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    atomic(|txn| counter.modify(txn, |c| c + 1));
                }
            });
        }
    });
    assert_eq!(counter.load(), (THREADS * PER_THREAD) as u64);
}

#[test]
fn multi_var_invariant_is_never_violated() {
    // Classic bank transfer: total must be conserved in every snapshot.
    let a = TVar::new(1_000i64);
    let b = TVar::new(1_000i64);
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..4 {
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 0..400 {
                    let amt = ((i * 7 + t * 13) % 50) as i64;
                    atomic(|txn| {
                        let x = a.read(txn)?;
                        let y = b.read(txn)?;
                        a.write(txn, x - amt)?;
                        b.write(txn, y + amt)
                    });
                }
            });
        }
        let (a, b) = (a.clone(), b.clone());
        let stop2 = stop.clone();
        s.spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                let total = atomic(|txn| {
                    let x = a.read(txn)?;
                    let y = b.read(txn)?;
                    Ok(x + y)
                });
                assert_eq!(total, 2_000, "transfer atomicity violated");
            }
        });
        // Scope join order: flag the observer once writers are done.
        for _ in 0..4 {}
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(a.load() + b.load(), 2_000);
}

#[test]
fn read_own_writes() {
    let v = TVar::new(1u32);
    let seen = atomic(|txn| {
        v.write(txn, 7)?;
        v.read(txn)
    });
    assert_eq!(seen, 7);
}

#[test]
fn restart_reexecutes_the_body() {
    let v = TVar::new(0u32);
    let tries = Arc::new(AtomicU64::new(0));
    let tries2 = tries.clone();
    atomic(move |txn| {
        let n = tries2.fetch_add(1, Ordering::SeqCst);
        v.write(txn, n as u32)?;
        if n < 3 {
            return txn.restart();
        }
        Ok(())
    });
    assert_eq!(tries.load(Ordering::SeqCst), 4);
}

#[test]
fn cancel_discards_writes_and_reports_error() {
    let v = TVar::new(10u32);
    let r: Result<(), TxnError> = Txn::build()
        .try_run(|txn| {
            v.write(txn, 99)?;
            txn.cancel()
        })
        .map(|(v, _)| v);
    assert_eq!(r, Err(TxnError::Cancelled));
    assert_eq!(v.load(), 10, "cancelled transaction leaked a write");
}

#[test]
fn retry_blocks_until_a_read_var_changes() {
    let flag = TVar::new(false);
    let woke = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let flag2 = flag.clone();
        let woke2 = woke.clone();
        s.spawn(move || {
            atomic(|txn| {
                if !flag2.read(txn)? {
                    return txn.retry();
                }
                Ok(())
            });
            woke2.store(true, Ordering::SeqCst);
        });

        std::thread::sleep(Duration::from_millis(30));
        assert!(!woke.load(Ordering::SeqCst), "retry returned before the flag changed");
        flag.store(true);
        for _ in 0..2000 {
            if woke.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(woke.load(Ordering::SeqCst), "retry never woke up");
    });
}

#[test]
fn capacity_bound_is_reported() {
    let vars: Vec<TVar<u32>> = (0..8).map(TVar::new).collect();
    let r: Result<u32, TxnError> = Txn::build()
        .capacity(4, 4)
        .try_run(|txn| {
            let mut sum = 0;
            for v in &vars {
                sum += v.read(txn)?;
            }
            Ok(sum)
        })
        .map(|(v, _)| v);
    match r {
        Err(TxnError::Capacity { kind: CapacityKind::ReadSet, .. }) => {}
        other => panic!("expected read-set capacity error, got {other:?}"),
    }
}

#[test]
fn write_capacity_bound_is_reported() {
    let vars: Vec<TVar<u32>> = (0..8).map(TVar::new).collect();
    let r: Result<(), TxnError> = Txn::build()
        .capacity(64, 2)
        .try_run(|txn| {
            for v in &vars {
                v.write(txn, 1)?;
            }
            Ok(())
        })
        .map(|(v, _)| v);
    match r {
        Err(TxnError::Capacity { kind: CapacityKind::WriteSet, .. }) => {}
        other => panic!("expected write-set capacity error, got {other:?}"),
    }
}

#[test]
fn commit_hooks_run_once_in_order_only_on_commit() {
    let log = Arc::new(parking_lot::Mutex::new(Vec::<&'static str>::new()));
    let v = TVar::new(0u32);
    let first = Arc::new(AtomicBool::new(true));

    let log2 = log.clone();
    let first2 = first.clone();
    atomic(move |txn| {
        let log3 = log2.clone();
        let log4 = log2.clone();
        txn.on_commit(move || log3.lock().push("a"));
        txn.on_commit(move || log4.lock().push("b"));
        v.write(txn, 1)?;
        if first2.swap(false, Ordering::SeqCst) {
            // First attempt aborts: its hooks must NOT run.
            return txn.restart();
        }
        Ok(())
    });

    assert_eq!(*log.lock(), vec!["a", "b"]);
}

#[test]
fn abort_hooks_run_in_reverse_order_only_on_abort() {
    let log = Arc::new(parking_lot::Mutex::new(Vec::<&'static str>::new()));
    let first = Arc::new(AtomicBool::new(true));

    let log2 = log.clone();
    atomic(move |txn| {
        let l1 = log2.clone();
        let l2 = log2.clone();
        txn.on_abort(move || l1.lock().push("undo-1"));
        txn.on_abort(move || l2.lock().push("undo-2"));
        if first.swap(false, Ordering::SeqCst) {
            return txn.restart();
        }
        Ok(())
    });

    // Only the first (aborted) attempt contributes, in reverse order.
    assert_eq!(*log.lock(), vec!["undo-2", "undo-1"]);
}

type Log = Arc<parking_lot::Mutex<Vec<&'static str>>>;

/// A resource that logs its name whichever way it finishes.
struct Logged(Log, &'static str);

impl TxResource for Logged {
    fn commit(&self, _serial: u64) {
        self.0.lock().push(self.1);
    }
    fn abort(&self, _serial: u64) {
        self.0.lock().push(self.1);
    }
}

/// Closures and deferred resources finish in one order — registration
/// order on commit, its reverse on abort — and an enlisted resource (a
/// lock) finishes after all of them. `tmsync::condvar`'s and
/// `xcall::pipe`'s closures and `xcall::file`'s deferred resource rely on
/// that order.
#[test]
fn deferred_resources_finish_among_the_hooks_and_before_enlisted_ones() {
    let log = Log::default();
    let first = AtomicBool::new(true);
    atomic(|txn| {
        let hook = |txn: &mut Txn, name| {
            let (on_commit, on_abort) = (log.clone(), log.clone());
            txn.on_commit(move || on_commit.lock().push(name));
            txn.on_abort(move || on_abort.lock().push(name));
        };
        hook(txn, "A");
        txn.defer(Arc::new(Logged(log.clone(), "R")));
        hook(txn, "B");
        txn.enlist(Arc::new(Logged(log.clone(), "E")));
        if first.swap(false, Ordering::SeqCst) {
            return txn.restart();
        }
        Ok(())
    });
    // The aborted attempt, then the committed one.
    assert_eq!(*log.lock(), ["B", "R", "A", "E", "A", "R", "B", "E"]);
}

#[test]
fn relaxed_transactions_run_unsafe_ops_exactly_once() {
    let effect_count = Arc::new(AtomicU64::new(0));
    let v = TVar::new(0u32);
    let ec = effect_count.clone();
    let (_, report) = Txn::build()
        .relaxed()
        .try_run(move |txn| {
            let ec = ec.clone();
            txn.unsafe_op(move || {
                ec.fetch_add(1, Ordering::SeqCst);
            })?;
            v.write(txn, 1)
        })
        .unwrap();
    assert_eq!(effect_count.load(Ordering::SeqCst), 1);
    assert!(report.committed_irrevocably);
}

#[test]
#[should_panic(expected = "unsafe operation inside an atomic transaction")]
fn unsafe_op_panics_in_atomic_kind() {
    atomic(|txn| txn.unsafe_op(|| ()));
}

#[test]
fn irrevocable_commit_publishes_writes() {
    let v = TVar::new(0u32);
    atomic_relaxed(|txn| {
        txn.become_irrevocable()?;
        v.write(txn, 5)
    });
    assert_eq!(v.load(), 5);
}

#[test]
fn irrevocable_excludes_other_commits_until_done() {
    // While one transaction is irrevocable, another thread's committing
    // transaction must block (not fail) and then succeed.
    let v = TVar::new(0u32);
    let w = TVar::new(0u32);
    let in_irrevocable = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let other_committed = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        {
            let v = v.clone();
            let in_irr = in_irrevocable.clone();
            let release = release.clone();
            s.spawn(move || {
                atomic_relaxed(|txn| {
                    txn.become_irrevocable()?;
                    in_irr.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    v.write(txn, 1)
                });
            });
        }
        while !in_irrevocable.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        {
            let w = w.clone();
            let oc = other_committed.clone();
            s.spawn(move || {
                atomic(|txn| w.write(txn, 2));
                oc.store(true, Ordering::SeqCst);
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !other_committed.load(Ordering::SeqCst),
            "commit was not excluded by the irrevocable transaction"
        );
        release.store(true, Ordering::SeqCst);
    });
    assert_eq!(v.load(), 1);
    assert_eq!(w.load(), 2);
}

#[test]
fn kill_handle_aborts_and_transaction_recovers() {
    let v = TVar::new(0u64);
    let v2 = v.clone();
    let killed_once = Arc::new(AtomicBool::new(false));
    let ko = killed_once.clone();
    let (_, report) = Txn::build()
        .try_run(move |txn| {
            if !ko.swap(true, Ordering::SeqCst) {
                // Simulate an external deadlock detector killing us mid-flight.
                txn.kill_handle().kill();
            }
            let x = v2.read(txn)?;
            v2.write(txn, x + 1)
        })
        .unwrap();
    assert!(report.attempts >= 2, "kill did not force a re-execution");
    assert!(report.preemptions >= 1);
    assert_eq!(v.load(), 1);
}

#[test]
fn panic_in_body_runs_abort_hooks() {
    let undone = Arc::new(AtomicBool::new(false));
    let undone2 = undone.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        atomic(move |txn| -> StmResult<()> {
            let u = undone2.clone();
            txn.on_abort(move || u.store(true, Ordering::SeqCst));
            panic!("boom");
        })
    }));
    assert!(result.is_err());
    assert!(undone.load(Ordering::SeqCst), "abort hook skipped on panic");
}

#[test]
fn conflicting_transactions_serialize() {
    // Two transactions that read-modify-write the same pair in opposite
    // orders must still serialize (no deadlock, no lost update).
    let x = TVar::new(0u64);
    let y = TVar::new(0u64);
    std::thread::scope(|s| {
        let (x1, y1) = (x.clone(), y.clone());
        s.spawn(move || {
            for _ in 0..300 {
                atomic(|txn| {
                    let a = x1.read(txn)?;
                    let b = y1.read(txn)?;
                    x1.write(txn, a + 1)?;
                    y1.write(txn, b + 1)
                });
            }
        });
        let (x2, y2) = (x.clone(), y.clone());
        s.spawn(move || {
            for _ in 0..300 {
                atomic(|txn| {
                    let b = y2.read(txn)?;
                    let a = x2.read(txn)?;
                    y2.write(txn, b + 1)?;
                    x2.write(txn, a + 1)
                });
            }
        });
    });
    assert_eq!(x.load(), 600);
    assert_eq!(y.load(), 600);
}

#[test]
fn wait_on_commits_before_blocking() {
    use txfix_stm::{sched::SyncOp, EventCount};
    let v = TVar::new(0u32);
    let events = Arc::new(EventCount::new(SyncOp::Park(1)));
    let first = AtomicBool::new(true);
    std::thread::scope(|s| {
        // Notifies only once the pre-wait write is visible, so the waiter
        // wakes only if wait_on committed before blocking.
        s.spawn(|| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while v.load() != 1 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            events.notify();
        });
        let (_, report) = txfix_stm::Txn::build().run(|txn| {
            if first.swap(false, Ordering::SeqCst) {
                v.write(txn, 1)?;
                return txn.wait_on(events.clone());
            }
            Ok(())
        });
        assert_eq!(report.waits, 1);
    });
    assert_eq!(v.load(), 1, "wait_on discarded the pre-wait work");
}

#[test]
fn obs_records_every_commit_of_a_contended_site() {
    obs::enable();
    let site = obs::intern("semantics_commit_probe");
    let before = obs::snapshot();
    let v = TVar::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let v = v.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    Txn::build().site("semantics_commit_probe").run(|txn| v.modify(txn, |x| x + 1));
                }
            });
        }
    });
    let delta = obs::snapshot().delta(&before);
    assert_eq!(delta.site(site).expect("site registered").commits, 800);
}
