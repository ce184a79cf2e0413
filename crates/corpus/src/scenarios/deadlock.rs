//! The 7 implemented deadlock reproductions.

use super::{two_threads, Outcome, Variant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use txfix_apps::apache::{run_apache1, Apache1Config, Apache1Variant};
use txfix_apps::spidermonkey::{
    run_script_workload, ObjectStore, OwnershipMode, OwnershipStore, ScriptParams, StmStore,
};
use txfix_core::{preemptible, PreemptOptions};
use txfix_stm::{atomic, TVar};
use txfix_txlock::TxMutex;

/// Mozilla-I: SpiderMonkey title-locking deadlock (paper §5.4.1).
pub(super) fn mozilla_i(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            // Forced interleaving of Figure 2: each thread owns one
            // object, then both simultaneously move a value into the
            // other's object — claiming its scope while holding
            // setSlotLock, whose other claimant is blocked behind it.
            let store = Arc::new(
                OwnershipStore::new(OwnershipMode::Buggy, 2, 1)
                    .with_claim_timeout(Duration::from_millis(40)),
            );
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                for t in 0..2usize {
                    let store = store.clone();
                    let barrier = &barrier;
                    s.spawn(move || {
                        store.set_slot(t, t, 0, t as i64 + 1);
                        barrier.wait();
                        store.move_slot(t, t, 1 - t, 0);
                    });
                }
            });
            if store.deadlock_timeouts() > 0 {
                Outcome::BugObserved(format!(
                    "{} ownership claims deadlocked behind setSlotLock",
                    store.deadlock_timeouts()
                ))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            // Developers' fix: drop ownership before blocking. Same
            // contention, plus a longer free-running phase.
            let store = Arc::new(
                OwnershipStore::new(OwnershipMode::DevFix, 2, 1)
                    .with_claim_timeout(Duration::from_millis(400)),
            );
            std::thread::scope(|s| {
                for t in 0..2usize {
                    let store = store.clone();
                    s.spawn(move || {
                        for _ in 0..50 {
                            store.set_slot(t, t, 0, t as i64 + 1);
                            store.move_slot(t, t, 1 - t, 0);
                        }
                        store.quiesce(t);
                    });
                }
            });
            if store.deadlock_timeouts() == 0 {
                Outcome::Correct
            } else {
                Outcome::BugObserved(format!(
                    "{} claims still deadlocked under the developer fix",
                    store.deadlock_timeouts()
                ))
            }
        }
        Variant::TmFix => {
            // Recipe 1: the ownership protocol is deleted; the same
            // interpreter workload runs on atomic regions.
            let params = ScriptParams {
                threads: 2,
                objects_per_thread: 2,
                slots: 2,
                shared_objects: 2,
                iterations: 2_000,
                cross_object_period: 8,
                compute_ns: 0,
            };
            let store = StmStore::new(params.total_objects(), params.slots);
            let r = run_script_workload(&store, &params);
            if r.abandoned == 0 {
                Outcome::Correct
            } else {
                Outcome::BugObserved(format!("{} moves abandoned", r.abandoned))
            }
        }
    }
}

/// Mozilla#54743: cache lock vs. atom-table lock AB-BA inversion.
pub(super) fn dl_cache_atomtable(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let cache = Arc::new(TxMutex::new("m54743.cache", 0u64));
            let atoms = Arc::new(TxMutex::new("m54743.atomtable", 0u64));
            let hit = AtomicU64::new(0);
            two_threads(|t, barrier| {
                let (first, second) = if t == 0 { (&cache, &atoms) } else { (&atoms, &cache) };
                let g1 = first.lock().expect("first lock is cycle-free");
                barrier.wait();
                match second.lock() {
                    Ok(_g2) => {}
                    Err(_) => {
                        hit.fetch_add(1, Ordering::SeqCst);
                    }
                }
                drop(g1);
            });
            if hit.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved("AB-BA cycle on cache/atom-table locks".into())
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            // Developers gave up acquiring the second lock on one path
            // (release-and-retry), preventing the cycle.
            let cache = Arc::new(TxMutex::new("m54743d.cache", 0u64));
            let atoms = Arc::new(TxMutex::new("m54743d.atomtable", 0u64));
            two_threads(|t, barrier| {
                if t == 0 {
                    let mut g1 = cache.lock().expect("no cycle");
                    barrier.wait();
                    let mut g2 = atoms.lock().expect("no cycle");
                    *g1 += 1;
                    *g2 += 1;
                } else {
                    // Fixed path: acquire in the same (cache-first)
                    // order even though the atom table is the target.
                    barrier.wait();
                    let mut g1 = cache.lock().expect("no cycle");
                    let mut g2 = atoms.lock().expect("no cycle");
                    *g2 += 1;
                    *g1 += 1;
                }
            });
            Outcome::Correct
        }
        Variant::TmFix => {
            let cache = TVar::new(0u64);
            let atoms = TVar::new(0u64);
            two_threads(|t, barrier| {
                barrier.wait();
                for _ in 0..200 {
                    // Both orders are safe inside atomic regions.
                    atomic(|txn| {
                        if t == 0 {
                            cache.modify(txn, |v| v + 1)?;
                            atoms.modify(txn, |v| v + 1)
                        } else {
                            atoms.modify(txn, |v| v + 1)?;
                            cache.modify(txn, |v| v + 1)
                        }
                    });
                }
            });
            if cache.load() == 400 && atoms.load() == 400 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("lost updates after lock replacement".into())
            }
        }
    }
}

/// Mozilla#60303: three locks in a rotating acquisition order.
pub(super) fn dl_three_lock_cycle(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let locks: Vec<Arc<TxMutex<u32>>> = (0..3)
                .map(|i| {
                    let name: &'static str = Box::leak(format!("m60303.l{i}").into_boxed_str());
                    Arc::new(TxMutex::new(name, 0))
                })
                .collect();
            let barrier = Barrier::new(3);
            let hit = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..3usize {
                    let locks = &locks;
                    let barrier = &barrier;
                    let hit = &hit;
                    s.spawn(move || {
                        let g1 = locks[t].lock().expect("first acquisition");
                        barrier.wait();
                        if locks[(t + 1) % 3].lock().is_err() {
                            hit.fetch_add(1, Ordering::SeqCst);
                        }
                        drop(g1);
                    });
                }
            });
            if hit.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved("three-lock rotating cycle detected".into())
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            // Impose a global order: always lowest index first.
            let locks: Vec<Arc<TxMutex<u32>>> = (0..3)
                .map(|i| {
                    let name: &'static str = Box::leak(format!("m60303d.l{i}").into_boxed_str());
                    Arc::new(TxMutex::new(name, 0))
                })
                .collect();
            let barrier = Barrier::new(3);
            std::thread::scope(|s| {
                for t in 0..3usize {
                    let locks = &locks;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let (a, b) = (t.min((t + 1) % 3), t.max((t + 1) % 3));
                        let mut ga = locks[a].lock().expect("ordered");
                        let mut gb = locks[b].lock().expect("ordered");
                        *ga += 1;
                        *gb += 1;
                    });
                }
            });
            Outcome::Correct
        }
        Variant::TmFix => {
            let cells: Vec<TVar<u32>> = (0..3).map(|_| TVar::new(0)).collect();
            let barrier = Barrier::new(3);
            std::thread::scope(|s| {
                for t in 0..3usize {
                    let cells = &cells;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        for _ in 0..100 {
                            atomic(|txn| {
                                cells[t].modify(txn, |v| v + 1)?;
                                cells[(t + 1) % 3].modify(txn, |v| v + 1)
                            });
                        }
                    });
                }
            });
            let total: u32 = cells.iter().map(|c| c.load()).sum();
            if total == 600 {
                Outcome::Correct
            } else {
                Outcome::BugObserved(format!("expected 600 increments, saw {total}"))
            }
        }
    }
}

/// Mozilla#123930: developers traded the deadlock for a data race.
pub(super) fn dl_intentional_race(variant: Variant) -> Outcome {
    const ROUNDS: u64 = 200;
    match variant {
        Variant::Buggy => {
            let state = Arc::new(TxMutex::new("m123930.state", 0u64));
            let observer = Arc::new(TxMutex::new("m123930.observer", 0u64));
            let hit = AtomicU64::new(0);
            two_threads(|t, barrier| {
                let (first, second) =
                    if t == 0 { (&state, &observer) } else { (&observer, &state) };
                let g = first.lock().expect("first acquisition");
                barrier.wait();
                if second.lock().is_err() {
                    hit.fetch_add(1, Ordering::SeqCst);
                }
                drop(g);
            });
            if hit.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved("state/observer lock cycle detected".into())
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            // The shipped fix: the observer path stops taking the state
            // lock and reads the counter unsynchronized. No deadlock —
            // but the update below is a read-modify-write race (the new
            // bug the paper calls out). This scenario only checks the
            // deadlock property, as the developers' own tests did.
            let state = Arc::new(AtomicU64::new(0));
            let observer = Arc::new(TxMutex::new("m123930d.observer", 0u64));
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..ROUNDS {
                    let v = state.load(Ordering::Relaxed);
                    let mut g = observer.lock().expect("single lock");
                    *g += 1;
                    state.store(v + 1, Ordering::Relaxed); // the data race
                }
            });
            Outcome::Correct
        }
        Variant::TmFix => {
            let state = TVar::new(0u64);
            let observer = TVar::new(0u64);
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..ROUNDS {
                    atomic(|txn| {
                        state.modify(txn, |v| v + 1)?;
                        observer.modify(txn, |v| v + 1)
                    });
                }
            });
            if state.load() == 2 * ROUNDS && observer.load() == 2 * ROUNDS {
                Outcome::Correct
            } else {
                Outcome::BugObserved("atomic replacement lost updates".into())
            }
        }
    }
}

/// Apache-I: listener/worker lock-and-wait deadlock (paper §5.4.2).
pub(super) fn apache_i(variant: Variant) -> Outcome {
    let v = match variant {
        Variant::Buggy => Apache1Variant::Buggy,
        Variant::DevFix => Apache1Variant::DevFix,
        Variant::TmFix => Apache1Variant::TmFix,
    };
    let cfg = Apache1Config { variant: v, workers: 3, connections: 120, ..Default::default() };
    let out = run_apache1(&cfg);
    if out.deadlocked {
        Outcome::BugObserved(format!(
            "lock/wait deadlock after {} of {} connections",
            out.completed, cfg.connections
        ))
    } else if out.completed == cfg.connections {
        Outcome::Correct
    } else {
        Outcome::BugObserved(format!(
            "only {} of {} connections completed",
            out.completed, cfg.connections
        ))
    }
}

/// Apache: lock-order inversion fixable by a local swap (dev-preferred).
pub(super) fn dl_local_lock_order(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let a = Arc::new(TxMutex::new("a11600.mutex_a", 0u64));
            let b = Arc::new(TxMutex::new("a11600.mutex_b", 0u64));
            let hit = AtomicU64::new(0);
            two_threads(|t, barrier| {
                let (first, second) = if t == 0 { (&a, &b) } else { (&b, &a) };
                let g = first.lock().expect("first acquisition");
                barrier.wait();
                if second.lock().is_err() {
                    hit.fetch_add(1, Ordering::SeqCst);
                }
                drop(g);
            });
            if hit.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved("local AB-BA cycle detected".into())
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let a = Arc::new(TxMutex::new("a11600d.mutex_a", 0u64));
            let b = Arc::new(TxMutex::new("a11600d.mutex_b", 0u64));
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..100 {
                    // One-line fix: same order on both paths.
                    let mut ga = a.lock().expect("ordered");
                    let mut gb = b.lock().expect("ordered");
                    *ga += 1;
                    *gb += 1;
                }
            });
            if *a.lock().unwrap() == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("updates lost under ordered locking".into())
            }
        }
        Variant::TmFix => {
            let a = TVar::new(0u64);
            let b = TVar::new(0u64);
            two_threads(|t, barrier| {
                barrier.wait();
                for _ in 0..100 {
                    atomic(|txn| {
                        if t == 0 {
                            a.modify(txn, |v| v + 1)?;
                            b.modify(txn, |v| v + 1)
                        } else {
                            b.modify(txn, |v| v + 1)?;
                            a.modify(txn, |v| v + 1)
                        }
                    });
                }
            });
            if a.load() == 200 && b.load() == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("atomic replacement lost updates".into())
            }
        }
    }
}

/// MySQL: storage-engine table-pair inversion, fixed with Recipe 3.
pub(super) fn dl_mysql_table_pair(variant: Variant) -> Outcome {
    let t1 = Arc::new(TxMutex::new("my3155.table1", Vec::<u64>::new()));
    let t2 = Arc::new(TxMutex::new("my3155.table2", Vec::<u64>::new()));
    match variant {
        Variant::Buggy => {
            let hit = AtomicU64::new(0);
            two_threads(|t, barrier| {
                let (first, second) = if t == 0 { (&t1, &t2) } else { (&t2, &t1) };
                let mut g = first.lock().expect("first acquisition");
                g.push(t as u64);
                barrier.wait();
                if second.lock().is_err() {
                    hit.fetch_add(1, Ordering::SeqCst);
                }
                drop(g);
            });
            if hit.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved("table-pair lock cycle detected".into())
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            two_threads(|t, barrier| {
                barrier.wait();
                for i in 0..50u64 {
                    // Canonical index order on both paths.
                    let mut g1 = t1.lock().expect("ordered");
                    let mut g2 = t2.lock().expect("ordered");
                    g1.push(t as u64 * 1000 + i);
                    g2.push(t as u64 * 1000 + i);
                }
            });
            let n = t1.lock().unwrap().len();
            if n == 100 {
                Outcome::Correct
            } else {
                Outcome::BugObserved(format!("expected 100 rows, saw {n}"))
            }
        }
        Variant::TmFix => {
            // Recipe 3: both query paths keep their natural lock order
            // but acquire revocably; cycles preempt one side.
            two_threads(|t, barrier| {
                barrier.wait();
                for i in 0..50u64 {
                    preemptible(&PreemptOptions::default(), |txn| {
                        let (first, second) = if t == 0 { (&t1, &t2) } else { (&t2, &t1) };
                        first.lock_tx(txn)?;
                        second.lock_tx(txn)?;
                        first.with_held(|rows| rows.push(t as u64 * 1000 + i));
                        second.with_held(|rows| rows.push(t as u64 * 1000 + i));
                        Ok(())
                    })
                    .expect("preemptible join cannot fail terminally");
                }
            });
            let n1 = t1.lock().unwrap().len();
            let n2 = t2.lock().unwrap().len();
            if n1 == 100 && n2 == 100 {
                Outcome::Correct
            } else {
                Outcome::BugObserved(format!("row counts {n1}/{n2}, expected 100/100"))
            }
        }
    }
}
