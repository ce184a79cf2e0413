//! Integration tests for the lock runtime: multi-party cycles, mixed
//! transactional/plain participants, and stress.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use txfix::recipes::{preemptible, preemptible_report};
use txfix::stm::atomic;
use txfix::txlock::TxMutex;

fn named(i: usize, tag: &str) -> Arc<TxMutex<u64>> {
    let name: &'static str = Box::leak(format!("t.{tag}.{i}").into_boxed_str());
    Arc::new(TxMutex::new(name, 0))
}

#[test]
fn three_party_cycle_is_detected() {
    let locks: Vec<_> = (0..3).map(|i| named(i, "threeparty")).collect();
    let barrier = Barrier::new(3);
    let detections = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..3usize {
            let locks = &locks;
            let barrier = &barrier;
            let detections = &detections;
            s.spawn(move || {
                let g = locks[t].lock().expect("first lock");
                barrier.wait();
                if locks[(t + 1) % 3].lock().is_err() {
                    detections.fetch_add(1, Ordering::SeqCst);
                }
                drop(g);
            });
        }
    });
    assert!(detections.load(Ordering::SeqCst) >= 1, "three-party cycle missed");
    for l in &locks {
        assert!(!l.is_locked());
    }
}

#[test]
fn four_party_cycle_with_one_transactional_member_resolves() {
    let locks: Vec<_> = (0..4).map(|i| named(i, "fourparty")).collect();
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        // Threads 0..3 use plain locks; thread 3 is transactional and gets
        // preempted, letting everyone finish.
        for t in 0..3usize {
            let locks = &locks;
            let barrier = &barrier;
            s.spawn(move || {
                let mut g = locks[t].lock().expect("plain first");
                barrier.wait();
                // The plain members may detect the cycle before the victim
                // aborts; on detection they drop and re-acquire in a safe
                // order rather than hanging.
                match locks[(t + 1) % 4].lock() {
                    Ok(mut g2) => {
                        *g += 1;
                        *g2 += 1;
                    }
                    Err(_) => {
                        drop(g);
                        let (a, b) = (t.min((t + 1) % 4), t.max((t + 1) % 4));
                        let mut ga = locks[a].lock().expect("ordered");
                        let mut gb = locks[b].lock().expect("ordered");
                        *ga += 1;
                        *gb += 1;
                    }
                }
            });
        }
        let locks2 = &locks;
        let barrier = &barrier;
        s.spawn(move || {
            let mut synced = false;
            preemptible(|txn| {
                locks2[3].lock_tx(txn)?;
                if !synced {
                    synced = true;
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                locks2[0].lock_tx(txn)?;
                locks2[3].with_held(|v| *v += 1);
                locks2[0].with_held(|v| *v += 1);
                Ok(())
            })
            .expect("preemptible member");
        });
    });
    for l in &locks {
        assert!(!l.is_locked(), "lock {} leaked", l.name());
    }
}

#[test]
fn two_transactions_colliding_repeatedly_both_finish() {
    let a = named(0, "duel");
    let b = named(1, "duel");
    const ROUNDS: u64 = 150;
    // Each round's first attempts meet at the barrier holding one lock
    // each, so every round closes an AB-BA cycle that only a preemption
    // breaks; the second barrier keeps a round's retry out of the next.
    let barrier = Barrier::new(2);
    let preemptions: u64 = std::thread::scope(|s| {
        let duelists: Vec<_> = (0..2usize)
            .map(|t| {
                let (a, b, barrier) = (a.clone(), b.clone(), &barrier);
                s.spawn(move || {
                    let mut preemptions = 0;
                    for _ in 0..ROUNDS {
                        let mut collided = false;
                        let (_, report) = preemptible_report(|txn| {
                            let (x, y) = if t == 0 { (&a, &b) } else { (&b, &a) };
                            x.lock_tx(txn)?;
                            if !collided {
                                collided = true;
                                barrier.wait();
                            }
                            y.lock_tx(txn)?;
                            x.with_held(|v| *v += 1);
                            y.with_held(|v| *v += 1);
                            Ok(())
                        })
                        .expect("duel transaction");
                        preemptions += report.preemptions;
                        barrier.wait();
                    }
                    preemptions
                })
            })
            .collect();
        duelists.into_iter().map(|d| d.join().expect("duelist")).sum()
    });
    assert_eq!(*a.lock().unwrap(), 2 * ROUNDS);
    assert_eq!(*b.lock().unwrap(), 2 * ROUNDS);
    assert!(preemptions >= ROUNDS, "{preemptions} preemptions broke {ROUNDS} cycles");
}

#[test]
fn transactional_locks_interleave_with_plain_guards() {
    let m = named(0, "mixed");
    const PER: u64 = 200;
    std::thread::scope(|s| {
        let m1 = m.clone();
        s.spawn(move || {
            for _ in 0..PER {
                *m1.lock().expect("plain") += 1;
            }
        });
        let m2 = m.clone();
        s.spawn(move || {
            for _ in 0..PER {
                atomic(|txn| m2.with_tx(txn, |v| *v += 1));
            }
        });
    });
    assert_eq!(*m.lock().unwrap(), 2 * PER);
}

#[test]
fn aborted_transaction_never_leaks_locks_under_stress() {
    let locks: Vec<_> = (0..4).map(|i| named(i, "leakstress")).collect();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let locks = locks.clone();
            s.spawn(move || {
                for round in 0..100u64 {
                    let mut restarted = false;
                    preemptible(|txn| {
                        // Deliberately mixed orders to provoke cycles, plus
                        // a voluntary restart on the first run of every
                        // seventh call.
                        locks[t % 4].lock_tx(txn)?;
                        locks[(t + round as usize) % 4].lock_tx(txn)?;
                        if round % 7 == 0 && !restarted {
                            restarted = true;
                            return txn.restart();
                        }
                        Ok(())
                    })
                    .expect("a preemptible region commits");
                }
            });
        }
    });
    for l in &locks {
        assert!(!l.is_locked(), "lock {} leaked after stress", l.name());
    }
}
