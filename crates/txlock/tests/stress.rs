//! Hand-off stress for the CAS-owner `TxMutex`. Mutual exclusion shows as
//! an exact count under more threads than this host has cores; the park
//! protocol shows as a time bound on a ping-pong whose every hand-off
//! parks — a release that misses its parked waiter costs that waiter a
//! full 1 ms wait slice. CI runs this in `--release` too: the protocol is
//! orderings on two words, and an optimised build is where a too-weak one
//! would show.

use std::time::{Duration, Instant};
use txfix_stm::atomic;
use txfix_txlock::TxMutex;

const THREADS: u64 = 4;
const ROUNDS: u64 = 20_000;

#[test]
fn mixed_acquisitions_count_exactly() {
    let m = TxMutex::new("stress.counter", 0u64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = &m;
            s.spawn(move || {
                for i in 0..ROUNDS {
                    match (i + t) % 3 {
                        0 => *m.lock().expect("one lock cannot deadlock") += 1,
                        1 => atomic(|txn| m.lock_tx(txn).map(|()| m.with_held(|v| *v += 1))),
                        _ => loop {
                            if let Some(mut g) = m.try_lock() {
                                *g += 1;
                                break;
                            }
                            std::thread::yield_now();
                        },
                    }
                }
            });
        }
    });
    assert_eq!(m.into_inner(), THREADS * ROUNDS, "an increment was lost or doubled");
}

#[test]
fn parked_waiters_are_woken_by_the_release() {
    // Two threads take strict turns; the holder keeps the lock for longer
    // than an acquirer spins, so the other side is parked at every
    // release. With the wake-up, a hand-off costs the hold plus one futex
    // wake; without it, the 1 ms slice — `TURNS` ms in total.
    const TURNS: u64 = 2_000;
    const HOLD: Duration = Duration::from_micros(30);
    let bound = Duration::from_millis(TURNS / 2);
    let m = TxMutex::new("stress.pingpong", 0u64);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..2 {
            let m = &m;
            s.spawn(move || loop {
                let mut turn = m.lock().expect("one lock cannot deadlock");
                if *turn >= TURNS {
                    break;
                }
                if *turn % 2 == t {
                    *turn += 1;
                    let until = Instant::now() + HOLD;
                    while Instant::now() < until {
                        std::hint::spin_loop();
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    assert!(elapsed < bound, "{TURNS} parked hand-offs took {elapsed:?} (bound {bound:?})");
}
