//! Lost-wakeup stress for the one wait queue and the event count on it.
//!
//! Two OS threads hand a turn back and forth for many rounds. Each wait
//! has a generous slice, so a wait that runs it out can only be a wakeup
//! the protocol lost: any timeout fails the test. CI runs this file in
//! release, where the window between a waiter's re-check and its park is
//! tightest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use txfix_stm::sched::SyncOp;
use txfix_stm::{EventCount, WaitQueue};

const ROUNDS: u64 = 100_000;
const SLICE: Duration = Duration::from_secs(10);
const PARK: SyncOp = SyncOp::Park(7);

/// Play `ROUNDS` turns as `me` (0 or 1): wait for the turn, pass it on.
fn ping_pong(turn: &AtomicU64, me: u64, wait_for_turn: impl Fn(), pass: impl Fn()) {
    for _ in 0..ROUNDS {
        wait_for_turn();
        assert_eq!(turn.load(Ordering::SeqCst), me);
        turn.store(1 - me, Ordering::SeqCst);
        pass();
    }
}

#[test]
fn a_queue_handoff_loses_no_wakeup() {
    let turn = AtomicU64::new(0);
    let queue = WaitQueue::new();
    std::thread::scope(|s| {
        for me in 0..2 {
            let (turn, queue) = (&turn, &queue);
            s.spawn(move || {
                let wait = || {
                    while turn.load(Ordering::SeqCst) != me {
                        let mine = || turn.load(Ordering::SeqCst) != me;
                        assert!(queue.wait(PARK, mine, SLICE), "a queue wait timed out");
                    }
                };
                ping_pong(turn, me, wait, || queue.wake(7));
            });
        }
    });
}

#[test]
fn an_event_count_handoff_loses_no_wakeup() {
    let turn = AtomicU64::new(0);
    let events = EventCount::new(PARK);
    std::thread::scope(|s| {
        for me in 0..2 {
            let (turn, events) = (&turn, &events);
            s.spawn(move || {
                let wait = || loop {
                    // The epoch is sampled before the check (see EventCount).
                    let seen = events.epoch();
                    if turn.load(Ordering::SeqCst) == me {
                        break;
                    }
                    assert!(events.wait_past(seen, SLICE), "an event count wait timed out");
                };
                ping_pong(turn, me, wait, || events.notify());
            });
        }
    });
    assert_eq!(events.epoch(), 2 * ROUNDS);
}
