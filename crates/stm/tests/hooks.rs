//! The arming guard: nesting on one thread, exclusion across threads,
//! and what a panic inside an armed scope leaves behind. Its own test
//! binary, so the bits it arms touch no other test's process.

use std::sync::mpsc;
use std::time::Duration;
use txfix_stm::hooks::{arm, armed, lockdep_epoch, CHAOS, CRASH, LOCKDEP, SCHED, TRACE};
use txfix_stm::sched::{run_workers, Pick, StopReason};

#[test]
fn arming_nests_on_one_thread_and_each_guard_clears_its_own_bits() {
    let outer = arm(TRACE);
    let before = lockdep_epoch();
    {
        let _inner = arm(CHAOS | LOCKDEP);
        let _again = arm(TRACE | LOCKDEP); // already set: clears nothing on drop
        assert!(armed(TRACE) && armed(CHAOS) && armed(LOCKDEP));
        assert_eq!(lockdep_epoch(), before + 1, "only the arming that set LOCKDEP counts");
    }
    assert!(armed(TRACE), "the inner guards leave the outer bit set");
    assert!(!armed(CHAOS) && !armed(LOCKDEP), "the inner guard clears the bits it set");
    drop(outer);
}

#[test]
fn another_thread_waits_until_the_guard_drops() {
    let guard = arm(CRASH);
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _g = arm(0);
        tx.send(armed(CRASH)).unwrap();
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a second thread armed while the first guard was alive"
    );
    drop(guard);
    assert!(!rx.recv().unwrap(), "the waiter sees the bit cleared");
    waiter.join().unwrap();
}

#[test]
fn a_panic_in_an_armed_scope_clears_its_bits_and_the_next_arm_proceeds() {
    let outer = arm(SCHED);
    let caught = std::panic::catch_unwind(|| {
        let _inner = arm(LOCKDEP);
        panic!("inside the armed scope");
    });
    assert!(caught.is_err());
    assert!(!armed(LOCKDEP), "the unwound scope's bit is cleared");
    assert!(armed(SCHED), "the enclosing scope's bit is not");
    drop(outer);
    let other = std::thread::spawn(|| {
        let _g = arm(LOCKDEP);
        armed(LOCKDEP)
    });
    assert!(other.join().unwrap(), "the next arm proceeds");
}

#[test]
fn arming_on_a_scheduled_worker_panics_instead_of_hanging() {
    let workers: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| drop(arm(0)))];
    let (results, log) = run_workers(workers, 100, Box::new(|_| Pick::Choose(0)));
    assert!(results[0].is_none());
    assert!(
        matches!(&log.stop, Some(StopReason::Panic(m)) if m.contains("worker thread")),
        "{:?}",
        log.stop
    );
}
