//! Apache-I: the listener/worker timeout-queue deadlock (paper §5.4.2,
//! Figure 3).
//!
//! The listener pops timed-out connections from a list protected by the
//! *timeout mutex* and hands each to an idle worker. To keep the
//! pop-and-handoff atomic, the buggy listener **holds the timeout mutex
//! while waiting** for a worker to become idle; a worker finishing a
//! request must acquire that same mutex (to update connection accounting)
//! *before* announcing itself idle — a lock/wait cycle.
//!
//! - Developers' fix: release the timeout mutex before waiting, with
//!   compensation code re-validating state after re-acquisition (took
//!   three failed attempts upstream).
//! - TM fix (Recipe 3): the listener acquires the timeout mutex
//!   *revocably* inside a transaction and replaces the condition wait with
//!   a blocking `retry`: finding no idle worker aborts the transaction —
//!   releasing the mutex — and re-executes when a worker registers.

use crossbeam::channel;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txfix_core::preemptible;
use txfix_stm::TVar;
use txfix_tmsync::guard;
use txfix_txlock::{LockCondvar, TxMutex, WaitOutcome};

/// Which implementation of the listener/worker protocol runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Apache1Variant {
    /// As shipped: wait while holding the timeout mutex (deadlocks).
    Buggy,
    /// Release the mutex before waiting + compensation.
    DevFix,
    /// Recipe 3: revocable mutex + retry.
    TmFix,
}

/// One simulated connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conn {
    /// Connection id.
    pub id: u32,
}

/// Workload/server parameters.
#[derive(Clone, Copy, Debug)]
pub struct Apache1Config {
    /// Protocol variant.
    pub variant: Apache1Variant,
    /// Worker threads.
    pub workers: usize,
    /// Connections to dispatch.
    pub connections: u32,
    /// Simulated per-request processing cost (busy-wait).
    pub process_cost: Duration,
}

/// How long the buggy listener waits before declaring deadlock.
const DEADLOCK_TIMEOUT: Duration = Duration::from_millis(150);

impl Default for Apache1Config {
    fn default() -> Self {
        Apache1Config {
            variant: Apache1Variant::DevFix,
            workers: 4,
            connections: 200,
            process_cost: Duration::from_micros(30),
        }
    }
}

/// Result of driving the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Apache1Outcome {
    /// Connections fully processed by workers.
    pub completed: u32,
    /// Whether the run hit the lock/wait deadlock (buggy variant only).
    pub deadlocked: bool,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

struct Shared {
    /// The timeout mutex and the connection accounting it protects
    /// (number of connections whose timeout bookkeeping was updated).
    timeout: TxMutex<u64>,
    /// Timed-out connections awaiting dispatch (listener-owned queue).
    queue: parking_lot::Mutex<VecDeque<Conn>>,
    /// Idle workers — lock+condvar flavor (buggy / dev fix).
    idle: TxMutex<usize>,
    idle_cv: LockCondvar,
    /// Idle workers — transactional flavor (TM fix).
    idle_tv: TVar<usize>,
}

fn busy_wait(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Drive a listener plus `cfg.workers` workers until all connections are
/// processed or (buggy variant) deadlock is detected.
pub fn run_apache1(cfg: &Apache1Config) -> Apache1Outcome {
    let shared = Arc::new(Shared {
        timeout: TxMutex::new("apache1.timeout_mutex", 0),
        queue: parking_lot::Mutex::new((0..cfg.connections).map(|id| Conn { id }).collect()),
        idle: TxMutex::new("apache1.idle_workers", cfg.workers),
        idle_cv: LockCondvar::named("apache1.idle_cv"),
        idle_tv: TVar::new(cfg.workers),
    });
    let (tx, rx) = channel::unbounded::<Conn>();
    let (done_tx, done_rx) = channel::unbounded::<u32>();
    let start = Instant::now();
    let mut deadlocked = false;

    std::thread::scope(|s| {
        // Workers.
        for _ in 0..cfg.workers {
            let shared = shared.clone();
            let rx = rx.clone();
            let done_tx = done_tx.clone();
            let cfg = *cfg;
            s.spawn(move || {
                while let Ok(conn) = rx.recv() {
                    busy_wait(cfg.process_cost);
                    // Finish the request: update connection accounting
                    // under the timeout mutex, THEN announce availability.
                    // This ordering is what completes the deadlock cycle.
                    match cfg.variant {
                        Apache1Variant::Buggy | Apache1Variant::DevFix => {
                            let mut tg = shared.timeout.lock().expect("timeout mutex cycle");
                            *tg += 1;
                            drop(tg);
                            let mut ig = shared.idle.lock().expect("idle mutex cycle");
                            *ig += 1;
                            drop(ig);
                            shared.idle_cv.notify_all();
                        }
                        Apache1Variant::TmFix => {
                            // Workers stay lock-based (Recipe 3 is
                            // asymmetric): plain mutex, then bump the
                            // transactional idle count (serialized by the
                            // mutex, visible to the listener's retry).
                            let mut tg = shared.timeout.lock().expect("timeout mutex cycle");
                            *tg += 1;
                            shared.idle_tv.store(shared.idle_tv.load() + 1);
                            drop(tg);
                        }
                    }
                    let _ = done_tx.send(conn.id);
                }
            });
        }
        drop(done_tx);

        // Listener.
        let mut dispatched = 0u32;
        'outer: while dispatched < cfg.connections {
            match cfg.variant {
                Apache1Variant::Buggy => {
                    // Hold the timeout mutex across the wait (the bug).
                    let tg = shared.timeout.lock().expect("timeout mutex cycle");
                    let conn = shared.queue.lock().pop_front().expect("queue underflow");
                    let mut ig = shared.idle.lock().expect("idle mutex cycle");
                    let wait_start = Instant::now();
                    while *ig == 0 {
                        let (g2, outcome) = shared
                            .idle_cv
                            .wait_timeout(ig, Duration::from_millis(20))
                            .expect("idle cv reacquire");
                        ig = g2;
                        if *ig == 0
                            && outcome == WaitOutcome::TimedOut
                            && wait_start.elapsed() >= DEADLOCK_TIMEOUT
                        {
                            // Workers are stuck behind the timeout mutex we
                            // hold: the circular wait is complete.
                            deadlocked = true;
                            shared.queue.lock().push_front(conn);
                            drop(ig);
                            drop(tg);
                            break 'outer;
                        }
                    }
                    *ig -= 1;
                    drop(ig);
                    tx.send(conn).expect("workers alive");
                    drop(tg);
                    dispatched += 1;
                }
                Apache1Variant::DevFix => {
                    // Fix: pop under the mutex, then RELEASE it before
                    // waiting; compensate by re-acquiring afterwards to
                    // redo the accounting atomicity the unlock broke.
                    let tg = shared.timeout.lock().expect("timeout mutex cycle");
                    let conn = shared.queue.lock().pop_front().expect("queue underflow");
                    drop(tg);

                    let mut ig = shared.idle.lock().expect("idle mutex cycle");
                    while *ig == 0 {
                        let (g2, _) = shared
                            .idle_cv
                            .wait_timeout(ig, Duration::from_millis(20))
                            .expect("idle cv reacquire");
                        ig = g2;
                    }
                    *ig -= 1;
                    drop(ig);

                    // Compensation: re-validate under the mutex before the
                    // handoff (upstream this took three attempts to get
                    // right).
                    let tg = shared.timeout.lock().expect("timeout mutex cycle");
                    tx.send(conn).expect("workers alive");
                    drop(tg);
                    dispatched += 1;
                }
                Apache1Variant::TmFix => {
                    // Recipe 3: revocable mutex + retry instead of the
                    // condition wait. Finding no idle worker aborts the
                    // transaction (releasing the mutex!) and re-executes
                    // when `idle_tv` changes.
                    let conn = preemptible(|txn| {
                        shared.timeout.lock_tx(txn)?;
                        let idle = shared.idle_tv.read(txn)?;
                        guard(txn, idle > 0)?;
                        shared.idle_tv.write(txn, idle - 1)?;
                        // All abort points passed; now the non-isolated pop.
                        Ok(shared.queue.lock().pop_front().expect("queue underflow"))
                    })
                    .expect("preemptible listener cannot fail terminally");
                    tx.send(conn).expect("workers alive");
                    dispatched += 1;
                }
            }
        }
        drop(tx); // workers drain and exit
        let mut completed = 0;
        while done_rx.recv().is_ok() {
            completed += 1;
        }
        let elapsed = start.elapsed();
        Apache1Outcome { completed, deadlocked, elapsed }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buggy_listener_deadlocks() {
        let out = run_apache1(&Apache1Config {
            variant: Apache1Variant::Buggy,
            workers: 3,
            connections: 100,
            ..Default::default()
        });
        assert!(out.deadlocked, "expected the lock/wait deadlock");
        assert!(out.completed < 100);
    }

    #[test]
    fn dev_fix_completes_all_connections() {
        let out = run_apache1(&Apache1Config {
            variant: Apache1Variant::DevFix,
            workers: 3,
            connections: 150,
            ..Default::default()
        });
        assert!(!out.deadlocked);
        assert_eq!(out.completed, 150);
    }

    #[test]
    fn tm_fix_completes_all_connections() {
        let out = run_apache1(&Apache1Config {
            variant: Apache1Variant::TmFix,
            workers: 3,
            connections: 150,
            ..Default::default()
        });
        assert!(!out.deadlocked);
        assert_eq!(out.completed, 150);
    }

    #[test]
    fn tm_fix_survives_single_worker_saturation() {
        // One worker maximizes listener blocking: every dispatch must wait
        // for the previous request to finish.
        let out = run_apache1(&Apache1Config {
            variant: Apache1Variant::TmFix,
            workers: 1,
            connections: 60,
            ..Default::default()
        });
        assert_eq!(out.completed, 60);
    }
}
