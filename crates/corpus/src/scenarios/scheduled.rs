//! The `scheduled` column: every scenario as a program for the
//! deterministic scheduler, and the one path that runs it.
//!
//! Each bug is a set of plain thread bodies whose only synchronization
//! goes through the instrumented primitives (`TracedCell`, `TxMutex`,
//! `LockCondvar`, ownership titles, transactions, serial sections), so
//! the explorer in `txfix-explore` can drive *every* interleaving of their
//! yield points, and [`Scenario::run`](super::Scenario::run) can replay
//! one of them. OS barriers and sleeps are forbidden here: a controlled
//! thread that blocks outside the scheduler would stall the whole run.
//!
//! Lock and wait cycles leave no invariant violation behind. A lock cycle
//! shows up as the wait-for graph refusing an acquisition; a lock/wait
//! cycle (`apache_i`) or a lost wakeup (`av_cv_partial`) as the stuck
//! schedule itself, which the scheduler reports as a deadlock stop.
//!
//! Every builder states its shared state once and each distinct thread
//! body once, through [`ScheduledRun::symmetric`] (both slots run the same
//! body), [`ScheduledRun::pair`] (two roles) or a plain `threads` vector
//! (the three-thread cycle). The traced names are the ones the row's
//! static summary uses, so `txfix analyze` and `txfix lint` speak of the
//! same locks and cells.

use super::{Outcome, Variant};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txfix_apps::apache::{
    buffered_log::make_record, validate_log, BuggyBufferedLog, LockedBufferedLog, LogWriter,
    TmBufferedLog,
};
use txfix_apps::mysql::{consistent_with_binlog, MiniDb, MysqlVariant};
use txfix_apps::spidermonkey::{ObjectStore, OwnershipMode, OwnershipStore, StmStore};
use txfix_core::{preemptible, wrap_unprotected_atomic, PreemptOptions};
use txfix_stm::sched::{self, Pick, Picker, RunLog, StopReason};
use txfix_stm::{atomic, trace::TracedCell, TVar};
use txfix_tmsync::{guard, SerialDomain, SerialMutex};
use txfix_txlock::{LockCondvar, TxMutex, TxMutexGuard};
use txfix_xcall::SimFs;

/// A scenario instance ready to run under the deterministic scheduler:
/// the thread bodies to interleave and a final invariant check.
pub struct ScheduledRun {
    /// One body per scheduler slot. Bodies synchronize only through
    /// instrumented primitives (no OS barriers/sleeps).
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Invariant check over the shared state, run after every thread
    /// finished (not run for schedules that deadlock or panic).
    pub check: Box<dyn FnOnce() -> Outcome + Send>,
}

impl ScheduledRun {
    /// Two slots with different roles over one shared `state`: slot 0
    /// runs `first`, slot 1 runs `second`, and `check` reads the state
    /// they left behind. The `Arc` sharing happens here, so a scenario
    /// names its state once.
    pub fn pair<S: Send + Sync + 'static>(
        state: S,
        first: impl FnOnce(&S) + Send + 'static,
        second: impl FnOnce(&S) + Send + 'static,
        check: impl FnOnce(&S) -> Outcome + Send + 'static,
    ) -> ScheduledRun {
        let state = Arc::new(state);
        let (s0, s1) = (state.clone(), state.clone());
        ScheduledRun {
            threads: vec![Box::new(move || first(&s0)), Box::new(move || second(&s1))],
            check: Box::new(move || check(&state)),
        }
    }

    /// Two slots running the same `body` over one shared `state`.
    pub fn symmetric<S: Send + Sync + 'static>(
        state: S,
        body: impl Fn(&S) + Clone + Send + 'static,
        check: impl FnOnce(&S) -> Outcome + Send + 'static,
    ) -> ScheduledRun {
        ScheduledRun::pair(state, body.clone(), body, check)
    }
}

/// What one executed schedule amounted to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunResult {
    /// Every thread finished and the invariant held.
    Pass,
    /// The bug manifested: a broken invariant, a deadlock (every live
    /// thread blocked), or a panic in scenario code. A replayed trace that
    /// diverged from the execution is reported here too.
    Bug(String),
    /// The picker abandoned the schedule as redundant (sleep sets).
    Pruned,
    /// The per-schedule step bound was exceeded — inconclusive.
    StepLimit,
}

/// One executed schedule: the scheduler's record plus the verdict.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The decision/event record (replayable via [`RunLog::trace`]).
    pub log: RunLog,
    /// The verdict.
    pub result: RunResult,
}

/// Default per-schedule step bound; corpus scenarios take well under a
/// hundred steps, so hitting this means a livelock.
pub const DEFAULT_MAX_STEPS: u64 = 20_000;

/// Run one schedule of `run` under `picker`: the one scheduled-run path
/// that `Scenario::run` and every explorer strategy share.
///
/// Runs are process-global: the run holds the scheduler's arming guard,
/// and a harness that drives several holds it across them
/// ([`sched::run_exclusively`]).
pub fn run_schedule(run: ScheduledRun, max_steps: u64, picker: Picker) -> ScheduleOutcome {
    let ScheduledRun { threads, check } = run;
    let (_, log) = sched::run_workers(threads, max_steps, picker);
    let result = match &log.stop {
        Some(StopReason::Deadlock(blocked)) => {
            RunResult::Bug(format!("deadlock: {}", blocked.join("; ")))
        }
        Some(StopReason::Panic(msg)) => RunResult::Bug(format!("panic: {msg}")),
        Some(StopReason::Diverged(msg)) => RunResult::Bug(msg.clone()),
        Some(StopReason::Pruned) => RunResult::Pruned,
        Some(StopReason::StepLimit) => RunResult::StepLimit,
        None => match check() {
            Outcome::Correct => RunResult::Pass,
            Outcome::BugObserved(msg) => RunResult::Bug(msg),
        },
    };
    // Turnstile integrity: the executed events must match the announced
    // decisions one-for-one. A divergence means an operation ran out of
    // turnstile order — the record no longer describes the execution, so
    // replay and minimization would both lie. It outranks every verdict
    // except an already-detected bug.
    let result = match (log.turnstile_breach(), result) {
        (Some(_), bug @ RunResult::Bug(_)) => bug,
        (Some(msg), _) => RunResult::Bug(msg),
        (None, result) => result,
    };
    ScheduleOutcome { log, result }
}

/// A picker that replays a recorded decision trace (candidate indices)
/// bit-for-bit. Past the end of the trace it takes the lowest slot, so the
/// empty trace is the lowest-slot schedule. An index outside the candidate
/// set stops the run with a message naming the depth: the execution has
/// left the recorded schedule, and running some other one instead would
/// hide that.
pub fn replay_picker(trace: Vec<usize>) -> Picker {
    let mut depth = 0usize;
    Box::new(move |cands| {
        let pick = match trace.get(depth) {
            Some(&i) if i >= cands.len() => Pick::Diverge(format!(
                "replay diverged at depth {depth}: the trace picks candidate {i} of {}",
                cands.len()
            )),
            Some(&i) => Pick::Choose(i),
            None => Pick::Choose(0),
        };
        depth += 1;
        pick
    })
}

/// A wait long enough that only the scheduler's deadlock detection can end
/// it (scheduled runs never OS-block on it; the bound is for accidental
/// uncontrolled use).
const LONG_WAIT: Duration = Duration::from_secs(600);

/// Sleep on `cv` until the monitor's count is nonzero.
fn wait_nonzero<'a>(cv: &LockCondvar, mut g: TxMutexGuard<'a, u64>) -> TxMutexGuard<'a, u64> {
    while *g == 0 {
        g = cv.wait_timeout(g, LONG_WAIT).expect("no lock cycle").0;
    }
    g
}

/// Bug if any lock acquisition was refused, with `what` as the message.
fn no_hits(hits: &AtomicU64, what: &str) -> Outcome {
    match hits.load(Ordering::Relaxed) {
        0 => Outcome::Correct,
        _ => Outcome::BugObserved(what.to_string()),
    }
}

/// `first` then `second`, nested; a refused acquisition is a hit.
fn nested<T>(hits: &AtomicU64, first: &TxMutex<T>, second: &TxMutex<T>) {
    match first.lock() {
        Ok(_held) => {
            if second.lock().is_err() {
                hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(_) => {
            hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

type LockPair = (AtomicU64, TxMutex<()>, TxMutex<()>);

/// Two locks named `a` and `b`: the buggy variant nests them in opposite
/// orders (the wait-for graph refuses one acquisition under the crossing
/// schedules, reported as `cycle`), a fixed one in one global order.
fn lock_pair(variant: Variant, (a, b): (&'static str, &'static str), cycle: &str) -> ScheduledRun {
    let locks: LockPair = (AtomicU64::new(0), TxMutex::new(a, ()), TxMutex::new(b, ()));
    let cycle = cycle.to_string();
    let check = move |(hits, ..): &LockPair| no_hits(hits, &cycle);
    match variant {
        Variant::Buggy => ScheduledRun::pair(
            locks,
            |(hits, a, b)| nested(hits, a, b),
            |(hits, a, b)| nested(hits, b, a),
            check,
        ),
        _ => ScheduledRun::symmetric(locks, |(hits, a, b)| nested(hits, a, b), check),
    }
}

/// Recipe 1 for a lock pair: both critical sections become transactions,
/// in the orders the buggy paths used.
fn copy_up_pair() -> ScheduledRun {
    let copy_up = |from: &TVar<u64>, to: &TVar<u64>| {
        atomic(|txn| {
            let v = from.read(txn)?;
            to.write(txn, v + 1)
        });
    };
    ScheduledRun::pair(
        (TVar::new(0u64), TVar::new(0u64)),
        move |(x, y)| copy_up(x, y),
        move |(x, y)| copy_up(y, x),
        |_| Outcome::Correct,
    )
}

/// Mozilla-I: each thread owns one object, then moves a value into the
/// other's — claiming its title while holding `setSlotLock`, whose other
/// claimant owns that title and waits behind the lock. A claim blocks on
/// the scheduler and times out only when every thread is blocked; a
/// claim that times out abandons the move.
pub(super) fn mozilla_i(variant: Variant) -> ScheduledRun {
    let store: Box<dyn ObjectStore> = match variant {
        Variant::Buggy => Box::new(OwnershipStore::new(OwnershipMode::Buggy, 2, 1)),
        Variant::DevFix => Box::new(OwnershipStore::new(OwnershipMode::DevFix, 2, 1)),
        // Recipe 1: the ownership protocol is deleted.
        Variant::TmFix => Box::new(StmStore::new(2, 1)),
    };
    let script = |t: usize| {
        move |(store, abandoned): &(Box<dyn ObjectStore>, AtomicU64)| {
            store.set_slot(t, t, 0, t as i64 + 1);
            if !store.move_slot(t, t, 1 - t, 0) {
                abandoned.fetch_add(1, Ordering::Relaxed);
            }
            store.quiesce(t);
        }
    };
    ScheduledRun::pair((store, AtomicU64::new(0)), script(0), script(1), |(_, abandoned)| {
        match abandoned.load(Ordering::Relaxed) {
            0 => Outcome::Correct,
            n => Outcome::BugObserved(format!(
                "{n} of 2 moves abandoned: an ownership claim deadlocked behind setSlotLock"
            )),
        }
    })
}

/// Mozilla#54743: cache and atom-table locks in opposite orders.
pub(super) fn dl_cache_atomtable(variant: Variant) -> ScheduledRun {
    match variant {
        Variant::Buggy => lock_pair(
            variant,
            ("m54743.cache", "m54743.atomtable"),
            "AB-BA cycle on cache/atom-table locks",
        ),
        // The fix: the atom-table path takes the cache lock first too.
        Variant::DevFix => lock_pair(
            variant,
            ("m54743d.cache", "m54743d.atomtable"),
            "cache-first order still cycled",
        ),
        Variant::TmFix => copy_up_pair(),
    }
}

/// Mozilla#60303: three threads each take lock `t` then lock `t+1 mod 3`;
/// the wait-for graph refuses the acquisition that closes the cycle.
pub(super) fn dl_three_lock_cycle(variant: Variant) -> ScheduledRun {
    // Three slots over one shared `state`; slot `t` runs `body(state, t)`.
    fn three<S: Send + Sync + 'static>(
        state: S,
        body: impl Fn(&S, usize) + Clone + Send + 'static,
        check: impl FnOnce(&S) -> Outcome + Send + 'static,
    ) -> ScheduledRun {
        let state = Arc::new(state);
        let threads = (0..3)
            .map(|t| {
                let (state, body) = (state.clone(), body.clone());
                Box::new(move || body(&state, t)) as Box<dyn FnOnce() + Send>
            })
            .collect();
        ScheduledRun { threads, check: Box::new(move || check(&state)) }
    }
    let locks = |names: [&'static str; 3]| (AtomicU64::new(0), names.map(|n| TxMutex::new(n, ())));
    let cycled = |(hits, _): &(AtomicU64, [TxMutex<()>; 3])| {
        no_hits(hits, "three-lock rotating cycle hit the wait-for graph")
    };
    match variant {
        Variant::Buggy => three(
            locks(["m60303.l0", "m60303.l1", "m60303.l2"]),
            |(hits, locks), t| nested(hits, &locks[t], &locks[(t + 1) % 3]),
            cycled,
        ),
        // The fix: one global order, lowest index first.
        Variant::DevFix => three(
            locks(["m60303d.l0", "m60303d.l1", "m60303d.l2"]),
            |(hits, locks), t| {
                let (a, b) = (t, (t + 1) % 3);
                nested(hits, &locks[a.min(b)], &locks[a.max(b)]);
            },
            cycled,
        ),
        Variant::TmFix => three(
            [TVar::new(0u64), TVar::new(0u64), TVar::new(0u64)],
            |cells, t| {
                atomic(|txn| {
                    cells[t].modify(txn, |v| v + 1)?;
                    cells[(t + 1) % 3].modify(txn, |v| v + 1)
                })
            },
            |cells| match cells.iter().map(TVar::load).sum::<u64>() {
                6 => Outcome::Correct,
                n => Outcome::BugObserved(format!("expected 6 increments, saw {n}")),
            },
        ),
    }
}

/// Mozilla#123930: the state/observer lock cycle, and the developers' fix
/// that traded it for a data race.
pub(super) fn dl_intentional_race(variant: Variant) -> ScheduledRun {
    match variant {
        Variant::Buggy => lock_pair(
            variant,
            ("m123930.state", "m123930.observer"),
            "state/observer lock cycle hit the wait-for graph",
        ),
        // The shipped fix: the observer path stops taking the state lock
        // and updates the counter unsynchronized. No deadlock — but a
        // read-modify-write race (the new bug the paper calls out); this
        // variant only checks the deadlock property, as the developers'
        // own tests did.
        Variant::DevFix => ScheduledRun::symmetric(
            (AtomicU64::new(0), TxMutex::new("m123930d.observer", 0u64)),
            |(state, observer)| {
                let v = state.load(Ordering::Relaxed);
                *observer.lock().expect("single lock") += 1;
                state.store(v + 1, Ordering::Relaxed);
            },
            |_| Outcome::Correct,
        ),
        Variant::TmFix => ScheduledRun::symmetric(
            (TVar::new(0u64), TVar::new(0u64)),
            |(state, observer)| {
                atomic(|txn| {
                    state.modify(txn, |v| v + 1)?;
                    observer.modify(txn, |v| v + 1)
                })
            },
            |(state, observer)| {
                if state.load() == 2 && observer.load() == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("atomic replacement lost updates".into())
                }
            },
        ),
    }
}

/// Apache-I: the listener waits for an idle worker while holding the
/// timeout mutex; a worker must take that mutex (connection accounting)
/// before it announces itself idle again. The evidence is the stuck
/// schedule: the listener blocked on the condvar, the worker on the lock.
pub(super) fn apache_i(variant: Variant) -> ScheduledRun {
    type Server = (TxMutex<u64>, TxMutex<u64>, LockCondvar, TVar<u64>);
    let server = || -> Server {
        (
            TxMutex::new("apache1.timeout_mutex", 0),
            TxMutex::new("apache1.idle_workers", 0),
            LockCondvar::named("apache1.idle_cv"),
            TVar::new(0),
        )
    };
    // Worker: announce itself idle, finish a request (accounting under
    // the timeout mutex), announce itself idle again.
    let worker = |tm: bool| {
        move |(timeout, idle, cv, idle_tv): &Server| {
            let announce = || {
                if tm {
                    atomic(|txn| idle_tv.modify(txn, |n| n + 1));
                } else {
                    *idle.lock().expect("no lock cycle") += 1;
                    cv.notify_all();
                }
            };
            announce();
            *timeout.lock().expect("no lock cycle") += 1;
            announce();
        }
    };
    // Listener: dispatch two connections, each to an idle worker.
    let listener = move |(timeout, idle, cv, idle_tv): &Server| {
        for _ in 0..2 {
            match variant {
                // Hold the timeout mutex across the wait (the bug).
                Variant::Buggy => {
                    let _tg = timeout.lock().expect("no lock cycle");
                    *wait_nonzero(cv, idle.lock().expect("no lock cycle")) -= 1;
                }
                // The fix: release the mutex before waiting, re-acquire
                // it afterwards to redo the accounting the unlock broke.
                Variant::DevFix => {
                    drop(timeout.lock().expect("no lock cycle"));
                    *wait_nonzero(cv, idle.lock().expect("no lock cycle")) -= 1;
                    drop(timeout.lock().expect("no lock cycle"));
                }
                // Recipe 3: a revocable mutex, and retry instead of the
                // wait — no idle worker aborts the transaction, which
                // releases the mutex.
                Variant::TmFix => {
                    preemptible(&PreemptOptions::default(), |txn| {
                        timeout.lock_tx(txn)?;
                        let n = idle_tv.read(txn)?;
                        guard(txn, n > 0)?;
                        idle_tv.write(txn, n - 1)
                    })
                    .expect("preemptible listener cannot fail terminally");
                }
            }
        }
    };
    ScheduledRun::pair(server(), listener, worker(variant == Variant::TmFix), |_| Outcome::Correct)
}

/// Apache#11600: two locks taken in opposite orders within one function.
pub(super) fn dl_local_lock_order(variant: Variant) -> ScheduledRun {
    match variant {
        Variant::Buggy => lock_pair(
            variant,
            ("a11600.mutex_a", "a11600.mutex_b"),
            "AB-BA cycle hit the wait-for graph",
        ),
        // The one-line fix: one global order.
        Variant::DevFix => lock_pair(
            variant,
            ("a11600d.mutex_a", "a11600d.mutex_b"),
            "ordered acquisition still cycled",
        ),
        Variant::TmFix => copy_up_pair(),
    }
}

/// MySQL#3155: a join locks the tables in query order, maintenance in
/// index order.
pub(super) fn dl_mysql_table_pair(variant: Variant) -> ScheduledRun {
    const TABLES: (&str, &str) = ("my3155.table1", "my3155.table2");
    match variant {
        Variant::Buggy => {
            lock_pair(variant, TABLES, "table-pair lock cycle hit the wait-for graph")
        }
        // The fix: canonical index order on both paths.
        Variant::DevFix => lock_pair(variant, TABLES, "index-ordered tables still cycled"),
        // Recipe 3: both paths keep their natural order but acquire
        // revocably; a cycle preempts one side, which re-executes.
        Variant::TmFix => {
            type Tables = (TxMutex<Vec<u64>>, TxMutex<Vec<u64>>);
            let insert = |t: u64| {
                move |(t1, t2): &Tables| {
                    let (first, second) = if t == 0 { (t1, t2) } else { (t2, t1) };
                    preemptible(&PreemptOptions::default(), |txn| {
                        first.lock_tx(txn)?;
                        second.lock_tx(txn)?;
                        first.with_held(|rows| rows.push(t));
                        second.with_held(|rows| rows.push(t));
                        Ok(())
                    })
                    .expect("preemptible join cannot fail terminally");
                }
            };
            ScheduledRun::pair(
                (TxMutex::new(TABLES.0, Vec::new()), TxMutex::new(TABLES.1, Vec::new())),
                insert(0),
                insert(1),
                |(t1, t2)| {
                    let len = |t: &TxMutex<Vec<u64>>| t.lock().expect("no lock cycle").len();
                    let rows = (len(t1), len(t2));
                    if rows == (2, 2) {
                        Outcome::Correct
                    } else {
                        Outcome::BugObserved(format!("row counts {rows:?}, expected (2, 2)"))
                    }
                },
            )
        }
    }
}

/// Mozilla#133773: one path guards the cache counter with the wrong lock,
/// so its read-modify-write interleaves with the correctly locked one.
pub(super) fn av_wrong_lock(variant: Variant) -> ScheduledRun {
    fn bumped_twice(n: u64) -> Outcome {
        if n == 2 {
            Outcome::Correct
        } else {
            Outcome::BugObserved(format!("lost update: counter is {n} after two locked increments"))
        }
    }
    match variant {
        Variant::Buggy => {
            type Paths = (TxMutex<()>, TxMutex<()>, TracedCell);
            let bump = |lock: &TxMutex<()>, counter: &TracedCell| {
                let _held = lock.lock().expect("no lock cycle");
                let v = counter.load();
                counter.store(v + 1);
            };
            ScheduledRun::pair(
                (
                    TxMutex::new("m133773.cache_lock", ()),
                    TxMutex::new("m133773.unrelated_lock", ()),
                    TracedCell::new("m133773.cache_count", 0),
                ),
                move |(right, _, counter): &Paths| bump(right, counter),
                move |(_, wrong, counter): &Paths| bump(wrong, counter),
                |(.., counter)| bumped_twice(counter.peek()),
            )
        }
        Variant::DevFix => ScheduledRun::symmetric(
            TxMutex::new("m133773d.cache_lock", 0u64),
            |counter| *counter.lock().expect("single lock") += 1,
            |counter| bumped_twice(*counter.lock().expect("single lock")),
        ),
        // Recipe 4: the correctly locked path is untouched; only the
        // mis-locked region becomes an atomic section serialized against
        // the domain's lock critical sections.
        Variant::TmFix => {
            let domain = SerialDomain::new();
            ScheduledRun::pair(
                (domain.clone(), SerialMutex::new(domain, 0u64)),
                |(_, counter)| *counter.lock() += 1,
                |(domain, counter)| {
                    wrap_unprotected_atomic(domain, |_txn| {
                        *counter.lock() += 1;
                        Ok(())
                    })
                },
                |(_, counter)| bumped_twice(*counter.lock()),
            )
        }
    }
}

/// Mozilla-adjacent refcount: two plain load/store decrements interleave
/// and lose one release.
pub(super) fn av_refcount_race(variant: Variant) -> ScheduledRun {
    match variant {
        Variant::Buggy => ScheduledRun::symmetric(
            TracedCell::new("m.refcount", 2),
            |rc| {
                let v = rc.load();
                rc.store(v - 1);
            },
            |rc| {
                if rc.peek() == 0 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved(format!("refcount ended at {} (lost release)", rc.peek()))
                }
            },
        ),
        Variant::DevFix => ScheduledRun::symmetric(
            TracedCell::new("m.refcount", 2),
            |rc| {
                rc.fetch_sub(1);
            },
            |rc| {
                if rc.peek() == 0 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("atomic decrement lost a release".into())
                }
            },
        ),
        Variant::TmFix => ScheduledRun::symmetric(
            TVar::new(2u64),
            |rc| atomic(|txn| rc.modify(txn, |v| v - 1)),
            |rc| {
                if rc.load() == 0 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("transactional decrement lost a release".into())
                }
            },
        ),
    }
}

/// Mozilla#52271: check-then-initialize races — two threads both see
/// "uninitialized".
pub(super) fn av_lazy_init(variant: Variant) -> ScheduledRun {
    fn ran_once<T>((inits, _): &(AtomicU64, T)) -> Outcome {
        match inits.load(Ordering::Relaxed) {
            1 => Outcome::Correct,
            n => Outcome::BugObserved(format!("initializer ran {n} times")),
        }
    }
    match variant {
        Variant::Buggy => ScheduledRun::symmetric(
            (AtomicU64::new(0), TracedCell::new("m52271.initialized", 0)),
            |(inits, flag)| {
                if flag.load() == 0 {
                    inits.fetch_add(1, Ordering::Relaxed);
                    flag.store(1);
                }
            },
            ran_once,
        ),
        Variant::DevFix => ScheduledRun::symmetric(
            (AtomicU64::new(0), TxMutex::new("m52271d.init", false)),
            |(inits, state)| {
                let mut g = state.lock().expect("no lock cycle");
                if !*g {
                    inits.fetch_add(1, Ordering::Relaxed);
                    *g = true;
                }
            },
            ran_once,
        ),
        Variant::TmFix => ScheduledRun::symmetric(
            (AtomicU64::new(0), TVar::new(false)),
            |(inits, flag)| {
                // The initializer side effect runs *after* commit: a
                // transaction body may re-execute on conflict, so effects
                // inside it would be double-counted.
                let initialized = atomic(|txn| {
                    if !flag.read(txn)? {
                        flag.write(txn, true)?;
                        return Ok(true);
                    }
                    Ok(false)
                });
                if initialized {
                    inits.fetch_add(1, Ordering::Relaxed);
                }
            },
            ran_once,
        ),
    }
}

/// Mozilla#91106: notify before publish — a consumer that re-checks in
/// between waits forever (the lost wakeup).
pub(super) fn av_cv_partial(variant: Variant) -> ScheduledRun {
    type Monitor = (TxMutex<u64>, LockCondvar);
    let monitor = |name| -> Monitor { (TxMutex::new(name, 0u64), LockCondvar::named("m91106.cv")) };
    let consume = |(items, cv): &Monitor| {
        let mut g = wait_nonzero(cv, items.lock().expect("no lock cycle"));
        *g -= 1;
    };
    match variant {
        Variant::Buggy => ScheduledRun::pair(
            monitor("m91106.monitor"),
            // Producer: signal first, publish after.
            |(items, cv)| {
                cv.notify_all();
                let mut g = items.lock().expect("no lock cycle");
                *g += 1;
            },
            consume,
            |_| Outcome::Correct,
        ),
        Variant::DevFix => ScheduledRun::pair(
            monitor("m91106d.monitor"),
            // The fix: publish, then signal.
            |(items, cv)| {
                let mut g = items.lock().expect("no lock cycle");
                *g += 1;
                drop(g);
                cv.notify_all();
            },
            consume,
            |_| Outcome::Correct,
        ),
        // Commit-and-retry makes publish/notify one atomic step.
        Variant::TmFix => ScheduledRun::pair(
            TVar::new(0u64),
            |items| atomic(|txn| items.modify(txn, |v| v + 1)),
            |items| {
                atomic(|txn| {
                    let v = items.read(txn)?;
                    guard(txn, v > 0)?;
                    items.write(txn, v - 1)
                });
            },
            |_| Outcome::Correct,
        ),
    }
}

/// Apache#25520: two workers scan the scoreboard, find the same free slot
/// and both claim it.
pub(super) fn av_scoreboard(variant: Variant) -> ScheduledRun {
    fn two_claimed(slots: impl IntoIterator<Item = u64>) -> Outcome {
        let claimed: Vec<u64> = slots.into_iter().filter(|&v| v != 0).collect();
        if claimed.len() == 2 {
            Outcome::Correct
        } else {
            Outcome::BugObserved(format!(
                "both workers claimed the same scoreboard slot ({claimed:?})"
            ))
        }
    }
    // Each worker claims the first free slot with its own id.
    let first_free = |slots: &mut [u64], t: u64| {
        if let Some(i) = slots.iter().position(|&s| s == 0) {
            slots[i] = t;
        }
    };
    match variant {
        Variant::Buggy => {
            let claim = |t: u64| {
                move |slots: &[TracedCell; 4]| {
                    if let Some(i) = slots.iter().position(|s| s.load() == 0) {
                        slots[i].store(t);
                    }
                }
            };
            ScheduledRun::pair(
                [(); 4].map(|_| TracedCell::new("a25520.slot", 0)),
                claim(1),
                claim(2),
                |slots| two_claimed(slots.iter().map(TracedCell::peek)),
            )
        }
        Variant::DevFix => {
            let claim = move |t: u64| {
                move |slots: &TxMutex<Vec<u64>>| {
                    first_free(&mut slots.lock().expect("scoreboard lock"), t)
                }
            };
            ScheduledRun::pair(
                TxMutex::new("a25520d.scoreboard", vec![0u64; 4]),
                claim(1),
                claim(2),
                |slots| two_claimed(slots.lock().expect("scoreboard lock").clone()),
            )
        }
        Variant::TmFix => {
            let claim = move |t: u64| {
                move |slots: &TVar<Vec<u64>>| {
                    atomic(|txn| {
                        let mut v = slots.read(txn)?;
                        first_free(&mut v, t);
                        slots.write(txn, v)
                    })
                }
            };
            ScheduledRun::pair(TVar::new(vec![0u64; 4]), claim(1), claim(2), |slots| {
                two_claimed(slots.load())
            })
        }
    }
}

/// Apache-II: two writers read the same buffer cursor and overwrite each
/// other's records.
pub(super) fn apache_ii(variant: Variant) -> ScheduledRun {
    let fs = SimFs::new();
    let log: Box<dyn LogWriter> = match variant {
        Variant::Buggy => Box::new(BuggyBufferedLog::new(&fs, "log", 64, 0)),
        Variant::DevFix => Box::new(LockedBufferedLog::new(&fs, "log", 64)),
        Variant::TmFix => Box::new(TmBufferedLog::new(&fs, "log", 64)),
    };
    ScheduledRun::pair(
        log,
        |log| log.write_record(&make_record(0, 1)),
        |log| log.write_record(&make_record(1, 1)),
        |log| {
            log.flush();
            let v = validate_log(&log.file().read_all());
            if v.is_violation(2) {
                Outcome::BugObserved(format!(
                    "log lost or corrupted records ({} valid of 2, {} corrupt spans)",
                    v.valid_records, v.corrupted_spans
                ))
            } else {
                Outcome::Correct
            }
        },
    )
}

/// Apache#31017: the request and byte counters must move together; a
/// reporter between the updater's two stores sees them disagree.
pub(super) fn av_pair_invariant(variant: Variant) -> ScheduledRun {
    fn in_sync<T>((torn, _): &(AtomicU64, T)) -> Outcome {
        match torn.load(Ordering::Relaxed) {
            0 => Outcome::Correct,
            _ => Outcome::BugObserved("reporter observed the counters out of sync".into()),
        }
    }
    let report = |torn: &AtomicU64, (requests, bytes): (u64, u64)| {
        if requests != bytes {
            torn.fetch_add(1, Ordering::Relaxed);
        }
    };
    match variant {
        Variant::Buggy => ScheduledRun::pair(
            (
                AtomicU64::new(0),
                (TracedCell::new("a31017.requests", 0), TracedCell::new("a31017.bytes", 0)),
            ),
            |(_, (requests, bytes))| {
                requests.store(1);
                bytes.store(1);
            },
            move |(torn, (requests, bytes))| report(torn, (requests.load(), bytes.load())),
            in_sync,
        ),
        Variant::DevFix => ScheduledRun::pair(
            (AtomicU64::new(0), TxMutex::new("a31017d.counters", (0u64, 0u64))),
            |(_, pair)| {
                let mut g = pair.lock().expect("counter lock");
                g.0 += 1;
                g.1 += 1;
            },
            move |(torn, pair)| report(torn, *pair.lock().expect("counter lock")),
            in_sync,
        ),
        Variant::TmFix => ScheduledRun::pair(
            (AtomicU64::new(0), (TVar::new(0u64), TVar::new(0u64))),
            |(_, (requests, bytes))| {
                atomic(|txn| {
                    requests.modify(txn, |v| v + 1)?;
                    bytes.modify(txn, |v| v + 1)
                })
            },
            move |(torn, (requests, bytes))| {
                report(torn, atomic(|txn| Ok((requests.read(txn)?, bytes.read(txn)?))))
            },
            in_sync,
        ),
    }
}

/// Apache#29850: read-increment of the shared sequence number interleaves
/// and two records get the same id.
pub(super) fn av_log_sequence(variant: Variant) -> ScheduledRun {
    fn unique<T>((log, _): &(Mutex<Vec<u64>>, T)) -> Outcome {
        let mut seqs = log.lock().clone();
        let total = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        if total == 2 && seqs.len() == 2 {
            Outcome::Correct
        } else {
            Outcome::BugObserved(format!(
                "expected 2 unique sequence numbers, got {total} ({} unique)",
                seqs.len()
            ))
        }
    }
    let log = Mutex::new(Vec::new());
    match variant {
        Variant::Buggy => ScheduledRun::symmetric(
            (log, (TracedCell::new("a29850.seq", 1), TracedCell::new("a29850.log", 0))),
            |(log, (seq, stamp))| {
                let n = seq.load();
                log.lock().push(n);
                stamp.store(stamp.peek() + 1);
                seq.store(n + 1);
            },
            unique,
        ),
        Variant::DevFix => ScheduledRun::symmetric(
            (log, TxMutex::new("a29850d.seq", 1u64)),
            |(log, seq)| {
                let mut g = seq.lock().expect("no lock cycle");
                log.lock().push(*g);
                *g += 1;
            },
            unique,
        ),
        Variant::TmFix => ScheduledRun::symmetric(
            (log, TVar::new(1u64)),
            |(log, seq)| {
                let n = atomic(|txn| {
                    let n = seq.read(txn)?;
                    seq.write(txn, n + 1)?;
                    Ok(n)
                });
                log.lock().push(n);
            },
            unique,
        ),
    }
}

/// MySQL#12228: two read-modify-write statistics bumps interleave and
/// lose one.
pub(super) fn av_stats_race(variant: Variant) -> ScheduledRun {
    match variant {
        Variant::Buggy => ScheduledRun::symmetric(
            TracedCell::new("my12228.queries", 0),
            |q| {
                let v = q.load();
                q.store(v + 1);
            },
            |q| {
                if q.peek() == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved(format!("statistics lost an update ({} of 2)", q.peek()))
                }
            },
        ),
        Variant::DevFix => ScheduledRun::symmetric(
            TracedCell::new("my12228.queries", 0),
            |q| {
                q.fetch_add(1);
            },
            |q| {
                if q.peek() == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("atomic statistics bump lost an update".into())
                }
            },
        ),
        Variant::TmFix => ScheduledRun::symmetric(
            TVar::new(0u64),
            |q| atomic(|txn| q.modify(txn, |v| v + 1)),
            |q| {
                if q.load() == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("transactional bump lost an update".into())
                }
            },
        ),
    }
}

/// The mini-MySQL build that implements `variant` (the TM fix is Recipe 4).
fn mysql_variant(variant: Variant) -> MysqlVariant {
    match variant {
        Variant::Buggy => MysqlVariant::Buggy,
        Variant::DevFix => MysqlVariant::DevFix,
        Variant::TmFix => MysqlVariant::TmRecipe4,
    }
}

/// MySQL-I: a concurrent INSERT lands between the optimized DELETE's
/// table clear and its binlog record; replaying the log diverges from
/// the tables.
pub(super) fn mysql_i(variant: Variant) -> ScheduledRun {
    ScheduledRun::pair(
        MiniDb::new(mysql_variant(variant), 1).with_row_cost(0),
        |db| db.insert(0, 7, 70),
        |db| db.delete_all(0),
        |db| {
            if consistent_with_binlog(db) {
                Outcome::Correct
            } else {
                Outcome::BugObserved("binlog replay diverges from the server's tables".into())
            }
        },
    )
}

/// MySQL#16582: the hand-rolled validate-then-write window admits a lost
/// update.
pub(super) fn av_adhoc_retry(variant: Variant) -> ScheduledRun {
    match variant {
        Variant::Buggy => ScheduledRun::symmetric(
            (TracedCell::new("my16582.version", 0), TracedCell::new("my16582.value", 0)),
            |(version, value)| {
                let v0 = version.load();
                let cur = value.load();
                if version.load() == v0 {
                    value.store(cur + 1);
                    version.store(v0 + 1);
                }
            },
            |(_, value)| {
                if value.peek() == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved(format!(
                        "DIY validation admitted a lost update (value {} of 2)",
                        value.peek()
                    ))
                }
            },
        ),
        // A correct hand-rolled scheme: CAS retry on a packed word.
        Variant::DevFix => ScheduledRun::symmetric(
            TracedCell::new("my16582d.word", 0),
            |word| loop {
                let w = word.load_sync();
                let (ver, val) = (w >> 32, w & 0xffff_ffff);
                let next = ((ver + 1) << 32) | (val + 1);
                if word.compare_exchange(w, next).is_ok() {
                    break;
                }
            },
            |word| {
                if word.peek() & 0xffff_ffff == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("CAS loop lost an update".into())
                }
            },
        ),
        Variant::TmFix => ScheduledRun::symmetric(
            TVar::new(0u64),
            |value| atomic(|txn| value.modify(txn, |v| v + 1)),
            |value| {
                if value.load() == 2 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("transactional update lost".into())
                }
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_runs_the_body_in_both_slots_and_check_sees_the_final_state() {
        let run = ScheduledRun::symmetric(
            AtomicU64::new(0),
            |n| {
                n.fetch_add(1, Ordering::Relaxed);
            },
            |n| Outcome::BugObserved(format!("saw {}", n.load(Ordering::Relaxed))),
        );
        assert_eq!(run.threads.len(), 2);
        for body in run.threads {
            body();
        }
        assert_eq!((run.check)(), Outcome::BugObserved("saw 2".into()));
    }
}
