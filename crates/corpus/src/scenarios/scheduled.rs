//! The `scheduled` column: scenarios packaged for the deterministic
//! scheduler (`txfix explore`).
//!
//! The barrier-based reproductions in [`atomicity`](super) / `deadlock`
//! pin *one* interleaving with OS barriers and spin windows. The scheduled
//! corpus re-expresses each bug as a set of plain thread bodies whose only
//! synchronization goes through the instrumented primitives (`TracedCell`,
//! `TxMutex`, `LockCondvar`, transactions, serial sections), so the
//! explorer in `txfix-explore` can drive *every* interleaving of their
//! yield points: OS barriers and sleeps are forbidden here — a controlled
//! thread that blocks outside the scheduler would stall the whole run.
//!
//! This is also where the recorder-blind bugs become checkable: lock/wait
//! cycles (`mozilla_i`) and lost wakeups (`av_cv_partial`) leave no
//! invariant violation behind — the evidence is the stuck schedule itself,
//! which the scheduler reports as a deadlock stop.
//!
//! Every builder states its shared state once and each distinct thread
//! body once, through [`ScheduledRun::symmetric`] (both slots run the same
//! body) or [`ScheduledRun::pair`] (two roles).

use super::atomicity::mysql_variant;
use super::{Outcome, Variant};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txfix_apps::apache::{
    buffered_log::make_record, validate_log, BuggyBufferedLog, LockedBufferedLog, LogWriter,
    TmBufferedLog,
};
use txfix_apps::mysql::{consistent_with_binlog, MiniDb};
use txfix_stm::{atomic, trace::TracedCell, TVar};
use txfix_tmsync::guard;
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

/// Mozilla-I: hold a lock across a condition wait whose notifier needs
/// it. No invariant breaks — the evidence is the stuck schedule.
pub(super) fn mozilla_i(variant: Variant) -> ScheduledRun {
    type Handoff = (TxMutex<()>, TxMutex<u64>, LockCondvar);
    let handoff = || -> Handoff {
        (TxMutex::new("moz1s.scope", ()), TxMutex::new("moz1s.monitor", 0u64), LockCondvar::new())
    };
    // Releaser: needs the scope lock first.
    let release = |(ssl, mon, cv): &Handoff| {
        let _ssl = ssl.lock().expect("no lock cycle");
        let mut g = mon.lock().expect("no lock cycle");
        *g = 1;
        drop(g);
        cv.notify_all();
    };
    match variant {
        Variant::Buggy => ScheduledRun::pair(
            handoff(),
            // Owner: holds the scope lock across the wait.
            |(ssl, mon, cv)| {
                let _ssl = ssl.lock().expect("no lock cycle");
                drop(wait_nonzero(cv, mon.lock().expect("no lock cycle")));
            },
            release,
            |_| Outcome::Correct,
        ),
        Variant::DevFix => ScheduledRun::pair(
            handoff(),
            // The fix: don't hold the scope lock while waiting.
            |(ssl, mon, cv)| {
                drop(wait_nonzero(cv, mon.lock().expect("no lock cycle")));
                let _ssl = ssl.lock().expect("no lock cycle");
            },
            release,
            |_| Outcome::Correct,
        ),
        // Recipe 1: the handoff is a guarded transaction; `retry` parks
        // on the runtime's notifier, which every commit signals.
        Variant::TmFix => ScheduledRun::pair(
            TVar::new(false),
            |scope| {
                atomic(|txn| {
                    let v = scope.read(txn)?;
                    guard(txn, v)
                });
            },
            |scope| atomic(|txn| scope.write(txn, true)),
            |_| Outcome::Correct,
        ),
    }
}

/// Apache#11600: two locks taken in opposite orders; the wait-for graph
/// errors one thread under the crossing schedules.
pub(super) fn dl_local_lock_order(variant: Variant) -> ScheduledRun {
    let locks =
        || (AtomicU64::new(0), TxMutex::new("a11600s.a", ()), TxMutex::new("a11600s.b", ()));
    // `first` then `second`, nested; a refused acquisition is a hit.
    let nested = |hits: &AtomicU64, first: &TxMutex<()>, second: &TxMutex<()>| match first.lock() {
        Ok(_held) => {
            if second.lock().is_err() {
                hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(_) => {
            hits.fetch_add(1, Ordering::Relaxed);
        }
    };
    match variant {
        Variant::Buggy => ScheduledRun::pair(
            locks(),
            move |(hits, a, b)| nested(hits, a, b),
            move |(hits, a, b)| nested(hits, b, a),
            |(hits, ..)| {
                if hits.load(Ordering::Relaxed) > 0 {
                    Outcome::BugObserved("AB-BA cycle hit the wait-for graph".into())
                } else {
                    Outcome::Correct
                }
            },
        ),
        // The fix: one global order.
        Variant::DevFix => ScheduledRun::symmetric(
            locks(),
            |(hits, a, b)| {
                let ga = a.lock();
                let gb = b.lock();
                if ga.is_err() || gb.is_err() {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            },
            |(hits, ..)| {
                if hits.load(Ordering::Relaxed) == 0 {
                    Outcome::Correct
                } else {
                    Outcome::BugObserved("ordered acquisition still cycled".into())
                }
            },
        ),
        // Recipe 3: both critical sections become transactions.
        Variant::TmFix => {
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
    }
}

/// Mozilla#133773-adjacent refcount: two plain load/store decrements
/// interleave and lose one release.
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
            (AtomicU64::new(0), TxMutex::new("m52271s.lock", false)),
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
    let monitor = || -> Monitor { (TxMutex::new("m91106s.items", 0u64), LockCondvar::new()) };
    let consume = |(items, cv): &Monitor| {
        let mut g = wait_nonzero(cv, items.lock().expect("no lock cycle"));
        *g -= 1;
    };
    match variant {
        Variant::Buggy => ScheduledRun::pair(
            monitor(),
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
            monitor(),
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
            (log, TracedCell::new("a29850.seq", 1)),
            |(log, seq)| {
                let n = seq.load();
                log.lock().push(n);
                seq.store(n + 1);
            },
            unique,
        ),
        Variant::DevFix => ScheduledRun::symmetric(
            (log, TxMutex::new("a29850s.seq", 1u64)),
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
