//! The 11 implemented atomicity-violation reproductions.

use super::{two_threads, Outcome, Variant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txfix_apps::apache::{
    buffered_log::{make_record, RECORD_LEN},
    validate_log, BuggyBufferedLog, LockedBufferedLog, LogWriter, TmBufferedLog,
};
use txfix_apps::mysql::{
    consistent_with_binlog, run_mysql_workload, MiniDb, MysqlVariant, MysqlWorkload,
};
use txfix_core::wrap_unprotected_atomic;
use txfix_stm::{atomic, trace::TracedCell, TVar};
use txfix_tmsync::{guard, SerialDomain, SerialMutex};
use txfix_txlock::{LockCondvar, TxMutex};
use txfix_xcall::{SimFs, XFile};

/// Mozilla#133773/#18025: the earlier fix grabbed the wrong lock.
pub(super) fn av_wrong_lock(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let right = TxMutex::new("m133773.cache_lock", ());
            let wrong = TxMutex::new("m133773.unrelated_lock", ());
            let counter = TracedCell::new("m133773.cache_count", 0);
            two_threads(|t, barrier| {
                // Both paths believe they are in a critical section, but
                // they hold *different* locks, so the read-modify-write
                // below still interleaves.
                let _g1;
                let _g2;
                if t == 0 {
                    _g1 = right.lock().expect("no cycle");
                } else {
                    _g2 = wrong.lock().expect("no cycle");
                }
                let v = counter.load();
                barrier.wait();
                counter.store(v + 1);
            });
            if counter.peek() != 2 {
                Outcome::BugObserved(format!(
                    "lost update: counter is {} after two locked increments",
                    counter.peek()
                ))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let right = TxMutex::new("m133773d.cache_lock", 0u64);
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..100 {
                    *right.lock().expect("single lock") += 1;
                }
            });
            if *right.lock().unwrap() == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("lost update under the corrected lock".into())
            }
        }
        Variant::TmFix => {
            // Recipe 4: the correctly locked path is untouched; only the
            // mis-locked region becomes an atomic section serialized
            // against the domain's lock critical sections.
            let domain = SerialDomain::new();
            let counter = Arc::new(SerialMutex::new(domain.clone(), 0u64));
            two_threads(|t, barrier| {
                barrier.wait();
                for _ in 0..100 {
                    if t == 0 {
                        *counter.lock() += 1; // the already-correct path
                    } else {
                        wrap_unprotected_atomic(&domain, |_txn| {
                            *counter.lock() += 1;
                            Ok(())
                        });
                    }
                }
            });
            if *counter.lock() == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("recipe 4 section interleaved with lock path".into())
            }
        }
    }
}

/// Mozilla: reference count checked then updated non-atomically.
pub(super) fn av_refcount_race(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let refcount = TracedCell::new("m.refcount", 2);
            two_threads(|_t, barrier| {
                let v = refcount.load();
                barrier.wait();
                refcount.store(v - 1);
            });
            let end = refcount.peek();
            if end != 0 {
                Outcome::BugObserved(format!(
                    "refcount is {end} after both holders released (object leaked)"
                ))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let refcount = TracedCell::new("m.refcount", 2);
            two_threads(|_t, barrier| {
                barrier.wait();
                refcount.fetch_sub(1);
            });
            if refcount.peek() == 0 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("atomic decrement lost".into())
            }
        }
        Variant::TmFix => {
            let refcount = TVar::new(2u64);
            let freed = TVar::new(false);
            two_threads(|_t, barrier| {
                barrier.wait();
                atomic(|txn| {
                    let v = refcount.read(txn)?;
                    refcount.write(txn, v - 1)?;
                    if v - 1 == 0 {
                        freed.write(txn, true)?;
                    }
                    Ok(())
                });
            });
            if refcount.load() == 0 && freed.load() {
                Outcome::Correct
            } else {
                Outcome::BugObserved(format!(
                    "refcount {} / freed {} after transactional releases",
                    refcount.load(),
                    freed.load()
                ))
            }
        }
    }
}

/// Mozilla: lazily initialized service constructed twice.
pub(super) fn av_lazy_init(variant: Variant) -> Outcome {
    let init_count = AtomicU64::new(0);
    match variant {
        Variant::Buggy => {
            let initialized = TracedCell::new("m52271.initialized", 0);
            two_threads(|_t, barrier| {
                let seen = initialized.load() != 0;
                barrier.wait();
                if !seen {
                    init_count.fetch_add(1, Ordering::SeqCst);
                    initialized.store(1);
                }
            });
        }
        Variant::DevFix => {
            let state = TxMutex::new("m52271d.init", false);
            two_threads(|_t, barrier| {
                barrier.wait();
                let mut g = state.lock().expect("single lock");
                if !*g {
                    init_count.fetch_add(1, Ordering::SeqCst);
                    *g = true;
                }
            });
        }
        Variant::TmFix => {
            let initialized = TVar::new(false);
            two_threads(|_t, barrier| {
                barrier.wait();
                let should_init = atomic(|txn| {
                    if initialized.read(txn)? {
                        Ok(false)
                    } else {
                        initialized.write(txn, true)?;
                        Ok(true)
                    }
                });
                if should_init {
                    init_count.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    }
    match init_count.load(Ordering::SeqCst) {
        1 => Outcome::Correct,
        n => Outcome::BugObserved(format!("service initialized {n} times")),
    }
}

/// Mozilla: partially synchronized producer loses the consumer's wakeup.
pub(super) fn av_cv_partial(variant: Variant) -> Outcome {
    const ITEMS: u64 = 20;
    match variant {
        Variant::Buggy => {
            let monitor = Arc::new(TxMutex::new("m91106.monitor", 0u64));
            let cv = Arc::new(LockCondvar::named("m91106.cv"));
            let rescued = AtomicU64::new(0);
            std::thread::scope(|s| {
                let (m, c) = (monitor.clone(), cv.clone());
                let rescued = &rescued;
                s.spawn(move || {
                    let mut consumed = 0u64;
                    while consumed < ITEMS {
                        let mut g = m.lock().expect("monitor");
                        let mut waited_out = false;
                        while *g == 0 {
                            let (g2, outcome) = c
                                .wait_timeout(g, Duration::from_millis(30))
                                .expect("monitor reacquire");
                            g = g2;
                            if outcome == txfix_txlock::WaitOutcome::TimedOut && *g > 0 {
                                waited_out = true;
                                break;
                            }
                        }
                        if waited_out {
                            rescued.fetch_add(1, Ordering::SeqCst);
                        }
                        consumed += *g;
                        *g = 0;
                    }
                });
                let (m, c) = (monitor.clone(), cv.clone());
                s.spawn(move || {
                    for _ in 0..ITEMS {
                        // Bug: signal first, publish the item *after*,
                        // outside the monitor.
                        c.notify_all();
                        std::thread::sleep(Duration::from_millis(2));
                        let mut g = m.lock().expect("monitor");
                        *g += 1;
                        drop(g);
                        std::thread::sleep(Duration::from_millis(3));
                    }
                });
            });
            if rescued.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved(format!(
                    "{} wakeups lost (consumer progressed only via timeout rescue)",
                    rescued.load(Ordering::SeqCst)
                ))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let monitor = Arc::new(TxMutex::new("m91106d.monitor", 0u64));
            let cv = Arc::new(LockCondvar::new());
            let consumed_total = AtomicU64::new(0);
            std::thread::scope(|s| {
                let (m, c) = (monitor.clone(), cv.clone());
                let consumed_total = &consumed_total;
                s.spawn(move || {
                    let mut consumed = 0u64;
                    while consumed < ITEMS {
                        let mut g = m.lock().expect("monitor");
                        while *g == 0 {
                            let (g2, _) = c
                                .wait_timeout(g, Duration::from_secs(5))
                                .expect("monitor reacquire");
                            g = g2;
                        }
                        consumed += *g;
                        *g = 0;
                    }
                    consumed_total.store(consumed, Ordering::SeqCst);
                });
                let (m, c) = (monitor.clone(), cv.clone());
                s.spawn(move || {
                    for _ in 0..ITEMS {
                        let mut g = m.lock().expect("monitor");
                        *g += 1;
                        drop(g);
                        c.notify_all();
                    }
                });
            });
            if consumed_total.load(Ordering::SeqCst) == ITEMS {
                Outcome::Correct
            } else {
                Outcome::BugObserved("consumer missed items under the dev fix".into())
            }
        }
        Variant::TmFix => {
            // Recipe 2 with retry: the predicate and the data live in
            // the same transaction, so wakeups cannot be lost.
            let count = TVar::new(0u64);
            let consumed_total = AtomicU64::new(0);
            std::thread::scope(|s| {
                let count2 = count.clone();
                let consumed_total = &consumed_total;
                s.spawn(move || {
                    let mut consumed = 0u64;
                    while consumed < ITEMS {
                        consumed += atomic(|txn| {
                            let n = count2.read(txn)?;
                            guard(txn, n > 0)?;
                            count2.write(txn, 0)?;
                            Ok(n)
                        });
                    }
                    consumed_total.store(consumed, Ordering::SeqCst);
                });
                let count3 = count.clone();
                s.spawn(move || {
                    for _ in 0..ITEMS {
                        atomic(|txn| count3.modify(txn, |n| n + 1));
                    }
                });
            });
            if consumed_total.load(Ordering::SeqCst) == ITEMS {
                Outcome::Correct
            } else {
                Outcome::BugObserved("transactional consumer missed items".into())
            }
        }
    }
}

/// Apache#25520: scoreboard slot claimed by two workers.
pub(super) fn av_scoreboard(variant: Variant) -> Outcome {
    const SLOTS: usize = 4;
    match variant {
        Variant::Buggy => {
            let slots: Vec<TracedCell> =
                (0..SLOTS).map(|_| TracedCell::new("a25520.slot", 0)).collect();
            two_threads(|t, barrier| {
                let free = slots.iter().position(|s| s.load() == 0);
                barrier.wait();
                if let Some(i) = free {
                    slots[i].store(t as u64 + 1);
                }
            });
            let claimed: Vec<u64> = slots.iter().map(|s| s.peek()).filter(|&v| v != 0).collect();
            if claimed.len() < 2 {
                Outcome::BugObserved(format!(
                    "both workers claimed the same scoreboard slot ({claimed:?})"
                ))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let slots = TxMutex::new("a25520d.scoreboard", vec![0u64; SLOTS]);
            two_threads(|t, barrier| {
                barrier.wait();
                let mut g = slots.lock().expect("scoreboard lock");
                if let Some(i) = g.iter().position(|&s| s == 0) {
                    g[i] = t as u64 + 1;
                }
            });
            let g = slots.lock().unwrap();
            if g.iter().filter(|&&v| v != 0).count() == 2 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("slot lost under the scoreboard lock".into())
            }
        }
        Variant::TmFix => {
            let slots = TVar::new(vec![0u64; SLOTS]);
            two_threads(|t, barrier| {
                barrier.wait();
                atomic(|txn| {
                    let mut v = slots.read(txn)?;
                    if let Some(i) = v.iter().position(|&s| s == 0) {
                        v[i] = t as u64 + 1;
                    }
                    slots.write(txn, v)
                });
            });
            if slots.load().iter().filter(|&&v| v != 0).count() == 2 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("slot lost under the atomic scan".into())
            }
        }
    }
}

/// Apache-II: the buffered log writer (paper §5.4.3).
pub(super) fn apache_ii(variant: Variant) -> Outcome {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 250;
    let fs = SimFs::new();
    let log: Box<dyn LogWriter> = match variant {
        Variant::Buggy => {
            Box::new(BuggyBufferedLog::new(&fs, "access.log", 24 * RECORD_LEN, 3_000))
        }
        Variant::DevFix => Box::new(LockedBufferedLog::new(&fs, "access.log", 24 * RECORD_LEN)),
        Variant::TmFix => Box::new(TmBufferedLog::new(&fs, "access.log", 24 * RECORD_LEN)),
    };
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = &log;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    log.write_record(&make_record(t, i));
                }
            });
        }
    });
    log.flush();
    let v = validate_log(&log.file().read_all());
    if v.is_violation(THREADS * PER_THREAD as usize) {
        Outcome::BugObserved(format!(
            "log corrupted: {} valid records (expected {}), {} garbled spans",
            v.valid_records,
            THREADS * PER_THREAD as usize,
            v.corrupted_spans
        ))
    } else {
        Outcome::Correct
    }
}

/// Apache: two-field invariant updated as independent stores.
pub(super) fn av_pair_invariant(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let a = TracedCell::new("a31017.requests", 0);
            let b = TracedCell::new("a31017.bytes", 0);
            let torn = AtomicU64::new(0);
            two_threads(|t, barrier| {
                if t == 0 {
                    a.store(1);
                    barrier.wait(); // reader looks here
                    barrier.wait();
                    b.store(1);
                } else {
                    barrier.wait();
                    if a.load() != b.load() {
                        torn.fetch_add(1, Ordering::SeqCst);
                    }
                    barrier.wait();
                }
            });
            if torn.load(Ordering::SeqCst) > 0 {
                Outcome::BugObserved("reader observed the counters out of sync".into())
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let pair = TxMutex::new("a31017d.counters", (0u64, 0u64));
            two_threads(|t, barrier| {
                barrier.wait();
                for _ in 0..200 {
                    if t == 0 {
                        let mut g = pair.lock().expect("counter lock");
                        g.0 += 1;
                        g.1 += 1;
                    } else {
                        let g = pair.lock().expect("counter lock");
                        assert_eq!(g.0, g.1);
                    }
                }
            });
            Outcome::Correct
        }
        Variant::TmFix => {
            let a = TVar::new(0u64);
            let b = TVar::new(0u64);
            let torn = AtomicU64::new(0);
            two_threads(|t, barrier| {
                barrier.wait();
                for _ in 0..200 {
                    if t == 0 {
                        atomic(|txn| {
                            a.modify(txn, |v| v + 1)?;
                            b.modify(txn, |v| v + 1)
                        });
                    } else {
                        let (x, y) = atomic(|txn| Ok((a.read(txn)?, b.read(txn)?)));
                        if x != y {
                            torn.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
            if torn.load(Ordering::SeqCst) == 0 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("transactional reader saw a torn pair".into())
            }
        }
    }
}

/// Apache: log sequence number advanced outside the writer's lock.
pub(super) fn av_log_sequence(variant: Variant) -> Outcome {
    let fs = SimFs::new();
    match variant {
        Variant::Buggy => {
            let file = fs.open_or_create("seq.log");
            let seq = TracedCell::new("a29850.seq", 1);
            let log_stamp = TracedCell::new("a29850.log", 0);
            two_threads(|_t, barrier| {
                let n = seq.load();
                barrier.wait();
                file.append(format!("seq={n};").as_bytes());
                log_stamp.store(log_stamp.peek() + 1);
                seq.store(n + 1);
            });
            let data = String::from_utf8(file.read_all()).expect("utf8 log");
            let entries: Vec<&str> = data.split(';').filter(|s| !s.is_empty()).collect();
            let mut seqs: Vec<&str> = entries.clone();
            seqs.dedup();
            if seqs.len() < entries.len() {
                Outcome::BugObserved(format!("duplicate sequence numbers in log: {data}"))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let file = fs.open_or_create("seq.log");
            let state = TxMutex::new("a29850d.seq", 1u64);
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..50 {
                    let mut g = state.lock().expect("seq lock");
                    file.append(format!("seq={};", *g).as_bytes());
                    *g += 1;
                }
            });
            check_unique_seqs(&file.read_all(), 100)
        }
        Variant::TmFix => {
            let xfile = XFile::open_or_create(&fs, "seq.log");
            let seq = TVar::new(1u64);
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..50 {
                    atomic(|txn| {
                        let n = seq.read(txn)?;
                        xfile.x_append(txn, format!("seq={n};").as_bytes())?;
                        seq.write(txn, n + 1)
                    });
                }
            });
            check_unique_seqs(&xfile.file().read_all(), 100)
        }
    }
}

fn check_unique_seqs(data: &[u8], expected: usize) -> Outcome {
    let text = String::from_utf8(data.to_vec()).expect("utf8 log");
    let mut seqs: Vec<&str> = text.split(';').filter(|s| !s.is_empty()).collect();
    let total = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    if seqs.len() == total && total == expected {
        Outcome::Correct
    } else {
        Outcome::BugObserved(format!(
            "expected {expected} unique sequence records, found {total} ({} unique)",
            seqs.len()
        ))
    }
}

/// MySQL: statistics counters updated with plain loads/stores.
pub(super) fn av_stats_race(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            let queries = TracedCell::new("my12228.queries", 0);
            two_threads(|_t, barrier| {
                let v = queries.load();
                barrier.wait();
                queries.store(v + 1);
            });
            if queries.peek() != 2 {
                Outcome::BugObserved(format!("statistics lost an update ({} of 2)", queries.peek()))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            let stats = TxMutex::new("my12228d.stats", (0u64, 0u64));
            two_threads(|_t, barrier| {
                barrier.wait();
                for i in 0..100u64 {
                    let mut g = stats.lock().expect("stats lock");
                    g.0 += 1;
                    g.1 += i;
                }
            });
            let g = stats.lock().unwrap();
            if g.0 == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("lost statistics update under lock".into())
            }
        }
        Variant::TmFix => {
            let queries = TVar::new(0u64);
            let rows = TVar::new(0u64);
            two_threads(|_t, barrier| {
                barrier.wait();
                for i in 0..100u64 {
                    atomic(|txn| {
                        queries.modify(txn, |v| v + 1)?;
                        rows.modify(txn, |v| v + i)
                    });
                }
            });
            if queries.load() == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("lost transactional statistics update".into())
            }
        }
    }
}

/// The mini-MySQL build that implements `variant` (the TM fix is Recipe 4).
pub(super) fn mysql_variant(variant: Variant) -> MysqlVariant {
    match variant {
        Variant::Buggy => MysqlVariant::Buggy,
        Variant::DevFix => MysqlVariant::DevFix,
        Variant::TmFix => MysqlVariant::TmRecipe4,
    }
}

/// MySQL-I: delete-all vs. binlog ordering (paper §5.4.4).
pub(super) fn mysql_i(variant: Variant) -> Outcome {
    let v = mysql_variant(variant);

    // Deterministic reproduction of Figure 5's interleaving: an INSERT
    // executes (and logs itself) exactly where the optimized DELETE has
    // released the table's logical lock but not yet written its binlog
    // record.
    let db = MiniDb::new(v, 1);
    db.insert(0, 1, 10);
    db.insert(0, 2, 20);
    // The INSERT runs on its own thread, gated into the hook's window,
    // so the interleaving is concurrent (the trace analyzers see the
    // unordered accesses) yet fully deterministic.
    let gate = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (db, gate) = (&db, &gate);
        s.spawn(move || {
            while gate.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
            db.insert(0, 99, 99);
            gate.store(2, Ordering::Release);
        });
        db.delete_all_hooked(0, || {
            gate.store(1, Ordering::Release);
            while gate.load(Ordering::Acquire) != 2 {
                std::hint::spin_loop();
            }
        });
    });
    if !consistent_with_binlog(&db) {
        return Outcome::BugObserved("binlog replay diverges from the server's tables".into());
    }

    // And a concurrent stress pass for the fixed variants.
    let db = MiniDb::new(v, 2).with_racy_window(5_000);
    let w = MysqlWorkload {
        insert_threads: 4,
        inserts_per_thread: 150,
        delete_threads: 2,
        deletes_per_thread: 30,
        tables: 2,
    };
    let out = run_mysql_workload(&db, &w);
    if out.replay_divergence {
        Outcome::BugObserved("binlog replay diverged under stress".into())
    } else {
        Outcome::Correct
    }
}

/// MySQL#16582: the hand-rolled conflict-check/abort/redo mechanism.
pub(super) fn av_adhoc_retry(variant: Variant) -> Outcome {
    match variant {
        Variant::Buggy => {
            // The DIY scheme: read version, compute, re-check version
            // with a plain load, then write value and version — the
            // validate-then-write is not atomic.
            let version = TracedCell::new("my16582.version", 0);
            let value = TracedCell::new("my16582.value", 0);
            two_threads(|_t, barrier| {
                let v0 = version.load();
                let cur = value.load();
                barrier.wait();
                if version.load() == v0 {
                    value.store(cur + 1);
                    version.store(v0 + 1);
                }
            });
            if value.peek() != 2 {
                Outcome::BugObserved(format!(
                    "DIY validation admitted a lost update (value {} of 2)",
                    value.peek()
                ))
            } else {
                Outcome::Correct
            }
        }
        Variant::DevFix => {
            // What a *correct* hand-rolled scheme takes: a CAS retry
            // loop over a packed (version, value) word.
            // version in high 32, value in low 32
            let word = TracedCell::new("my16582d.word", 0);
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..100 {
                    loop {
                        let w = word.load_sync();
                        let (ver, val) = (w >> 32, w & 0xffff_ffff);
                        let next = ((ver + 1) << 32) | (val + 1);
                        if word.compare_exchange(w, next).is_ok() {
                            break;
                        }
                    }
                }
            });
            if word.peek() & 0xffff_ffff == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("CAS loop lost updates".into())
            }
        }
        Variant::TmFix => {
            // The whole mechanism collapses to an atomic block.
            let value = TVar::new(0u64);
            two_threads(|_t, barrier| {
                barrier.wait();
                for _ in 0..100 {
                    atomic(|txn| value.modify(txn, |v| v + 1));
                }
            });
            if value.load() == 200 {
                Outcome::Correct
            } else {
                Outcome::BugObserved("transactional counter lost updates".into())
            }
        }
    }
}
