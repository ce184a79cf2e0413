//! The real-thread opacity reproducer: racing transfers between two
//! accounts must never hand a read-only transaction a torn snapshot, and
//! concurrent read-modify-writes must add up to what a sequential oracle
//! computes. A closure passed to `TVar::read_with` sees only values its
//! transaction accepted, and a commit to the variable does not wait for
//! it, nor free the value it still reads. The
//! deterministic scheduler cannot see this class (a read or a commit is
//! one step there), so these run on OS threads.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use txfix_stm::{atomic, EscalationPolicy, TVar, Txn, TxnBuilder};

/// The transfer workload: writers move amounts between two accounts
/// (invariant: the sum is conserved), one reader snapshots both. A stale
/// read — a transaction whose snapshot admits one pre-transfer and one
/// post-transfer value — shows up as a torn sum. `writer` and `reader`
/// configure the two kinds of transaction (their escalation rung, in the
/// pinned-rung cells below). With `inside`, the reader sums the pair
/// inside `read_with`'s closure and counts a torn one there, as a side
/// effect: an attempt that aborts afterwards still counts, so `f` must
/// never see a value its transaction has not accepted. Returns (final
/// sum, torn snapshots).
fn transfer_workload(
    writers: usize,
    transfers: usize,
    reads: usize,
    writer: &TxnBuilder,
    reader: &TxnBuilder,
    inside: bool,
) -> (i64, u64) {
    let a = TVar::new(500i64);
    let b = TVar::new(500i64);
    let torn = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..writers {
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 0..transfers {
                    let amt = ((i + w) % 17) as i64;
                    writer.run(|txn| {
                        let x = a.read(txn)?;
                        let y = b.read(txn)?;
                        a.write(txn, x - amt)?;
                        b.write(txn, y + amt)
                    });
                }
            });
        }
        let (a, b) = (a.clone(), b.clone());
        let torn = &torn;
        let count_torn = |x: i64, y: i64| {
            if x + y != 1000 {
                torn.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        };
        s.spawn(move || {
            for _ in 0..reads {
                // A read-only transaction that races a committing writer
                // must extend (validating every prior read) or abort —
                // never return a torn pair.
                if inside {
                    reader.run(|txn| {
                        let x = a.read(txn)?;
                        b.read_with(txn, |&y| count_torn(x, y))
                    });
                } else {
                    let ((x, y), _) = reader.run(|txn| Ok((a.read(txn)?, b.read(txn)?)));
                    count_torn(x, y);
                }
            }
        });
    });
    (a.load() + b.load(), torn.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot extension never admits a stale read: the racing transfer
    /// workload conserves the sum and no snapshot is torn.
    #[test]
    fn racing_transfers_never_admit_a_stale_read(writers in 1usize..4, rounds in 1usize..40) {
        let plain = Txn::build();
        let (sum, torn) = transfer_workload(writers, rounds, rounds, &plain, &plain, false);
        prop_assert_eq!(torn, 0, "stale read");
        prop_assert_eq!(sum, 1000, "conservation broken");
    }

    /// Concurrent read-modify-write increments serialize to the same
    /// total the sequential oracle computes.
    #[test]
    fn concurrent_adds_serialize(
        per_thread in proptest::collection::vec(
            proptest::collection::vec((0usize..3, -20i64..20), 1..12),
            2..4,
        ),
    ) {
        let mut expected = [0i64; 3];
        for prog in &per_thread {
            for &(idx, delta) in prog {
                expected[idx] += delta;
            }
        }
        let vars: Vec<TVar<i64>> = (0..3).map(|_| TVar::new(0)).collect();
        std::thread::scope(|s| {
            for prog in &per_thread {
                let vars = vars.clone();
                s.spawn(move || {
                    for &(idx, delta) in prog {
                        atomic(|txn| {
                            let v = vars[idx].read(txn)?;
                            vars[idx].write(txn, v + delta)
                        });
                    }
                });
            }
        });
        let got: Vec<i64> = vars.iter().map(|v| v.load()).collect();
        prop_assert_eq!(&got, &expected.to_vec());
    }
}

/// One cell of the opacity reproducer: the transfer workload over 200
/// fresh pairs with the writers' rung pinned — `serial_after = 0` makes
/// every writer commit irrevocable, `u64::MAX` keeps every one optimistic
/// — beside an always-optimistic read-only reader. A read-only commit
/// validates nothing, so one torn snapshot here is an opacity violation
/// on the read path itself (lock-before-stamp on both commit rungs, the
/// `read_consistent` re-check order, re-validating the read that triggers
/// a snapshot extension). With `inside`, the reader checks the pair inside
/// `read_with`'s closure (see [`transfer_workload`]).
fn pinned_rung_cell(writer_serial_after: u64, inside: bool) {
    let pinned = |serial_after| {
        Txn::build().escalation(EscalationPolicy { serial_after, ..EscalationPolicy::default() })
    };
    let (writer, reader) = (pinned(writer_serial_after), pinned(u64::MAX));
    for pair in 0..200 {
        let (sum, torn) = transfer_workload(2, 200, 400, &writer, &reader, inside);
        assert_eq!(torn, 0, "torn read-only snapshots on pair {pair}");
        assert_eq!(sum, 1000, "conservation broken on pair {pair}");
    }
}

#[test]
fn serial_writers_never_tear_a_read_only_snapshot() {
    pinned_rung_cell(0, false);
}

#[test]
fn optimistic_writers_never_tear_a_read_only_snapshot() {
    pinned_rung_cell(u64::MAX, false);
}

#[test]
fn serial_writers_never_show_read_with_a_torn_pair() {
    pinned_rung_cell(0, true);
}

#[test]
fn optimistic_writers_never_show_read_with_a_torn_pair() {
    pinned_rung_cell(u64::MAX, true);
}

/// A payload that records its own drop.
struct Tracked {
    value: u64,
    dropped: Arc<AtomicBool>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

/// A commit does not wait for a reader inside `read_with`'s closure, and
/// the value it replaces outlives that closure. The reader parks in `f`
/// (the blocking the contract forbids, here on purpose) while a writer
/// commits to the same `TVar`: the commit must finish while the reader is
/// still inside, the reader must return the old value, the old payload
/// must not be dropped before `f` returns, and it must be dropped once the
/// reader has left and the writer has committed enough times to run a
/// reclaim pass. Every wait is a `recv_timeout`, so a deadlock fails the
/// test instead of hanging it.
#[test]
fn a_commit_does_not_wait_for_a_reader_inside_read_with() {
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};
    const DEADLOCK: Duration = Duration::from_secs(10);
    let old_dropped = Arc::new(AtomicBool::new(false));
    let v = TVar::new(Tracked { value: 1, dropped: old_dropped.clone() });
    let (in_f, reader_in_f) = channel();
    let (committed, writer_committed) = channel();
    let (left, reader_left) = channel();
    let (reader_done, reader_result) = channel();
    let (writer_done, writer_result) = channel();
    let reader = std::thread::spawn({
        let (v, old_dropped) = (v.clone(), old_dropped.clone());
        move || {
            let reply = atomic(|txn| {
                v.read_with(txn, |old| {
                    in_f.send(()).unwrap();
                    let committed_inside = writer_committed.recv_timeout(DEADLOCK).is_ok();
                    // Read the payload after the commit: had the writer
                    // freed it, this would be a use after free.
                    (old.value, committed_inside, old_dropped.load(Ordering::SeqCst))
                })
            });
            left.send(()).unwrap();
            reader_done.send(reply).unwrap();
        }
    });
    let writer = std::thread::spawn({
        let (v, old_dropped) = (v.clone(), old_dropped.clone());
        move || {
            reader_in_f.recv_timeout(DEADLOCK).expect("the reader never entered f");
            let new = || Tracked { value: 2, dropped: Arc::new(AtomicBool::new(false)) };
            atomic(|txn| v.write(txn, new()));
            // The reader may have given up on the commit and left.
            let _ = committed.send(());
            reader_left.recv_timeout(DEADLOCK).expect("the reader never left f");
            // The old payload waits in this thread's retire list; only a
            // pass, which a full list runs, frees it.
            let other = TVar::new(0u64);
            let deadline = Instant::now() + DEADLOCK;
            let mut commits = 0;
            while !old_dropped.load(Ordering::SeqCst) && Instant::now() < deadline {
                atomic(|txn| other.modify(txn, |x| x + 1));
                commits += 1;
            }
            writer_done.send((commits, old_dropped.load(Ordering::SeqCst))).unwrap();
        }
    });
    let wait = 3 * DEADLOCK;
    let (seen, committed_inside, dropped_inside) =
        reader_result.recv_timeout(wait).expect("reader deadlocked");
    assert!(committed_inside, "the commit waited for a reader inside f");
    assert_eq!(seen, 1, "the reader did not return the old value");
    assert!(!dropped_inside, "the old payload was dropped while a reader was inside f");
    let (commits, freed) = writer_result.recv_timeout(wait).expect("writer deadlocked");
    assert!(freed, "the old payload was never dropped ({commits} commits after the reader left)");
    assert!(commits > 0, "the old payload was dropped before a reclaim pass");
    reader.join().unwrap();
    writer.join().unwrap();
    assert_eq!(v.load_arc().value, 2, "the writer's value is not visible");
}
