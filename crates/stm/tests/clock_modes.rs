//! GV1-vs-GV5 clock-mode tests: the GV5 thread-epoch clock with lazy
//! snapshot extension must never admit a stale read, with GV1 (the single
//! global counter, trivially serializable) as the oracle.
//!
//! The clock mode is process-global, so every test in this binary funnels
//! through [`with_mode`], which serializes mode changes behind one mutex
//! and always restores the deterministic GV1 default.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use txfix_stm::{atomic, ClockMode, EscalationPolicy, TVar, Txn, TxnBuilder};

static MODE_GATE: Mutex<()> = Mutex::new(());

/// Run `f` under `mode`, holding the process-wide gate so concurrent
/// tests cannot flip the clock mid-transaction, and restore GV1 after.
fn with_mode<T>(mode: ClockMode, f: impl FnOnce() -> T) -> T {
    let _gate: MutexGuard<'_, ()> = MODE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    txfix_stm::clock::set_mode(mode);
    let out = f();
    txfix_stm::clock::set_mode(ClockMode::Gv1);
    out
}

/// The transfer workload: writers move amounts between two accounts
/// (invariant: the sum is conserved), one reader snapshots both. A stale
/// read — a transaction whose snapshot admits one pre-transfer and one
/// post-transfer value — shows up as a torn sum. `writer` and `reader`
/// configure the two kinds of transaction (their escalation rung, in the
/// pinned-rung cells below). Returns (final sum, torn snapshots).
fn transfer_workload(
    writers: usize,
    transfers: usize,
    reads: usize,
    writer: &TxnBuilder,
    reader: &TxnBuilder,
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
        s.spawn(move || {
            for _ in 0..reads {
                // Read-only GV5 transactions run off the thread epoch and
                // must lazily extend (validating every prior read) when
                // they race a committing writer — never return a torn pair.
                let ((x, y), _) = reader.run(|txn| Ok((a.read(txn)?, b.read(txn)?)));
                if x + y != 1000 {
                    torn.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        });
    });
    (a.load() + b.load(), torn.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GV5 lazy snapshot extension never admits a stale read: the same
    /// racing transfer workload satisfies the oracle invariant (sum
    /// conserved, no torn snapshot) under GV1 and under GV5.
    #[test]
    fn gv5_never_admits_a_stale_read(writers in 1usize..4, rounds in 1usize..40) {
        for mode in [ClockMode::Gv1, ClockMode::Gv5] {
            let plain = Txn::build();
            let (sum, torn) =
                with_mode(mode, || transfer_workload(writers, rounds, rounds, &plain, &plain));
            prop_assert_eq!(torn, 0, "stale read under {}", mode.name());
            prop_assert_eq!(sum, 1000, "conservation broken under {}", mode.name());
        }
    }

    /// Both clocks serialize concurrent read-modify-write increments to
    /// the same total the sequential oracle computes.
    #[test]
    fn both_clocks_serialize_concurrent_adds(
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
        for mode in [ClockMode::Gv1, ClockMode::Gv5] {
            let got = with_mode(mode, || {
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
                vars.iter().map(|v| v.load()).collect::<Vec<i64>>()
            });
            prop_assert_eq!(&got, &expected.to_vec(), "divergence under {}", mode.name());
        }
    }
}

/// One cell of the opacity reproducer: the transfer workload over 200
/// fresh pairs with the writers' rung pinned — `serial_after = 0` makes
/// every writer commit irrevocable, `u64::MAX` keeps every one optimistic
/// — beside an always-optimistic read-only reader. A read-only commit
/// validates nothing, so one torn snapshot here is an opacity violation
/// on the read path itself (lock-before-stamp on both commit rungs, the
/// `read_consistent` re-check order, re-validating the read that triggers
/// a snapshot extension).
fn pinned_rung_cell(mode: ClockMode, writer_serial_after: u64) {
    let pinned = |serial_after| {
        Txn::build().escalation(EscalationPolicy { serial_after, ..EscalationPolicy::default() })
    };
    let (writer, reader) = (pinned(writer_serial_after), pinned(u64::MAX));
    with_mode(mode, || {
        for pair in 0..200 {
            let (sum, torn) = transfer_workload(2, 200, 400, &writer, &reader);
            assert_eq!(torn, 0, "torn read-only snapshots on pair {pair} under {}", mode.name());
            assert_eq!(sum, 1000, "conservation broken on pair {pair} under {}", mode.name());
        }
    });
}

#[test]
fn serial_writers_never_tear_a_read_only_snapshot_gv1() {
    pinned_rung_cell(ClockMode::Gv1, 0);
}

#[test]
fn serial_writers_never_tear_a_read_only_snapshot_gv5() {
    pinned_rung_cell(ClockMode::Gv5, 0);
}

#[test]
fn optimistic_writers_never_tear_a_read_only_snapshot_gv1() {
    pinned_rung_cell(ClockMode::Gv1, u64::MAX);
}

#[test]
fn optimistic_writers_never_tear_a_read_only_snapshot_gv5() {
    pinned_rung_cell(ClockMode::Gv5, u64::MAX);
}

/// Sequential execution is mode-independent: the same single-threaded
/// program leaves identical state under GV1 and GV5.
#[test]
fn sequential_runs_agree_across_modes() {
    let run = || {
        let vars: Vec<TVar<i64>> = (0..4).map(|i| TVar::new(i as i64)).collect();
        for step in 0..50i64 {
            atomic(|txn| {
                let i = (step % 4) as usize;
                let j = ((step + 1) % 4) as usize;
                let x = vars[i].read(txn)?;
                let y = vars[j].read(txn)?;
                vars[i].write(txn, y + step)?;
                vars[j].write(txn, x - step)
            });
        }
        vars.iter().map(|v| v.load()).collect::<Vec<i64>>()
    };
    let under_gv1 = with_mode(ClockMode::Gv1, run);
    let under_gv5 = with_mode(ClockMode::Gv5, run);
    assert_eq!(under_gv1, under_gv5);
}

/// A GV5 writer's commit is immediately visible to the next GV5 reader on
/// another thread (the reader's first epoch refresh must observe it): no
/// stale-epoch window survives a begin.
#[test]
fn gv5_commits_are_visible_to_fresh_readers() {
    with_mode(ClockMode::Gv5, || {
        let v = TVar::new(0i64);
        for round in 1..=100i64 {
            let vw = v.clone();
            std::thread::scope(|s| {
                s.spawn(move || atomic(|txn| vw.write(txn, round)));
            });
            let vr = v.clone();
            let seen =
                std::thread::scope(|s| s.spawn(move || atomic(|txn| vr.read(txn))).join().unwrap());
            assert_eq!(seen, round, "reader began after writer committed");
        }
    });
}
