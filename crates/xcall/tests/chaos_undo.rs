//! Undo/compensation audit for the x-call layer under injected I/O faults
//! (satellite of the chaos PR): aborted file transactions must leave no
//! pending state behind, compensated pipe reads must restore bytes in
//! order, and commit-time async submissions must stay exactly-once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use txfix_stm::chaos::{self, splitmix64, FaultPlan, InjectionPoint, Trigger};
use txfix_stm::Txn;
use txfix_xcall::{AsyncIo, SimFs, SimPipe, XFile, XPipe};

/// Chaos plans are process-global; serialize tests so one test's triggers
/// are never drawn by another's transactions.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn injected_file_faults_leak_no_pending_state() {
    let _g = gate();
    // Roughly a third of file x-calls fail *after* the op is buffered, so
    // every abort exercises the real undo hook (clear ops, release the
    // isolation lock) against real state.
    let plan = FaultPlan::new(20).with(InjectionPoint::XcallFile, Trigger::PerMille(300));
    let _armed = chaos::scoped(&plan);
    let fs = SimFs::new();
    let xf = XFile::open_or_create(&fs, "undo.log");
    const THREADS: usize = 4;
    const OPS: u64 = 80;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let xf = xf.clone();
            s.spawn(move || {
                txfix_stm::seed_backoff_rng(splitmix64(0xAB ^ t as u64));
                for i in 0..OPS {
                    let rec = format!("<{t:01}{i:06}>");
                    Txn::build()
                        .try_run(|txn| xf.x_append(txn, rec.as_bytes()))
                        .expect("retries absorb injected I/O faults");
                }
            });
        }
    });
    assert_eq!(
        xf.pending_snapshot(),
        Some((0, 0)),
        "pending buffer and owner must be fully undone after quiescence"
    );
    let data = xf.file().read_all();
    assert_eq!(data.len() as u64, THREADS as u64 * OPS * 9, "exactly-once appends");
    for chunk in data.chunks(9) {
        assert_eq!(chunk[0], b'<');
        assert_eq!(chunk[8], b'>', "torn record: {chunk:?}");
    }
    assert!(chaos::injected_total() > 0, "the schedule must actually have fired");
}

#[test]
fn aborted_multi_read_compensates_in_order() {
    let _g = gate();
    chaos::clear();
    let pipe = SimPipe::new(64);
    pipe.write(b"abcdef");
    let xp = XPipe::new(pipe.clone());
    let first = AtomicBool::new(true);
    let (got, _) = Txn::build()
        .try_run(|txn| {
            let a = xp.x_try_read(txn, 2)?.expect("bytes available");
            let b = xp.x_try_read(txn, 2)?.expect("bytes available");
            if first.swap(false, Ordering::SeqCst) {
                // Abort with TWO compensations pending: they must unwind
                // newest-first so the bytes return in original order.
                return txn.restart();
            }
            Ok([a, b].concat())
        })
        .expect("second attempt commits");
    assert_eq!(got, b"abcd", "replayed reads see the same bytes in the same order");
    assert_eq!(pipe.try_read(16).unwrap(), b"ef", "unconsumed tail intact");
}

#[test]
fn injected_pipe_faults_keep_byte_conservation() {
    let _g = gate();
    let plan = FaultPlan::new(21).with(InjectionPoint::XcallPipe, Trigger::PerMille(400));
    let _armed = chaos::scoped(&plan);
    let pipe = SimPipe::new(1024);
    let xp = XPipe::new(pipe.clone());
    const THREADS: usize = 4;
    const OPS: u64 = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let xp = xp.clone();
            s.spawn(move || {
                txfix_stm::seed_backoff_rng(splitmix64(0xCD ^ t as u64));
                for i in 0..OPS {
                    let byte = [(t as u64 * 50 + i) as u8];
                    Txn::build()
                        .try_run(|txn| xp.x_write(txn, &byte))
                        .expect("retries absorb injected pipe faults");
                }
            });
        }
    });
    let drained = pipe.try_read(4096).expect("bytes present");
    assert_eq!(drained.len() as u64, THREADS as u64 * OPS, "each write lands exactly once");
    let sum: u64 = drained.iter().map(|&b| u64::from(b)).sum();
    let expected: u64 = (0..THREADS as u64 * OPS).map(|v| v % 256).sum();
    // Order across threads is arbitrary; the multiset is not.
    assert_eq!(sum, expected, "byte conservation");
}

#[test]
fn injected_async_faults_keep_submissions_exactly_once() {
    let _g = gate();
    let plan = FaultPlan::new(22).with(InjectionPoint::XcallAsync, Trigger::PerMille(400));
    let _armed = chaos::scoped(&plan);
    let aio = AsyncIo::new();
    let completed = std::sync::Arc::new(AtomicU64::new(0));
    const THREADS: usize = 4;
    const OPS: u64 = 60;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let aio = aio.clone();
            let completed = completed.clone();
            s.spawn(move || {
                txfix_stm::seed_backoff_rng(splitmix64(0xEF ^ t as u64));
                for _ in 0..OPS {
                    let done = completed.clone();
                    Txn::build()
                        .try_run(|txn| {
                            let done = done.clone();
                            aio.x_submit(
                                txn,
                                || (),
                                move |()| {
                                    done.fetch_add(1, Ordering::SeqCst);
                                },
                            )
                        })
                        .expect("retries absorb injected submission faults");
                }
            });
        }
    });
    assert!(aio.drain(Duration::from_secs(10)), "queue drains");
    assert_eq!(
        completed.load(Ordering::SeqCst),
        THREADS as u64 * OPS,
        "aborted attempts never enqueue; committed ones enqueue exactly once"
    );
    aio.shutdown();
}
