//! Regression tests for the crash boundary: compensations and pending
//! undo state queued at crash time must not replay into the post-crash
//! image. Before the freeze model, an abort racing a crash would push
//! consumed pipe bytes back (`SimPipe::unread`) and re-apply undo
//! effects *after* the crash instant — state no real dead process could
//! have produced.
//!
//! The crash-point registry is process-global; each test holds the arming
//! guard (`hooks::arm(0)`) from setup on, so no other test's crash freezes
//! its world.

use txfix_stm::{hooks, Txn, TxnError};
use txfix_xcall::{crashpoint, SimFs, SimPipe, XFile, XPipe};

#[test]
fn pipe_unread_compensation_does_not_replay_into_the_crash_image() {
    let _g = hooks::arm(0);
    let pipe = SimPipe::new(16);
    pipe.write(b"abcd");
    let xp = XPipe::new(pipe.clone());
    let session = crashpoint::arm("crash_freeze_test", 1);
    let res = Txn::build().try_run(|txn| {
        let got = xp.x_try_read(txn, 2)?;
        assert_eq!(got.as_deref(), Some(b"ab".as_slice()));
        // The crash lands after the consuming read, before the abort.
        crashpoint::crash_point("crash_freeze_test");
        txn.cancel::<()>()
    });
    assert!(matches!(res, Err(TxnError::Cancelled)));
    assert!(crashpoint::is_frozen(), "the armed point must have fired");
    // The abort ran its compensation, but the world was already frozen:
    // the two consumed bytes stay consumed. Without the freeze, the
    // unread would resurrect them — 4 buffered instead of 2.
    assert_eq!(pipe.buffered(), 2, "compensation must not leak across the crash boundary");
    // And the crash itself wipes the (volatile) pipe buffer entirely.
    pipe.crash();
    assert_eq!(pipe.buffered(), 0);
    drop(session);
}

#[test]
fn commit_interrupted_by_a_crash_applies_no_op_after_the_freeze() {
    let _g = hooks::arm(0);
    let fs = SimFs::new();
    let xf = XFile::open_or_create(&fs, "f");
    // Fire at the second simos-level append: the first deferred op lands,
    // the second freezes the world at its crash point, the third is dead.
    let session = crashpoint::arm("simos_file_append", 2);
    let xf2 = xf.clone();
    txfix_stm::atomic(move |txn| {
        xf2.x_append(txn, b"one ")?;
        xf2.x_append(txn, b"two ")?;
        xf2.x_append(txn, b"three")
    });
    assert_eq!(xf.file().read_all(), b"one ", "nothing after the crash instant may land");
    // In-memory bookkeeping is not durable state: the pending buffer and
    // ownership stamp are still released (no leak into the next txn).
    assert_eq!(xf.file().durable_snapshot(), b"", "nothing was ever synced");
    drop(session);
    assert_eq!(xf.pending_snapshot(), Some((0, 0)));
}

#[test]
fn aborted_truncate_compensation_is_frozen_too() {
    let _g = hooks::arm(0);
    let fs = SimFs::new();
    let f = fs.open_or_create("t");
    f.append(b"keep-me!");
    f.sync_all();
    let session = crashpoint::arm("crash_freeze_test", 1);
    crashpoint::crash_point("crash_freeze_test");
    assert!(crashpoint::is_frozen());
    // A compensating truncate issued after the crash instant is dead.
    f.truncate(0);
    assert_eq!(f.read_all(), b"keep-me!");
    fs.crash(3);
    assert_eq!(f.read_all(), b"keep-me!", "the synced image survives any seed");
    drop(session);
}

#[test]
fn ranged_reads_are_still_served_while_frozen() {
    let _g = hooks::arm(0);
    let fs = SimFs::new();
    let f = fs.open_or_create("r");
    f.append(b"before");
    let session = crashpoint::arm("simos_file_append", 1);
    f.append(b" after"); // the crash instant: dropped, world frozen
    assert!(crashpoint::is_frozen());
    // Reads are not mutations: recovery-side code that runs before the
    // thaw (and the dead workload itself) still sees the cache as it was.
    let mut buf = [0u8; 16];
    let n = f.read_at(0, &mut buf);
    assert_eq!(&buf[..n], b"before");
    drop(session);
}
