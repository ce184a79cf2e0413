//! An `XFile` keeps one pending byte buffer across transactions: what an
//! aborted transaction queued must not reach a later commit, and one
//! transaction's ops on two files must each land in their own file.

use std::sync::atomic::{AtomicBool, Ordering};
use txfix_stm::atomic;
use txfix_xcall::{SimFs, XFile};

#[test]
fn an_aborted_transactions_bytes_never_reach_the_next_commit() {
    let fs = SimFs::new();
    let xf = XFile::open_or_create(&fs, "log");
    let first = AtomicBool::new(true);
    atomic(|txn| {
        if first.swap(false, Ordering::SeqCst) {
            xf.x_append(txn, b"aborted-one ")?;
            xf.x_write_at(txn, 0, b"aborted-two")?;
            return txn.restart();
        }
        xf.x_append(txn, b"kept")
    });
    assert_eq!(xf.file().read_all(), b"kept");
    assert_eq!(xf.pending_snapshot(), Some((0, 0)));
    // The next transaction on the file starts from an empty buffer too.
    atomic(|txn| xf.x_append(txn, b";next"));
    assert_eq!(xf.file().read_all(), b"kept;next");
    assert_eq!(xf.pending_snapshot(), Some((0, 0)));
}

#[test]
fn one_transaction_applies_each_files_bytes_to_its_own_file() {
    let fs = SimFs::new();
    let (a, b) = (XFile::open_or_create(&fs, "a"), XFile::open_or_create(&fs, "b"));
    atomic(|txn| {
        a.x_append(txn, b"a1 ")?;
        b.x_append(txn, b"b1 ")?;
        a.x_sync(txn)?;
        b.x_write_at(txn, 0, b"B")?;
        a.x_append(txn, b"a2")?;
        assert_eq!(b.x_read_all(txn)?, b"B1 ");
        assert_eq!(a.x_read_all(txn)?, b"a1 a2");
        b.x_append(txn, b"b2")
    });
    assert_eq!(a.file().read_all(), b"a1 a2");
    assert_eq!(a.file().durable_snapshot(), b"a1 ");
    assert_eq!(b.file().read_all(), b"B1 b2");
    assert_eq!(b.file().durable_snapshot(), b"");
    assert_eq!((a.pending_snapshot(), b.pending_snapshot()), (Some((0, 0)), Some((0, 0))));
}
