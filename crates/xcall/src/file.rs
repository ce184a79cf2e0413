//! Transactional file handles: deferred writes with per-transaction
//! isolation.
//!
//! `x_append`/`x_sync` buffer their effect and apply it when the
//! transaction commits. A revocable [`TxMutex`] per file provides
//! isolation between transactions touching the same file until commit,
//! mirroring xCalls' logical file locks.
//!
//! The file copies a deferred write's borrowed bytes into one buffer it
//! reuses, and its pending ops are one deferred [`TxResource`], so a
//! commit allocates nothing of the file's own once its buffers have grown.

use crate::crashpoint;
use crate::simos::SimFile;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use txfix_stm::chaos;
use txfix_stm::{Abort, StmResult, TxResource, Txn};
use txfix_txlock::TxMutex;

/// One deferred file operation. [`XFile::x_queue`] takes it with its bytes
/// borrowed (`B = &[u8]`); the file buffers it with `B` the range of its
/// bytes in the pending buffer, until its transaction commits.
#[derive(Clone, Debug)]
pub enum XOp<B> {
    /// What [`XFile::x_append`] defers.
    Append(B),
    /// Deferred `fsync` ([`XFile::x_sync`]): promote the cache to the
    /// durable image when the preceding deferred writes have been applied.
    Sync,
    /// A named crash point evaluated at the matching place in the
    /// commit-time apply sequence — how the WAL plants protocol-level
    /// labels like `wal_after_commit_write` between its deferred writes.
    /// Instrumentation only: not counted as an x-call, never faulted by
    /// chaos, free when no crash session is armed.
    CrashPoint(&'static str),
}

impl<B> XOp<B> {
    /// The same op with its payload mapped by `f`.
    fn map<C>(self, f: impl FnOnce(B) -> C) -> XOp<C> {
        match self {
            XOp::Append(b) => XOp::Append(f(b)),
            XOp::Sync => XOp::Sync,
            XOp::CrashPoint(label) => XOp::CrashPoint(label),
        }
    }
}

struct XFileInner {
    file: Arc<SimFile>,
    /// Isolation lock: held (revocably) by the transaction touching the
    /// file, until that transaction finishes.
    lock: TxMutex<PendingState>,
}

#[derive(Default)]
struct PendingState {
    /// Serial of the transaction whose deferred ops are buffered.
    owner: u64,
    ops: Vec<XOp<Range<usize>>>,
    /// Every buffered op's bytes, back to back. Commit and abort clear it
    /// and keep its capacity.
    bytes: Vec<u8>,
}

impl PendingState {
    /// The buffered ops with their bytes.
    fn ops(&self) -> impl Iterator<Item = XOp<&[u8]>> {
        self.ops.iter().map(|op| op.clone().map(|r| &self.bytes[r]))
    }

    fn clear(&mut self) {
        self.ops.clear();
        self.bytes.clear();
        self.owner = 0;
    }
}

/// A transactional handle to a [`SimFile`].
///
/// Clones share the same pending state and isolation lock.
///
/// # Examples
///
/// ```
/// use txfix_stm::atomic;
/// use txfix_xcall::{SimFs, XFile};
///
/// let fs = SimFs::new();
/// let log = XFile::open_or_create(&fs, "app.log");
/// let log2 = log.clone();
/// atomic(move |txn| log2.x_append(txn, b"committed\n"));
/// assert_eq!(log.file().read_all(), b"committed\n");
/// ```
#[derive(Clone)]
pub struct XFile {
    inner: Arc<XFileInner>,
}

impl fmt::Debug for XFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XFile").field("file", &self.inner.file).finish()
    }
}

impl XFile {
    /// Wrap an already-open simulated file.
    pub fn new(file: Arc<SimFile>) -> XFile {
        let lock_name = format!("xfile:{}", file.name());
        XFile {
            inner: Arc::new(XFileInner {
                file,
                lock: TxMutex::new(&lock_name, PendingState::default()),
            }),
        }
    }

    /// Open `path` in `fs`, creating it if needed, as a transactional file.
    pub fn open_or_create(fs: &crate::simos::SimFs, path: &str) -> XFile {
        XFile::new(fs.open_or_create(path))
    }

    /// The underlying simulated file (non-transactional access).
    pub fn file(&self) -> &Arc<SimFile> {
        &self.inner.file
    }

    fn enter(&self, txn: &mut Txn) -> StmResult<()> {
        let serial = txn.serial();
        let newly_owned = self.inner.lock.with_tx(txn, |st| {
            let newly_owned = st.owner != serial;
            if newly_owned {
                debug_assert!(st.ops.is_empty(), "pending ops leaked from a previous txn");
                st.clear();
                st.owner = serial;
            }
            newly_owned
        })?;
        if newly_owned {
            txn.defer(self.inner.clone());
        }
        Ok(())
    }

    /// Defer `ops`, in order, until the transaction commits; the single-op
    /// calls below are this with one element. A multi-step protocol (the
    /// WAL's) queued in one call enters the isolation lock once, yet every
    /// step still counts, and can be faulted, as its own x-call.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts/preemption as [`Abort`](txfix_stm::Abort).
    pub fn x_queue<'a>(
        &self,
        txn: &mut Txn,
        ops: impl IntoIterator<Item = XOp<&'a [u8]>>,
    ) -> StmResult<()> {
        let mut entered = false;
        for op in ops {
            // A crash point is instrumentation only: not counted as an
            // x-call, never faulted by chaos.
            let is_xcall = !matches!(op, XOp::CrashPoint(_));
            if is_xcall {
                txfix_stm::obs::note_xcall();
            }
            if !entered {
                self.enter(txn)?;
                entered = true;
            }
            self.inner.lock.with_held(|st| {
                let op = op.map(|bytes| {
                    let start = st.bytes.len();
                    st.bytes.extend_from_slice(bytes);
                    start..st.bytes.len()
                });
                st.ops.push(op);
            });
            // Chaos: the op is already buffered, so this abort makes the
            // undo clear real state (and release the isolation lock).
            if is_xcall {
                self.inject_io_fault(txn)?;
            }
        }
        Ok(())
    }

    /// Defer an append until the transaction commits.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts/preemption as [`Abort`](txfix_stm::Abort).
    pub fn x_append(&self, txn: &mut Txn, bytes: &[u8]) -> StmResult<()> {
        self.x_queue(txn, [XOp::Append(bytes)])
    }

    /// Defer an `fsync` until the transaction commits: once the deferred
    /// writes queued before it have been applied, the page cache is
    /// promoted to the durable image. Ordering within the transaction is
    /// preserved, so `append; sync; append` leaves the second append
    /// cached but not durable — exactly the handle a write-ahead log's
    /// commit protocol needs.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts/preemption as [`Abort`](txfix_stm::Abort).
    pub fn x_sync(&self, txn: &mut Txn) -> StmResult<()> {
        self.x_queue(txn, [XOp::Sync])
    }

    /// Chaos hook shared by the file x-calls: a synthetic I/O failure that
    /// aborts the transaction, driving the undo and the isolation-lock
    /// release. Irrevocable transactions are exempt (they cannot abort).
    fn inject_io_fault(&self, txn: &Txn) -> StmResult<()> {
        if !txn.is_irrevocable() && chaos::should_inject(chaos::InjectionPoint::XcallFile) {
            return Err(Abort::Restart);
        }
        Ok(())
    }

    /// Non-transactional diagnostic peek at the pending buffer: `(owner
    /// serial, buffered op count)`, or `None` while a transaction holds the
    /// isolation lock. After every transaction on the file has finished, a
    /// correct undo path leaves `(0, 0)` — the leak-regression tests assert
    /// exactly that.
    pub fn pending_snapshot(&self) -> Option<(u64, usize)> {
        let guard = self.inner.lock.try_lock()?;
        Some((guard.owner, guard.ops.len()))
    }
}

/// The file's deferred ops finish with the transaction that queued them,
/// on its thread, which still holds the isolation lock: deferred resources
/// finish before enlisted locks are released.
impl TxResource for XFileInner {
    /// Apply the ops in order.
    fn commit(&self, _serial: u64) {
        self.lock.with_held(|st| {
            for op in st.ops() {
                crashpoint::crash_point("xfile_apply");
                match op {
                    XOp::Append(bytes) => self.file.append(bytes),
                    XOp::Sync => {
                        // Canary: the fsync reports success without
                        // flushing — acknowledged commits silently lose
                        // durability, visible only across a crash.
                        #[cfg(feature = "canary-xcall")]
                        if txfix_stm::canary::fire(txfix_stm::canary::Canary::WalSkipFsync) {
                            continue;
                        }
                        self.file.sync_all();
                    }
                    XOp::CrashPoint(label) => crashpoint::crash_point(label),
                }
            }
            st.clear();
        });
    }

    /// Drop the ops unapplied.
    fn abort(&self, _serial: u64) {
        // Canary: the undo never runs — the deferred ops and the ownership
        // stamp of the aborted transaction survive, exactly the "forgot the
        // compensation" bug x-calls exist to prevent. A later transaction
        // entering the file will apply another transaction's buffered
        // writes.
        #[cfg(feature = "canary-xcall")]
        if txfix_stm::canary::fire(txfix_stm::canary::Canary::XcallSkipUndo) {
            return;
        }
        crashpoint::crash_point("xfile_undo");
        self.lock.with_held(PendingState::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simos::SimFs;
    use std::sync::atomic::{AtomicBool, Ordering};
    use txfix_stm::atomic;

    #[test]
    fn append_is_deferred_to_commit() {
        let fs = SimFs::new();
        let xf = XFile::open_or_create(&fs, "log");
        let raw = xf.file().clone();
        let xf2 = xf.clone();
        atomic(move |txn| {
            xf2.x_append(txn, b"line\n")?;
            // Not yet in the file: the write is pending.
            assert!(raw.is_empty());
            Ok(())
        });
        assert_eq!(xf.file().read_all(), b"line\n");
    }

    #[test]
    fn aborted_transaction_leaves_no_trace() {
        let fs = SimFs::new();
        let xf = XFile::open_or_create(&fs, "log");
        let first = AtomicBool::new(true);
        let xf2 = xf.clone();
        atomic(move |txn| {
            xf2.x_append(txn, b"maybe\n")?;
            if first.swap(false, Ordering::SeqCst) {
                return txn.restart();
            }
            Ok(())
        });
        // Only the committed (second) attempt's append is visible.
        assert_eq!(xf.file().read_all(), b"maybe\n");
    }

    #[test]
    fn x_sync_applies_in_deferred_order() {
        let fs = SimFs::new();
        let xf = XFile::open_or_create(&fs, "wal");
        let xf2 = xf.clone();
        atomic(move |txn| {
            xf2.x_append(txn, b"durable")?;
            xf2.x_sync(txn)?;
            xf2.x_append(txn, b" cached-only")
        });
        assert_eq!(xf.file().read_all(), b"durable cached-only");
        assert_eq!(
            xf.file().durable_snapshot(),
            b"durable",
            "the fsync must land between the two appends, not after both"
        );
    }

    #[test]
    fn concurrent_transactional_appends_interleave_atomically() {
        let fs = SimFs::new();
        let xf = XFile::open_or_create(&fs, "log");
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let xf = xf.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let rec = [b'<', b'0' + t, b'>'];
                        let xf2 = xf.clone();
                        atomic(move |txn| {
                            // Two separate x-calls that must land adjacently.
                            xf2.x_append(txn, &rec[..1])?;
                            xf2.x_append(txn, &rec[1..])
                        });
                    }
                });
            }
        });
        let data = xf.file().read_all();
        assert_eq!(data.len(), 4 * 50 * 3);
        for chunk in data.chunks(3) {
            assert_eq!(chunk[0], b'<');
            assert_eq!(chunk[2], b'>', "records interleaved: {chunk:?}");
        }
    }
}
