//! Transactional pipe and socket operations.
//!
//! Writes are *deferred* until commit (nothing to undo); reads are
//! *compensated*: the bytes are consumed immediately so the transaction
//! can act on them, and pushed back into the pipe if the transaction
//! aborts. Irreversible operations go through [`x_inevitable`].

use crate::simos::{OsError, SimPipe};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use txfix_stm::chaos;
use txfix_stm::{StmResult, Txn, TxnKind};

/// A transactional handle to a [`SimPipe`].
#[derive(Clone)]
pub struct XPipe {
    pipe: Arc<SimPipe>,
}

impl fmt::Debug for XPipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XPipe").field("pipe", &self.pipe).finish()
    }
}

impl XPipe {
    /// Wrap a simulated pipe.
    pub fn new(pipe: Arc<SimPipe>) -> XPipe {
        XPipe { pipe }
    }

    /// The underlying pipe (non-transactional access).
    pub fn pipe(&self) -> &Arc<SimPipe> {
        &self.pipe
    }

    /// Defer writing `bytes` until the transaction commits.
    ///
    /// The commit-time write uses the pipe's normal blocking semantics; a
    /// full pipe with a dead reader will stall the committing thread, which
    /// is exactly the class of I/O hazard the paper notes TM cannot mask.
    ///
    /// # Errors
    ///
    /// Never fails at call time (the defer itself is pure); kept fallible
    /// for uniformity with the other x-calls.
    pub fn x_write(&self, txn: &mut Txn, bytes: &[u8]) -> StmResult<()> {
        txfix_stm::obs::note_xcall();
        // Chaos: a synthetic failure *before* the write is deferred aborts
        // the attempt, so the retried transaction defers it exactly once.
        if !txn.is_irrevocable() && chaos::should_inject(chaos::InjectionPoint::XcallPipe) {
            return Err(txfix_stm::Abort::Restart);
        }
        let pipe = self.pipe.clone();
        let bytes = bytes.to_vec();
        txn.on_commit(move || pipe.write(&bytes));
        Ok(())
    }

    /// Read up to `max` bytes immediately, registering a compensation that
    /// pushes them back if the transaction aborts.
    ///
    /// # Errors
    ///
    /// Returns `Ok(Err(OsError))` for OS-level failures (a timeout),
    /// which do not abort the transaction.
    pub fn x_read(
        &self,
        txn: &mut Txn,
        max: usize,
        timeout: Duration,
    ) -> StmResult<Result<Vec<u8>, OsError>> {
        txfix_stm::obs::note_xcall();
        // Chaos: an OS-level timeout, exactly as the pipe itself would
        // surface one — the transaction keeps running and the caller deals
        // with the error.
        if chaos::should_inject(chaos::InjectionPoint::XcallPipe) {
            return Ok(Err(OsError::TimedOut));
        }
        match self.pipe.read(max, timeout) {
            Ok(bytes) => {
                if !bytes.is_empty() {
                    let pipe = self.pipe.clone();
                    let undo = bytes.clone();
                    // Canary: the compensation is registered twice, so an
                    // abort pushes the consumed bytes back *twice* — the
                    // stream re-delivers data that was only read once.
                    #[cfg(feature = "canary-xcall")]
                    if txfix_stm::canary::fire(txfix_stm::canary::Canary::XcallDoubleCompensate) {
                        let pipe2 = pipe.clone();
                        let undo2 = undo.clone();
                        txn.on_abort(move || pipe2.unread(&undo2));
                    }
                    txn.on_abort(move || pipe.unread(&undo));
                }
                Ok(Ok(bytes))
            }
            Err(e) => Ok(Err(e)),
        }
    }

    /// Non-blocking compensated read.
    pub fn x_try_read(&self, txn: &mut Txn, max: usize) -> StmResult<Option<Vec<u8>>> {
        txfix_stm::obs::note_xcall();
        // Chaos: spurious "would block".
        if chaos::should_inject(chaos::InjectionPoint::XcallPipe) {
            return Ok(None);
        }
        match self.pipe.try_read(max) {
            Some(bytes) => {
                let pipe = self.pipe.clone();
                let undo = bytes.clone();
                // Canary: as in `x_read` — duplicate compensation.
                #[cfg(feature = "canary-xcall")]
                if txfix_stm::canary::fire(txfix_stm::canary::Canary::XcallDoubleCompensate) {
                    let pipe2 = pipe.clone();
                    let undo2 = undo.clone();
                    txn.on_abort(move || pipe2.unread(&undo2));
                }
                txn.on_abort(move || pipe.unread(&undo));
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }
}

/// Run an *irreversible* operation (the paper's `ioctl` class: ambiguous
/// semantics or two-way communication with a non-transactional service).
///
/// xCalls "reverts to inevitable transactions" for these: the transaction
/// becomes irrevocable first, so the side effect executes exactly once.
/// Requires a [`TxnKind::Relaxed`] transaction.
///
/// # Errors
///
/// Propagates the conflict from becoming irrevocable.
///
/// # Panics
///
/// Panics inside a [`TxnKind::Atomic`] transaction (unsafe operations are
/// not allowed there).
pub fn x_inevitable<T>(txn: &mut Txn, f: impl FnOnce() -> T) -> StmResult<T> {
    txfix_stm::obs::note_xcall();
    assert_eq!(txn.kind(), TxnKind::Relaxed, "inevitable x-calls require a relaxed transaction");
    txn.unsafe_op(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simos::SimPipe;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use txfix_stm::{atomic, atomic_relaxed};

    #[test]
    fn write_is_deferred() {
        let p = SimPipe::new(64);
        let xp = XPipe::new(p.clone());
        atomic(|txn| {
            xp.x_write(txn, b"msg")?;
            assert_eq!(p.buffered(), 0, "write leaked before commit");
            Ok(())
        });
        assert_eq!(p.buffered(), 3);
    }

    #[test]
    fn aborted_write_never_happens() {
        let p = SimPipe::new(64);
        let xp = XPipe::new(p.clone());
        let first = AtomicBool::new(true);
        atomic(|txn| {
            xp.x_write(txn, b"once")?;
            if first.swap(false, Ordering::SeqCst) {
                return txn.restart();
            }
            Ok(())
        });
        assert_eq!(p.buffered(), 4, "exactly one commit's write expected");
    }

    #[test]
    fn aborted_read_is_compensated() {
        let p = SimPipe::new(64);
        p.write(b"abcd");
        let xp = XPipe::new(p.clone());
        let first = AtomicBool::new(true);
        let got = atomic(|txn| {
            let bytes = xp.x_try_read(txn, 2)?.expect("data available");
            if first.swap(false, Ordering::SeqCst) {
                // Abort: the consumed bytes must return to the pipe.
                return txn.restart();
            }
            Ok(bytes)
        });
        assert_eq!(got, b"ab", "re-read after compensation must see same bytes");
        assert_eq!(p.buffered(), 2);
    }

    #[test]
    fn inevitable_runs_exactly_once_despite_conflicts() {
        let count = AtomicU32::new(0);
        atomic_relaxed(|txn| {
            x_inevitable(txn, || {
                count.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "relaxed transaction")]
    fn inevitable_rejects_atomic_kind() {
        atomic(|txn| x_inevitable(txn, || ()));
    }
}
