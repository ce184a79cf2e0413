//! Transactional condition variables (commit-before-wait).
//!
//! Five of the paper's Mozilla fixes required "support for condition
//! variables in transactions [17]" (Table 3). The semantics implemented
//! here follow that line of work: `wait` **commits** the transaction's
//! effects so far (so other threads can observe the state that justifies a
//! later signal), blocks, and re-executes the atomic block from the top
//! when signalled. Signals issued inside a transaction are deferred to its
//! commit, preserving isolation.

use std::fmt;
use std::sync::Arc;
use txfix_stm::{sched, trace};
use txfix_stm::{EventCount, StmResult, Txn};

/// A condition variable for transactional code: an [`EventCount`] a
/// transaction commits-and-waits on through [`Txn::wait_on`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use txfix_stm::{atomic, TVar};
/// use txfix_tmsync::TxCondvar;
///
/// let ready = TVar::new(false);
/// let cv = Arc::new(TxCondvar::new());
///
/// std::thread::scope(|s| {
///     let (ready2, cv2) = (ready.clone(), cv.clone());
///     s.spawn(move || {
///         atomic(|txn| {
///             if !ready2.read(txn)? {
///                 return cv2.wait(txn); // commit-before-wait
///             }
///             Ok(())
///         });
///     });
///     let (ready3, cv3) = (ready.clone(), cv.clone());
///     s.spawn(move || {
///         atomic(|txn| {
///             ready3.write(txn, true)?;
///             cv3.notify_all_at_commit(txn);
///             Ok(())
///         });
///     });
/// });
/// ```
pub struct TxCondvar {
    events: Arc<EventCount>,
    trace_id: u64,
}

impl Default for TxCondvar {
    fn default() -> Self {
        TxCondvar::new()
    }
}

impl fmt::Debug for TxCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxCondvar").field("epoch", &self.events.epoch()).finish()
    }
}

impl TxCondvar {
    /// Create a condition variable.
    pub fn new() -> TxCondvar {
        let trace_id = trace::next_object_id();
        TxCondvar { events: Arc::new(EventCount::new(sched::SyncOp::CvWait(trace_id))), trace_id }
    }

    /// Commit the transaction's work so far, block until notified, and
    /// re-execute the atomic block. Composes with `?`:
    /// `return cv.wait(txn);`.
    ///
    /// The runtime samples the epoch just before the commit; a notify that
    /// races ahead of that sample is lost, and under the scheduler that is
    /// observable: it is the lost-wakeup behaviour the explorer must be
    /// able to reach. On OS threads one wait lasts at
    /// most the runtime's commit-before-wait slice, and the re-executed
    /// block re-checks its predicate.
    ///
    /// # Errors
    ///
    /// Always returns `Err` (the commit-and-wait control-flow signal); the
    /// runtime consumes it.
    pub fn wait<T>(&self, txn: &mut Txn) -> StmResult<T> {
        trace::emit(trace::EventKind::CvWait { cv: self.trace_id, name: String::new() });
        txn.wait_on(self.events.clone())
    }

    /// Wake all waiters immediately (non-transactional callers).
    pub fn notify_all(&self) {
        sched::yield_point(sched::SyncOp::CvNotify(self.trace_id));
        trace::emit(trace::EventKind::CvNotify { cv: self.trace_id, name: String::new() });
        self.events.notify();
    }

    /// Defer a [`notify_all`](TxCondvar::notify_all) until `txn` commits,
    /// so waiters only observe signals justified by committed state.
    pub fn notify_all_at_commit(self: &Arc<Self>, txn: &mut Txn) {
        let this = self.clone();
        txn.on_commit(move || this.notify_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;
    use txfix_stm::{atomic, TVar};

    #[test]
    fn wait_commits_prior_writes() {
        let state = TVar::new(0u32);
        let cv = Arc::new(TxCondvar::new());
        let passed_wait = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            let (state2, cv2, pw) = (state.clone(), cv.clone(), passed_wait.clone());
            s.spawn(move || {
                atomic(|txn| {
                    let v = state2.read(txn)?;
                    if v == 0 {
                        state2.write(txn, 1)?; // must be visible to the signaler
                        return cv2.wait(txn);
                    }
                    Ok(())
                });
                pw.store(true, Ordering::SeqCst);
            });

            // Wait until the pre-wait write committed.
            for _ in 0..2000 {
                if state.load() == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(state.load(), 1, "wait did not commit prior writes");

            state.store(2);
            cv.notify_all();
        });
        assert!(passed_wait.load(Ordering::SeqCst));
        assert_eq!(state.load(), 2);
    }

    #[test]
    fn producer_consumer_via_tx_condvar() {
        let queue: TVar<Vec<u32>> = TVar::new(Vec::new());
        let cv = Arc::new(TxCondvar::new());
        let consumed = Arc::new(AtomicU64::new(0));
        const ITEMS: u32 = 50;

        std::thread::scope(|s| {
            let (q, cvp) = (queue.clone(), cv.clone());
            s.spawn(move || {
                for i in 0..ITEMS {
                    atomic(|txn| {
                        let mut v = q.read(txn)?;
                        v.push(i);
                        q.write(txn, v)?;
                        cvp.notify_all_at_commit(txn);
                        Ok(())
                    });
                }
            });
            let (q, cvc, consumed) = (queue.clone(), cv.clone(), consumed.clone());
            s.spawn(move || {
                let mut got = 0u64;
                while got < ITEMS as u64 {
                    let batch = atomic(|txn| {
                        let v = q.read(txn)?;
                        if v.is_empty() {
                            return cvc.wait(txn);
                        }
                        q.write(txn, Vec::new())?;
                        Ok(v.len() as u64)
                    });
                    got += batch;
                }
                consumed.store(got, Ordering::SeqCst);
            });
        });
        assert_eq!(consumed.load(Ordering::SeqCst), ITEMS as u64);
    }
}
