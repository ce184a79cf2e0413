//! Transactional condition variables (commit-before-wait).
//!
//! Five of the paper's Mozilla fixes required "support for condition
//! variables in transactions [17]" (Table 3). The semantics implemented
//! here follow that line of work: `wait` **commits** the transaction's
//! effects so far (so other threads can observe the state that justifies a
//! later signal), blocks, and re-executes the atomic block from the top
//! when signalled. Signals issued inside a transaction are deferred to its
//! commit, preserving isolation.

use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use txfix_stm::{sched, trace};
use txfix_stm::{StmResult, Txn, WaitPoint};

/// Upper bound on one blocking interval; waits re-check afterwards, which
/// turns a lost-wakeup programming error into a spin instead of a hang.
const WAIT_SLICE: Duration = Duration::from_millis(100);

/// A condition variable for transactional code.
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
    generation: Mutex<u64>,
    cv: Condvar,
    trace_id: u64,
}

impl Default for TxCondvar {
    fn default() -> Self {
        TxCondvar::new()
    }
}

impl fmt::Debug for TxCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxCondvar").field("generation", &*self.generation.lock()).finish()
    }
}

impl TxCondvar {
    /// Create a condition variable.
    pub fn new() -> TxCondvar {
        TxCondvar {
            generation: Mutex::new(0),
            cv: Condvar::new(),
            trace_id: trace::next_object_id(),
        }
    }

    /// Commit the transaction's work so far, block until notified, and
    /// re-execute the atomic block. Composes with `?`:
    /// `return cv.wait(txn);`.
    ///
    /// # Errors
    ///
    /// Always returns `Err` (the commit-and-wait control-flow signal); the
    /// runtime consumes it.
    pub fn wait<T>(self: &Arc<Self>, txn: &mut Txn) -> StmResult<T> {
        trace::emit(trace::EventKind::CvWait { cv: self.trace_id, name: String::new() });
        txn.wait_on(self.clone() as Arc<dyn WaitPoint>)
    }

    /// Wake all waiters immediately (non-transactional callers).
    pub fn notify_all(&self) {
        sched::yield_point(sched::SyncOp::CvNotify(self.trace_id));
        trace::emit(trace::EventKind::CvNotify { cv: self.trace_id, name: String::new() });
        let mut g = self.generation.lock();
        *g += 1;
        drop(g);
        self.cv.notify_all();
        sched::signal(self.trace_id);
    }

    /// Defer a [`notify_all`](TxCondvar::notify_all) until `txn` commits,
    /// so waiters only observe signals justified by committed state.
    pub fn notify_all_at_commit(self: &Arc<Self>, txn: &mut Txn) {
        let this = self.clone();
        txn.on_commit(move || this.notify_all());
    }

    /// Wake one waiter immediately.
    ///
    /// Waiters re-check their predicate after re-execution, so waking
    /// "one" is purely a throughput hint; it can never cause a missed
    /// update (the generation still advances for everyone).
    pub fn notify_one(&self) {
        sched::yield_point(sched::SyncOp::CvNotify(self.trace_id));
        trace::emit(trace::EventKind::CvNotify { cv: self.trace_id, name: String::new() });
        let mut g = self.generation.lock();
        *g += 1;
        drop(g);
        self.cv.notify_one();
        sched::signal(self.trace_id);
    }
}

impl WaitPoint for TxCondvar {
    fn prepare(&self) -> u64 {
        *self.generation.lock()
    }

    fn wait(&self, ticket: u64) {
        if sched::is_controlled() {
            // Park on the scheduler instead of the OS condvar. Only one
            // controlled thread runs at a time, so no notify can slip in
            // between the generation check and the park; a notify that
            // happens while nobody is parked is *observably lost* here if
            // it raced ahead of `prepare` — exactly the lost-wakeup
            // behaviour the explorer must be able to reach.
            loop {
                if *self.generation.lock() > ticket {
                    return;
                }
                sched::block_on(self.trace_id, sched::SyncOp::CvWait(self.trace_id));
            }
        }
        let mut g = self.generation.lock();
        if *g > ticket {
            return;
        }
        // One bounded wait; the atomic block re-checks its predicate after
        // re-execution, so a timeout is safe (spurious wakeup).
        let _ = self.cv.wait_for(&mut g, WAIT_SLICE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    fn signal_before_prepare_is_not_lost() {
        // prepare() then a signal then wait(ticket) must not block.
        let cv = TxCondvar::new();
        let t = cv.prepare();
        cv.notify_all();
        let start = std::time::Instant::now();
        WaitPoint::wait(&cv, t);
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn notify_one_wakes_a_waiter() {
        let flag = TVar::new(false);
        let cv = Arc::new(TxCondvar::new());
        let woke = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let (f, c, w) = (flag.clone(), cv.clone(), woke.clone());
            s.spawn(move || {
                atomic(|txn| {
                    if !f.read(txn)? {
                        return c.wait(txn);
                    }
                    Ok(())
                });
                w.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            atomic(|txn| flag.write(txn, true));
            cv.notify_one();
        });
        assert!(woke.load(Ordering::SeqCst));
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
