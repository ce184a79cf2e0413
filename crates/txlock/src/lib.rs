//! # txfix-txlock: revocable locks and deadlock detection
//!
//! Reproduction of the **TxLocks** mechanism the paper builds Recipe 3 on
//! (§4.1 "Preemptible resources", §5.1): mutual-exclusion locks that can be
//! acquired *inside* a memory transaction, are held until the transaction
//! commits, and are **released automatically if the transaction aborts**.
//! A global wait-for graph detects deadlock "both among locks and between
//! locks and transactions, and will abort the transaction if deadlock
//! occurs".
//!
//! Two ingredients:
//!
//! - [`TxMutex`]: the lock itself. Non-transactional use gives an ordinary
//!   mutex whose blocked acquisitions *detect* circular waits (returning
//!   [`DeadlockError`] instead of hanging — how the corpus demonstrates
//!   buggy code safely). Transactional use ([`TxMutex::lock_tx`] /
//!   [`TxMutex::with_tx`]) gives the revocable TxLock discipline.
//! - [`LockCondvar`]: a conventional condition variable for
//!   `TxMutex`-protected state, used by buggy code and developer fixes.
//!
//! Neither has a park protocol of its own: a blocked acquisition parks on
//! the lock's `txfix_stm::WaitQueue` until the owner word is cleared, and
//! a `LockCondvar` is a `txfix_stm::EventCount`, so both block on the
//! deterministic scheduler or the OS the way every other waiter does.
//!
//! [`LockOrder`] is the lock-order graph with Recipe 3's exemption (a
//! cycle closed only by revocable acquisitions is not a deadlock);
//! [`lockdep`] fills it live, and the trace and static analyzers fill
//! their own.
//!
//! The common path costs what a plain lock costs: an uncontended acquire,
//! plain or transactional, is one compare-and-swap on the lock's owner
//! word and touches no global state, and a transactional one enlists the
//! lock itself (an `Arc` clone) to be released when the transaction
//! finishes. A transaction joins the wait-for graph's abortable set the
//! first time one of its acquisitions *blocks* (every member of a
//! deadlock cycle is blocked, so none is missed); the Recipe 3 combinator
//! in `txfix-core` calls [`enlist_preemptible`] up front instead, to mark
//! its transaction as the preferred (low-priority) victim.
//!
//! ## Example: a revocable lock inside a transaction
//!
//! ```
//! use std::sync::Arc;
//! use txfix_stm::atomic;
//! use txfix_txlock::TxMutex;
//!
//! let account = Arc::new(TxMutex::new("account", 100i64));
//! let a = account.clone();
//! // Inside a transaction the lock is revocable: if this transaction ever
//! // deadlocked, it would abort, release the lock, back off and re-run.
//! atomic(move |txn| a.with_tx(txn, |balance| *balance -= 30));
//! assert_eq!(*account.lock().unwrap(), 70);
//! ```

#![warn(missing_docs)]

mod condvar;
mod error;
mod graph;
pub mod lockdep;
mod mutex;
mod order;
mod thread_id;

pub use condvar::{LockCondvar, WaitOutcome};
pub use error::DeadlockError;
pub use mutex::{enlist_preemptible, TxMutex, TxMutexGuard};
pub use order::LockOrder;
pub use thread_id::{current as current_thread, ThreadToken};
