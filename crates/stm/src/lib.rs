//! # txfix-stm: a software transactional memory runtime
//!
//! This crate reproduces the TM substrate of *Applying Transactional Memory
//! to Concurrency Bugs* (Volos, Tack, Swift, Lu — ASPLOS 2012): a word-based
//! software transactional memory in the style of TL2 / Intel's STM runtime,
//! providing the `atomic { ... }` construct the paper's four fix recipes are
//! built on.
//!
//! ## Features
//!
//! - **Atomic regions**: [`atomic`] executes a closure as a memory
//!   transaction over [`TVar`]s, with commit-time validation against a
//!   global version clock and automatic re-execution on conflict.
//! - **Atomic vs. relaxed transactions** (paper §5.1): [`atomic_relaxed`]
//!   transactions may contain unsafe operations through
//!   [`Txn::unsafe_op`], which makes them irrevocable (the runtime falls
//!   back to a global lock, like Intel's STM).
//! - **Explicit rollback**: [`Txn::restart`] reproduces the paper's `abort`
//!   statement; [`Txn::retry`] aborts and blocks until a variable in the
//!   read set changes.
//! - **Commit-before-wait**: [`Txn::wait_on`] commits the work done so far
//!   and blocks until an [`EventCount`] is notified (the hook used by
//!   transactional condition variables in `txfix-tmsync`).
//! - **One way to block**: [`WaitQueue`] is the only code that parks a
//!   thread, on the deterministic scheduler ([`sched`]) or on the OS; a blocked
//!   `TxMutex` acquisition (`txfix-txlock`) uses it directly, and the
//!   retry notifier and both condition variables are [`EventCount`]s.
//! - **External resources**: revocable locks enlist in a transaction
//!   ([`Txn::enlist`]); transactional I/O finishes before them, through
//!   [`Txn::on_commit`], [`Txn::on_abort`] or [`Txn::defer`]; deadlock
//!   detectors can preempt a transaction through its [`KillHandle`].
//! - **Hardware TM model**: [`TxnBuilder::capacity`] starts a transaction
//!   on [`EscalationRung::Hardware`], bounded read/write sets; with an
//!   [`EscalationPolicy`] an overflow falls back to software (the paper's
//!   §5.4.1 hybrid).
//! - **One entry-point family**: every transaction goes through
//!   [`Txn::build`] (or the [`atomic`] / [`atomic_relaxed`] convenience
//!   wrappers over it).
//! - **Per-site metrics**: [`TxnBuilder::site`] labels transactions for
//!   the [`obs`] observability layer (commit/abort/latency attribution
//!   behind `txfix stress`).
//!
//! There is no instrumentation-cost model: the runtime's own read-set
//! validation already costs a short critical section the 3–5× of the
//! paper's §3.2 over a lock, and `tests/artifacts.rs` holds the committed
//! `BENCH_stm.json` to that floor.
//!
//! ## Example
//!
//! ```
//! use txfix_stm::{atomic, TVar};
//!
//! let checking = TVar::new(100i64);
//! let savings = TVar::new(0i64);
//!
//! // Move 40 between accounts; no interleaving ever observes money
//! // created or destroyed.
//! atomic(|txn| {
//!     let c = checking.read(txn)?;
//!     let s = savings.read(txn)?;
//!     checking.write(txn, c - 40)?;
//!     savings.write(txn, s + 40)
//! });
//!
//! assert_eq!(checking.load() + savings.load(), 100);
//! ```

#![warn(missing_docs)]

#[cfg(feature = "canary")]
pub mod canary;
pub mod chaos;
mod clock;
mod contention;
mod error;
pub mod hooks;
pub mod obs;
mod orec;
pub mod reclaim;
mod runtime;
pub mod sched;
mod serial;
pub mod trace;
mod tvar;
mod txn;
mod wait;

pub use contention::seed_backoff_rng;
pub use error::{Abort, CapacityKind, ConflictKind, StmResult, TxnError};
pub use obs::SiteId;
pub use runtime::{
    atomic, atomic_relaxed, EscalationPolicy, EscalationRung, TxnBuilder, TxnReport,
};
pub use tvar::{TVar, VarId};
pub use txn::{KillHandle, TxResource, Txn, TxnKind};
pub use wait::{EventCount, WaitQueue};
