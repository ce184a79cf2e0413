//! Abort reasons and result types used throughout the STM runtime.

use crate::wait::EventCount;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Why a transactional operation could not proceed.
///
/// Values of this type flow out of transactional reads, writes and lock
/// acquisitions via [`StmResult`] and are interpreted by the retry loop in
/// [`TxnBuilder::try_run`](crate::TxnBuilder::try_run). User code normally
/// just propagates them with `?`; the runtime decides whether to retry,
/// block or give up.
#[derive(Clone, Debug)]
pub enum Abort {
    /// A conflict with a concurrent transaction was detected (read-set
    /// validation failed, or an ownership record was held by another
    /// transaction). The runtime re-executes the transaction after backoff.
    Conflict(ConflictKind),
    /// The user requested [`Txn::retry`](crate::Txn::retry): abort and block
    /// until another transaction commits a change to a variable this
    /// transaction has read, then re-execute.
    Retry,
    /// The user requested an explicit abort followed by an immediate
    /// re-execution ([`Txn::restart`](crate::Txn::restart)). This is the
    /// paper's `abort` statement used to preempt a deadlocking transaction.
    Restart,
    /// The user cancelled the transaction; the retry loop returns
    /// [`TxnError::Cancelled`] without re-executing.
    Cancel,
    /// The transaction was chosen as a deadlock victim by the lock runtime
    /// and must release its revocable resources. Re-executed after
    /// exponential backoff so the other deadlocked threads can progress.
    Deadlock,
    /// The transaction was killed by an external party (e.g. a deadlock
    /// detector observing a cycle through this transaction's locks).
    Killed,
    /// A capacity bound (read-set or write-set size) of the hardware rung
    /// was exceeded. With an [`EscalationPolicy`](crate::EscalationPolicy)
    /// the next attempt falls back to unbounded software speculation;
    /// without one it is terminal, surfaced as [`TxnError::Capacity`].
    Capacity(CapacityKind),
    /// Commit the work done so far, then block until the given event count
    /// moves past its epoch at the commit, and re-execute. This implements
    /// *commit-before-wait* transactional condition variables.
    Wait(Arc<EventCount>),
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abort::Conflict(k) => write!(f, "transaction conflict: {k}"),
            Abort::Retry => write!(f, "transaction requested retry"),
            Abort::Restart => write!(f, "transaction requested restart"),
            Abort::Cancel => write!(f, "transaction cancelled"),
            Abort::Deadlock => write!(f, "transaction aborted as deadlock victim"),
            Abort::Killed => write!(f, "transaction killed externally"),
            Abort::Capacity(k) => write!(f, "hardware capacity exceeded: {k}"),
            Abort::Wait(_) => write!(f, "transaction committing before wait"),
        }
    }
}

/// The specific conflict that forced an abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// A variable in the read set changed after it was read.
    ReadValidation,
    /// An ownership record was locked by a concurrent committing
    /// transaction and did not become free within the spin bound.
    OrecBusy,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::ReadValidation => write!(f, "read-set validation failed"),
            ConflictKind::OrecBusy => write!(f, "ownership record busy"),
        }
    }
}

/// Which hardware capacity bound was exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CapacityKind {
    /// Too many distinct locations read.
    ReadSet,
    /// Too many distinct locations written.
    WriteSet,
}

impl fmt::Display for CapacityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacityKind::ReadSet => write!(f, "read set"),
            CapacityKind::WriteSet => write!(f, "write set"),
        }
    }
}

/// Result type of transactional operations.
pub type StmResult<T> = Result<T, Abort>;

/// Terminal error returned by [`TxnBuilder::try_run`](crate::TxnBuilder::try_run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction body requested cancellation via
    /// [`Txn::cancel`](crate::Txn::cancel).
    Cancelled,
    /// A capacity bound of the (modelled) hardware TM was exceeded by a
    /// transaction with no escalation policy to fall back on.
    Capacity {
        /// Which bound was exceeded.
        kind: CapacityKind,
        /// Number of attempts performed, including the failing one.
        attempts: u64,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Cancelled => write!(f, "transaction cancelled by user"),
            TxnError::Capacity { kind, attempts } => {
                write!(f, "transaction exceeded hardware {kind} capacity after {attempts} attempts")
            }
        }
    }
}

impl Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let cases: Vec<String> = vec![
            Abort::Conflict(ConflictKind::ReadValidation).to_string(),
            Abort::Conflict(ConflictKind::OrecBusy).to_string(),
            Abort::Retry.to_string(),
            Abort::Restart.to_string(),
            Abort::Cancel.to_string(),
            Abort::Deadlock.to_string(),
            Abort::Killed.to_string(),
            Abort::Capacity(CapacityKind::ReadSet).to_string(),
            TxnError::Cancelled.to_string(),
            TxnError::Capacity { kind: CapacityKind::WriteSet, attempts: 2 }.to_string(),
        ];
        for c in cases {
            assert!(!c.is_empty());
            assert!(c.chars().next().unwrap().is_lowercase(), "{c}");
        }
    }

    #[test]
    fn txn_error_implements_error() {
        fn assert_err<E: Error>() {}
        assert_err::<TxnError>();
    }

    #[test]
    fn abort_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Abort>();
        assert_send_sync::<TxnError>();
    }
}
