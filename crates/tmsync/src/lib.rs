//! # txfix-tmsync: synchronization extensions for transactional code
//!
//! The paper's fixes need more than plain atomic regions; this crate
//! supplies the two extensions its recipes rely on:
//!
//! - **Transactional condition variables** ([`TxCondvar`]): commit-before-
//!   wait semantics, required by 5 of the Mozilla fixes (Table 3). A
//!   `TxCondvar` is a `txfix_stm::EventCount` the runtime commits and
//!   waits on; it has no wait of its own.
//! - **Atomic/lock serialization** ([`SerialDomain`], [`SerialMutex`],
//!   [`serial_atomic`]): the global reader/writer scheme of §5.1 that makes
//!   an atomic region serializable against every lock critical section —
//!   the runtime of fix Recipe 4 (MySQL-I case study).
//!
//! Blocking `retry` itself lives in `txfix-stm` ([`Txn::retry`]); this
//! crate re-exports a [`guard`] helper for the common
//! "retry-unless-predicate" shape.
//!
//! [`Txn::retry`]: txfix_stm::Txn::retry

#![warn(missing_docs)]

mod condvar;
mod serial;

pub use condvar::TxCondvar;
pub use serial::{serial_atomic, serial_atomic_with, SerialDomain, SerialMutex, SerialMutexGuard};

use txfix_stm::{StmResult, Txn};

/// Block the transaction (via `retry`) until `condition` is true.
///
/// # Errors
///
/// Returns the `retry` control-flow signal when the condition is false;
/// compose with `?`.
///
/// # Examples
///
/// ```
/// use txfix_stm::{atomic, TVar};
/// use txfix_tmsync::guard;
///
/// let stock = TVar::new(3u32);
/// let stock2 = stock.clone();
/// // Take one item, waiting (not spinning) while the shelf is empty.
/// atomic(move |txn| {
///     let n = stock2.read(txn)?;
///     guard(txn, n > 0)?;
///     stock2.write(txn, n - 1)
/// });
/// assert_eq!(stock.load(), 2);
/// ```
pub fn guard(txn: &mut Txn, condition: bool) -> StmResult<()> {
    if condition {
        Ok(())
    } else {
        txn.retry()
    }
}
