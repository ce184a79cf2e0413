//! # txfix-xcall: transactional system calls over a simulated OS
//!
//! Reproduction of the **xCalls** mechanism (paper §4.1/§5.1, citing
//! Volos et al., reference 54 of the paper): "a library-based implementation of transactional
//! semantics for common system calls. The xCall library defers until
//! commit time those system calls that can be delayed. When that is not
//! possible, system calls are executed as part of the transaction and
//! their side effects are reversed on abort. xCalls reverts to inevitable
//! transactions for system calls that are not reversible."
//!
//! Because this reproduction has no kernel to wrap (see DESIGN.md), the
//! crate ships its own miniature OS — [`SimFs`]/[`SimFile`] files and
//! [`SimPipe`] bounded pipes — and layers the three xCall strategies on
//! top:
//!
//! | strategy | API | used for |
//! |---|---|---|
//! | defer to commit | [`XFile::x_append`], [`XPipe::x_write`] | log writes, responses |
//! | compensate on abort | [`XPipe::x_read`] | consuming reads |
//! | inevitable | [`x_inevitable`] | irreversible calls (`ioctl`-class) |
//!
//! Transactions touching the same file are isolated until commit by a
//! revocable per-file lock, so deferred writes from different transactions
//! never interleave — the property the Apache-II buffered-log fix (Recipe
//! 2 + xCalls, §5.4.3) depends on.

//! As an **extension** beyond the paper's implementation, [`AsyncIo`]
//! provides the commit-time asynchronous I/O with completion callbacks
//! that §5.3.2 identifies as the missing piece for long-latency-callback
//! bugs like Mozilla#19421.

#![warn(missing_docs)]

mod asyncio;
pub mod crashpoint;
mod file;
mod pipe;
mod simos;

pub use asyncio::AsyncIo;
pub use crashpoint::crash_point;
pub use file::{XFile, XOp};
pub use pipe::{x_inevitable, XPipe};
pub use simos::{OsError, SimFile, SimFs, SimPipe, BLOCK_BYTES};
