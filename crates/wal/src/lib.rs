//! # txfix-wal: a write-ahead log over transactional files, plus the
//! crash-recovery checker
//!
//! The xCall layer exists so transactions can defer and compensate
//! system effects — but the question that motivates all of that is *what
//! survives a crash?* This crate closes the loop. It provides:
//!
//! * [`Wal`] — a redo log written through [`XFile`] with a commit-marker
//!   protocol: per transaction, append the `P`ut records, `fsync`, append
//!   the `C`ommit marker, `fsync` again. A recovery replayer applies
//!   exactly the transactions whose commit marker is durable.
//! * [`WalVariant::CommitBeforeFsync`] — the intentionally buggy protocol
//!   from the FIRST reference-WAL case study (SNIPPETS §2): the commit
//!   marker is appended *before* the records are synced, so a crash can
//!   persist the marker without its records and recovery replays a torn
//!   transaction.
//! * [`DurableKv`] — a small durable KV map on top of the log, the test
//!   subject the crash sweep drives.
//! * [`checker`] — the crash-sweep engine behind `txfix crash`, generic
//!   over a [`checker::CrashSubject`]: for every crash point × hit ×
//!   image seed it freezes the world, takes a seeded crash image, and has
//!   the subject recover and check its invariants (for [`DurableKv`]:
//!   atomicity, durability and no-resurrection).
//!
//! ## Record format
//!
//! One record per line, space-separated tokens from `[A-Za-z0-9_]`,
//! closed by a `;` terminator token:
//!
//! ```text
//! P <txid> <key> <value> ;
//! D <txid> <key> ;
//! C <txid> ;
//! ```
//!
//! The strict charset plus the explicit terminator make torn writes
//! detectable without checksums: a crash hole (zero bytes) or a missing
//! tail never parses as a valid record, so recovery can skip garbage
//! lines deterministically.

#![warn(missing_docs)]

pub mod checker;
mod kv;
mod redo;

pub use kv::DurableKv;
pub use redo::{
    is_token, records, recover, recover_and_compact, Record, Recovery, Wal, WalOp, WalVariant,
    AFTER_COMMIT_WRITE,
};
