//! # txfix-wal: a write-ahead log over transactional files, plus the
//! crash-recovery checker
//!
//! The xCall layer exists so transactions can defer and compensate
//! system effects — but the question that motivates all of that is *what
//! survives a crash?* This crate closes the loop. It provides:
//!
//! * [`Wal`] — a redo log written through [`XFile`] with a commit-marker
//!   protocol: per transaction, append the `P`ut / `D`elete records,
//!   `fsync`, append the `C`ommit marker, `fsync` again. Recovery
//!   ([`recover`], or the one line parser [`records`]) keeps exactly the
//!   transactions whose commit marker is durable. Dropping the first
//!   `fsync` is the FIRST reference-WAL bug (SNIPPETS §2); it is planted
//!   only as the feature-gated `wal_commit_before_fsync` canary.
//! * [`checker`] — the crash-sweep engine behind `txfix crash`, generic
//!   over a [`checker::CrashSubject`]: for every crash point × hit ×
//!   image seed it freezes the world, takes a seeded crash image, and has
//!   the subject recover and check its invariants. The subject is the KV
//!   store (`txfix-kvstore`), which also holds every shard's crashed log
//!   to the protocol's promise: no durable commit marker follows an
//!   unparseable line.
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
//! [`records`] reads each byte about once: the kind and a space, the txid
//! as `str::parse::<u64>` reads it (`+`?, digits, no overflow), per token a
//! space and a run of token bytes, then ` ;` at the line's end. Any other
//! byte (a second space, a `\r`, a crash hole's zero, a non-ASCII byte)
//! makes the line `None` and the pass skips to the next `\n`: a torn write
//! never parses, so recovery skips garbage deterministically without
//! checksums.
//!
//! [`XFile`]: txfix_xcall::XFile

#![warn(missing_docs)]

pub mod checker;
mod redo;

pub use redo::{
    is_token, records, recover, Record, Recovery, Wal, WalOp, WalVariant, AFTER_COMMIT_WRITE,
};
