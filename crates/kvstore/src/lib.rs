//! # txfix-kvstore: a sharded transactional key-value store
//!
//! The production-shaped application tier the corpus scenarios are not:
//! a KV store built entirely out of the repo's substrates, so the fix
//! recipes, escalation ladder, crash checker and chaos layer finally
//! meet contended, skewed, mixed read/write load at macro scale.
//!
//! * [`KvStore`] — keys hash across shards; each shard owns one
//!   [`TVar`](txfix_stm::TVar) holding its ordered index of packed leaves,
//!   a redo log ([`txfix_wal::Wal`], fixed protocol), and a
//!   double-buffered checkpoint pair behind a [`page::BufferPool`]. A scan
//!   returns [`Rows`], the leaves appended into one buffer.
//! * [`Mode`] — per-shard concurrency: `dev` (coarse revocable lock),
//!   `tm` (optimistic STM with backoff), `hybrid` (STM plus the
//!   escalation ladder on read-only ops).
//! * [`model`] — the deterministic-scheduler harness and BTreeMap-oracle
//!   history checker behind the differential tests.
//! * [`crash`] — the store as a subject of the crash-sweep engine in
//!   `txfix_wal::checker` (`txfix crash kvstore`).

#![warn(missing_docs)]

pub mod crash;
mod index;
pub mod model;
pub mod page;
mod rows;
mod store;

pub use rows::Rows;
pub use store::{shard_placement, KvConfig, KvError, KvStore, Mode, OpStats, Reply};
