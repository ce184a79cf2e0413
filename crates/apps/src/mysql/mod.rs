//! A miniature of MySQL's table layer: `lock_open`, per-table storage and
//! the binary log — enough to reproduce MySQL-I (paper §5.4.4).
//!
//! The bug: the optimized `DELETE FROM t` path releases the global
//! `lock_open` **before** writing the binlog entry, so a concurrent
//! `INSERT` can execute *and log itself* between the delete and its log
//! record. Replaying the binlog then yields a different table than the
//! server actually has.

mod engine;

pub use engine::{consistent_with_binlog, replay_binlog, BinlogEntry, MiniDb, MysqlVariant};
