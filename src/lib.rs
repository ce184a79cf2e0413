//! # txfix — Applying Transactional Memory to Concurrency Bugs
//!
//! A from-scratch Rust reproduction of Volos, Tack, Swift & Lu,
//! *Applying Transactional Memory to Concurrency Bugs* (ASPLOS 2012):
//! the full substrate stack (software TM, revocable locks, transactional
//! I/O over a simulated OS, a hardware-TM model, transactional condition
//! variables and atomic/lock serialization), the paper's four fix recipes
//! with their applicability and difficulty analysis, the 60-bug study
//! corpus with 18 executable bug reproductions, and a benchmark harness
//! regenerating every table of the evaluation.
//!
//! This facade crate re-exports each workspace crate under a stable
//! module name; see each module's documentation for the full story, and
//! `README.md` / `DESIGN.md` / `EXPERIMENTS.md` for the map.
//!
//! ## Quickstart
//!
//! ```
//! use txfix::stm::{atomic, TVar};
//!
//! let balance = TVar::new(100i64);
//! atomic(|txn| balance.modify(txn, |b| b - 30));
//! assert_eq!(balance.load(), 70);
//! ```

#![warn(missing_docs)]

/// The software transactional memory runtime (TL2-style atomic regions),
/// whose escalation ladder's first rung is the bounded-capacity hardware-TM
/// model with a software fallback.
pub use txfix_stm as stm;

/// Revocable locks and wait-for-graph deadlock detection (TxLocks).
pub use txfix_txlock as txlock;

/// Transactional system calls over a simulated OS (xCalls).
pub use txfix_xcall as xcall;

/// Write-ahead logging over transactional files, the durable KV test
/// subject, and the crash-sweep engine every `CrashSubject` runs under
/// (`txfix crash`).
pub use txfix_wal as wal;

/// Transactional condition variables, `retry` helpers and atomic/lock
/// serialization.
pub use txfix_tmsync as tmsync;

/// The sharded transactional KV store: hash-index buckets and a
/// buffer-pool page layer over simos files, durability through the redo
/// log, and per-shard concurrency in dev-lock / TM / hybrid modes
/// (`txfix kv`); as a `CrashSubject` it is `txfix crash kvstore`.
pub use txfix_kvstore as kvstore;

/// The paper's contribution: the four fix recipes, the bug model, the
/// applicability analysis and the difficulty model.
pub use txfix_core as recipes;

/// Miniatures of the three buggy applications (SpiderMonkey, Apache,
/// MySQL) with buggy / developer-fix / TM-fix variants.
pub use txfix_apps as apps;

/// The 60-bug dataset and the 18 executable bug scenarios.
pub use txfix_corpus as corpus;

/// Trace-based bug detection: happens-before races, conflict
/// serializability, lock-order inversions.
pub use txfix_analyze as analyze;

/// Static critical-section analysis over declarative scenario summaries,
/// with recipe synthesis and static fix verification (`txfix lint`).
pub use txfix_static as lint;

/// The evaluation harness: table regeneration, case-study comparisons and
/// the corpus load harness (`txfix chaos`, `txfix stress`).
pub use txfix_bench as bench;

/// Systematic schedule exploration: bounded exhaustive DFS under the
/// deterministic scheduler over the scheduled corpus (`txfix explore`).
pub use txfix_explore as explore;

/// Automatic fix inference: seed atomic regions from static findings,
/// grow/merge them until the checkers are silent, then verify the
/// synthesized patch statically and by schedule exploration
/// (`txfix autofix`).
pub use txfix_autofix as autofix;

/// The `txfix` dispatch table: one row per CLI verb, `help` and `list`
/// derived from the rows, and the three runners that span crates.
pub mod cli;

/// The canary mutation sweep (`txfix canary`): arm one planted detector
/// bug at a time and prove each detection layer catches what it claims.
/// Only present when built with `--features canary`.
#[cfg(feature = "canary")]
pub mod canary;
