//! # txfix-bench: the evaluation harness
//!
//! One runner per paper artifact (DESIGN.md §4). `txfix tables` prints
//! Tables 1–3 from the corpus; the `table4` binary prints the case-study
//! comparisons, and `experiments` runs everything and prints
//! paper-reported vs. measured values. Both case-study binaries run the
//! one case list, [`cases()`], which also holds each row's paper
//! figures; the criterion benches under `benches/` are the ablations A1
//! and A3 (A2, the backoff policies, was retired with them). The
//! corpus load harness is one table of kernels, each asserting its
//! scenario's invariants, in [`chaos`]: `txfix chaos` sweeps seeded
//! fault-injection schedules over it, and [`stress`] runs it with faults
//! off across thread counts, reporting throughput, abort rate and latency
//! percentiles (`txfix stress`); both drive their workers through
//! [`pool`]. The [`workload`] module is the open-loop generator (seeded
//! Zipfian keys, mixed op ratios, bursty phases, a simulated-user session
//! model) the [`kv`] module drives through the sharded transactional KV
//! store under the deterministic scheduler (`txfix kv`).

#![warn(missing_docs)]

pub mod cases;
pub mod chaos;
pub mod kv;
pub mod pool;
pub mod stress;
pub mod workload;

pub use cases::{cases, CaseComparison, Measurement, Scale};
