//! The `txfix kv` macro-benchmark: the sharded KV store under the
//! open-loop workload, measured in **virtual time**.
//!
//! Wall-clock throughput is a property of the host; this sweep's
//! artifact is committed and byte-compared in CI, so every cell instead
//! runs under the deterministic cooperative scheduler with a seeded
//! picker, and all metrics are pure functions of `(config, seed)`:
//! throughput is ops per thousand scheduler steps, latency percentiles
//! are measured in elapsed scheduler steps per op
//! ([`sched::current_steps`]), and abort/escalation counts come from the
//! per-op [`TxnReport`](txfix_stm::TxnReport)s. The numbers mean what
//! `BENCH_stm.json`'s wall-clock numbers mean — relative cost of the
//! modes under identical contention — but they survive a byte-compare
//! on any machine. (`host_cores` is recorded for honesty, it is the one
//! field CI compares modulo.)
//!
//! Every cell ends with a free durability check: each shard is
//! checkpointed, the store is reopened from the simulated disk, and the
//! recovered state must equal the pre-shutdown state (`recovered_ok`).

use crate::pool;
use crate::workload::{Workload, WorkloadCfg, WorkloadOp};
use txfix_core::json::{Json, ToJson};
use txfix_core::sweep::{SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_kvstore::model::seeded_picker;
use txfix_kvstore::{KvConfig, KvStore, Mode};
use txfix_stm::chaos::splitmix64;
use txfix_stm::sched;
use txfix_xcall::SimFs;

/// Artifact schema marker.
pub const SCHEMA: &str = "txfix-kv-v1";

/// Default sweep seed.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Per-run step budget. Hitting it fails the cell (recorded in the
/// report) instead of hanging the sweep.
const MAX_STEPS: u64 = 50_000_000;

/// Shard counts every mode runs at.
pub const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Concurrent workers per cell.
pub const THREADS: usize = 3;

/// Ops each worker issues, under the default [`WorkloadCfg`].
pub const OPS_PER_THREAD: u64 = 120;

/// One sweep's selection.
#[derive(Clone, Debug)]
pub struct KvBenchConfig {
    /// Seed for the schedule, the workload and the backoff rngs.
    pub seed: u64,
    /// Store modes to sweep.
    pub modes: Vec<Mode>,
}

impl KvBenchConfig {
    /// The committed-artifact configuration: every mode.
    pub fn full(seed: u64) -> KvBenchConfig {
        KvBenchConfig { seed, modes: Mode::ALL.to_vec() }
    }
}

/// One mode × shard-count cell's measurements (all in virtual time).
#[derive(Clone, Debug)]
pub struct KvCell {
    /// Concurrency mode driven.
    pub mode: Mode,
    /// Shard count.
    pub shards: usize,
    /// Ops committed (= [`THREADS`] × [`OPS_PER_THREAD`] on a clean run).
    pub ops: u64,
    /// Aborted attempts across all ops (attempts − 1 per op).
    pub aborts: u64,
    /// Escalation-ladder climbs across all ops.
    pub escalations: u64,
    /// Ops that committed on the serial rung.
    pub serial_commits: u64,
    /// Scheduler steps the cell took.
    pub steps: u64,
    /// Throughput: ops per 1000 scheduler steps.
    pub ops_per_kstep: u64,
    /// Median per-op latency in scheduler steps.
    pub p50_steps: u64,
    /// 99th-percentile per-op latency in scheduler steps.
    pub p99_steps: u64,
    /// Buffer-pool counters summed over shards (checkpoint at the end).
    pub pool_flushed_pages: u64,
    /// The reopened store matched the pre-shutdown state.
    pub recovered_ok: bool,
    /// The schedule ran to completion (no step-limit, no panic).
    pub clean_run: bool,
}

struct WorkerOut {
    latencies: Vec<u64>,
    aborts: u64,
    escalations: u64,
    serial_commits: u64,
    ops: u64,
}

fn run_cell(cfg: &KvBenchConfig, mode: Mode, shards: usize) -> KvCell {
    let fs = SimFs::new();
    let store = KvStore::open(&fs, KvConfig::new(mode, shards));
    let workload = Workload::new(WorkloadCfg::default());
    let seed = splitmix64(
        cfg.seed ^ splitmix64(shards as u64 ^ (mode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let kv = &store;
    let wl = &workload;
    let workers: Vec<Box<dyn FnOnce() -> WorkerOut + Send + '_>> = (0..THREADS as u64)
        .map(|w| {
            Box::new(move || {
                pool::pin_worker_rng(seed, w as usize);
                let mut out = WorkerOut {
                    latencies: Vec::with_capacity(OPS_PER_THREAD as usize),
                    aborts: 0,
                    escalations: 0,
                    serial_commits: 0,
                    ops: 0,
                };
                for i in 0..OPS_PER_THREAD {
                    let before = sched::current_steps();
                    let stats = match wl.op(seed, w, i) {
                        WorkloadOp::Get(k) => kv.get(&k).expect("workload keys are tokens").stats,
                        WorkloadOp::Put(k, v) => {
                            kv.put(&k, &v).expect("workload values are tokens").stats
                        }
                        WorkloadOp::Delete(k) => {
                            kv.delete(&k).expect("workload keys are tokens").stats
                        }
                        WorkloadOp::Scan(draw) => {
                            kv.scan((draw % kv.config().shards as u64) as usize)
                                .expect("scan cannot fail")
                                .stats
                        }
                    };
                    out.latencies.push(sched::current_steps() - before);
                    out.aborts += stats.attempts.saturating_sub(1);
                    out.escalations += stats.escalations;
                    out.serial_commits += stats.serialized as u64;
                    out.ops += 1;
                }
                out
            }) as Box<dyn FnOnce() -> WorkerOut + Send + '_>
        })
        .collect();
    let (outs, log) = sched::run_workers(workers, MAX_STEPS, seeded_picker(seed));
    let clean_run = log.stop.is_none();
    let mut latencies: Vec<u64> = Vec::new();
    let (mut ops, mut aborts, mut escalations, mut serial_commits) = (0u64, 0u64, 0u64, 0u64);
    for out in outs.into_iter().flatten() {
        latencies.extend(out.latencies);
        ops += out.ops;
        aborts += out.aborts;
        escalations += out.escalations;
        serial_commits += out.serial_commits;
    }
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * q) as usize]
        }
    };
    // End-of-run durability: checkpoint every shard, reopen, compare.
    let want: Vec<_> = (0..shards).map(|s| store.shard_snapshot(s)).collect();
    let mut store = store;
    for s in 0..shards {
        store.checkpoint_and_truncate(s);
    }
    let pool_flushed_pages: u64 = (0..shards).map(|s| store.pool_stats(s).flushed_pages).sum();
    drop(store);
    let reopened = KvStore::open(&fs, KvConfig::new(mode, shards));
    let recovered_ok = (0..shards).all(|s| reopened.shard_snapshot(s) == want[s]);
    let steps = log.steps;
    KvCell {
        mode,
        shards,
        ops,
        aborts,
        escalations,
        serial_commits,
        steps,
        ops_per_kstep: (ops * 1000).checked_div(steps).unwrap_or(0),
        p50_steps: pct(0.50),
        p99_steps: pct(0.99),
        pool_flushed_pages,
        recovered_ok,
        clean_run,
    }
}

/// Run every mode × shard-count cell. Takes the scheduler exclusively.
pub fn run_kv_bench(cfg: &KvBenchConfig) -> Vec<KvCell> {
    sched::run_exclusively(|| {
        let mut cells = Vec::new();
        for &mode in &cfg.modes {
            for shards in SHARD_COUNTS {
                cells.push(run_cell(cfg, mode, shards));
            }
        }
        cells
    })
}

/// The `txfix-kv-v1` report.
pub struct KvReport {
    /// The swept configuration.
    pub cfg: KvBenchConfig,
    /// Host CPU count — honesty metadata, **not** part of the
    /// deterministic surface (CI compares modulo this field).
    pub host_cores: u64,
    /// One cell per mode × shard count.
    pub cells: Vec<KvCell>,
    /// Every cell ran clean and recovered.
    pub ok: bool,
}

/// Build the report for a finished sweep.
pub fn kv_report(cfg: &KvBenchConfig, cells: Vec<KvCell>) -> KvReport {
    let ok = cells
        .iter()
        .all(|c| c.clean_run && c.recovered_ok && c.ops == THREADS as u64 * OPS_PER_THREAD);
    KvReport { cfg: cfg.clone(), host_cores: pool::host_cores() as u64, cells, ok }
}

impl ToJson for KvReport {
    fn to_json_value(&self) -> Json {
        let w = WorkloadCfg::default();
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("seed", Json::int(self.cfg.seed)),
            ("host_cores", Json::int(self.host_cores)),
            ("threads", Json::int(THREADS as u64)),
            ("ops_per_thread", Json::int(OPS_PER_THREAD)),
            (
                "workload",
                Json::obj([
                    ("keys", Json::int(w.keys)),
                    ("users", Json::int(w.users)),
                    ("theta_milli", Json::int((w.theta * 1000.0).round() as u64)),
                    ("mix", Json::str(w.mix.name())),
                    ("session_len", Json::int(w.session_len)),
                    ("burst_period", Json::int(w.burst_period)),
                    ("burst_len", Json::int(w.burst_len)),
                ]),
            ),
            (
                "cells",
                Json::list(self.cells.iter().map(|c| {
                    Json::obj([
                        ("mode", Json::str(c.mode.name())),
                        ("shards", Json::int(c.shards as u64)),
                        ("ops", Json::int(c.ops)),
                        ("aborts", Json::int(c.aborts)),
                        ("escalations", Json::int(c.escalations)),
                        ("serial_commits", Json::int(c.serial_commits)),
                        ("steps", Json::int(c.steps)),
                        ("ops_per_kstep", Json::int(c.ops_per_kstep)),
                        ("p50_steps", Json::int(c.p50_steps)),
                        ("p99_steps", Json::int(c.p99_steps)),
                        ("pool_flushed_pages", Json::int(c.pool_flushed_pages)),
                        ("recovered_ok", Json::Bool(c.recovered_ok)),
                        ("clean_run", Json::Bool(c.clean_run)),
                    ])
                })),
            ),
            ("ok", Json::Bool(self.ok)),
        ])
    }
}

impl KvReport {
    /// Human-readable table, one row per cell.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let w = WorkloadCfg::default();
        out.push_str(&format!(
            "kv sweep: seed={} threads={THREADS} ops/thread={OPS_PER_THREAD} theta={} mix={} \
             (virtual time: 1 step = 1 scheduler decision)\n",
            self.cfg.seed,
            w.theta,
            w.mix.name(),
        ));
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>7} {:>10} {:>7} {:>11} {:>9} {:>9}  {}\n",
            "mode",
            "shards",
            "ops",
            "aborts",
            "escalated",
            "serial",
            "ops/kstep",
            "p50steps",
            "p99steps",
            "verdict"
        ));
        for c in &self.cells {
            let verdict = match (c.clean_run, c.recovered_ok) {
                (true, true) => "ok",
                (false, _) => "FAIL (schedule did not finish)",
                (_, false) => "FAIL (recovery diverged)",
            };
            out.push_str(&format!(
                "{:<8} {:>6} {:>6} {:>7} {:>10} {:>7} {:>11} {:>9} {:>9}  {}\n",
                c.mode.name(),
                c.shards,
                c.ops,
                c.aborts,
                c.escalations,
                c.serial_commits,
                c.ops_per_kstep,
                c.p50_steps,
                c.p99_steps,
                verdict
            ));
        }
        out.push_str(&format!("\nkv bench: {}", if self.ok { "ok" } else { "FAILED" }));
        out
    }
}

/// `txfix kv`: sweep the selected store modes across shard counts.
pub struct KvSweep {
    cfg: KvBenchConfig,
}

impl Default for KvSweep {
    fn default() -> KvSweep {
        KvSweep { cfg: KvBenchConfig::full(DEFAULT_SEED) }
    }
}

impl SweepRunner for KvSweep {
    fn usage(&self) -> &'static str {
        "\x20 kv [dev|tm|hybrid|--all] [--seed S]\n\
         \x20                              drive the sharded transactional KV store\n\
         \x20                              (dev locks / TM / hybrid escalation) with the\n\
         \x20                              open-loop Zipfian workload under the\n\
         \x20                              deterministic scheduler; reports virtual-time\n\
         \x20                              throughput, abort/escalation counts and latency\n\
         \x20                              percentiles per mode at 2 and 4 shards, verifies\n\
         \x20                              checkpoint+WAL recovery per cell, and writes\n\
         \x20                              BENCH_kv.json; bit-for-bit reproducible per seed"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_kv.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("kv mode", Mode::ALL.map(Mode::name)))
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        self.cfg.modes = args.pick(&Mode::ALL, Mode::name);
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let report = kv_report(&self.cfg, run_kv_bench(&self.cfg));
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok,
            failure: "kv sweep: a cell did not run clean or did not recover",
        })
    }
}
