//! Sustained-load stress harness: drive corpus-derived workloads for a
//! fixed wall-clock duration across thread counts and fix variants,
//! reporting throughput, abort rate, and latency percentiles.
//!
//! Where the case comparisons in [`cases`](crate::cases) reproduce the
//! paper's Table 4 (fixed work, best-of-N), this harness answers the
//! operational question the paper's §5.4 stress runs gesture at: *what
//! does each fix variant sustain under open-ended load, and what does the
//! transactional runtime report while it does?* Each run:
//!
//! - spawns `threads` workers that execute one scenario operation in a
//!   loop until `secs` of wall-clock time elapse;
//! - measures every operation's latency into the same log₂ buckets the
//!   runtime's observability layer uses ([`txfix_stm::obs`]), so p50/p99
//!   are comparable between harness-side and runtime-side histograms;
//! - brackets the run with [`txfix_stm::obs::snapshot`] deltas taken at
//!   quiescence (workers joined), so commit/abort accounting is exact.
//!
//! The harness is a table (`KERNELS`): one `(key, kernel)` row per
//! stressed corpus scenario, each kernel running the `dev` (developers'
//! fix) or `tm` (TM fix) side of one `Cell`; [`SCENARIOS`] is its key
//! column.

use crate::pool;
use std::fmt::Write as _;
use txfix_apps::apache::buffered_log::make_record;
use txfix_apps::apache::{LockedBufferedLog, LogWriter, TmBufferedLog};
use txfix_apps::mysql::{MiniDb, MysqlVariant};
use txfix_apps::spidermonkey::{ObjectStore, OwnershipMode, OwnershipStore, StmStore};
use txfix_core::json::{Json, ToJson};
use txfix_core::sweep::{self, Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_corpus::Variant;
use txfix_stm::obs;
use txfix_stm::{OverheadModel, TVar, Txn};
use txfix_txlock::TxMutex;
use txfix_xcall::SimFs;

/// A load kernel: sustain one cell's variant of its scenario.
type Kernel = fn(&Cell) -> StressRun;

/// The harness: every stressable scenario key with its kernel, in
/// report order (the row order of `BENCH_stm.json`).
const KERNELS: [(&str, Kernel); 6] = [
    ("av_stats_race", av_stats_race),
    ("dl_local_lock_order", dl_local_lock_order),
    ("dl_cache_atomtable", dl_cache_atomtable),
    ("apache_ii", apache_ii),
    ("mozilla_i", mozilla_i),
    ("mysql_i", mysql_i),
];

/// Scenario keys the harness can stress: the key column of the table.
pub const SCENARIOS: [&str; 6] = pool::keys(&KERNELS);

/// Configuration for one harness invocation.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Wall-clock duration of each (scenario, variant, threads) run.
    pub secs: f64,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Scenario keys to run (order preserved; must come from
    /// [`SCENARIOS`]).
    pub scenarios: Vec<&'static str>,
    /// Seed for per-worker randomized state (today: the backoff-jitter
    /// RNG). Recorded in the report so a run can be reproduced; the same
    /// seed pins the same per-worker jitter streams.
    pub seed: u64,
}

impl Default for StressConfig {
    fn default() -> StressConfig {
        StressConfig {
            secs: 2.0,
            threads: vec![1, 2, 4, 8],
            scenarios: SCENARIOS.to_vec(),
            seed: 0,
        }
    }
}

/// The outcome of one sustained run of one scenario variant.
#[derive(Clone, Debug)]
pub struct StressRun {
    /// Scenario key.
    pub scenario: &'static str,
    /// `dev` or `tm` ([`Variant::name`]).
    pub variant: &'static str,
    /// Worker threads driving load.
    pub threads: usize,
    /// Actual wall-clock duration.
    pub elapsed_secs: f64,
    /// Operations completed across all workers.
    pub ops: u64,
    /// Sustained throughput.
    pub ops_per_sec: f64,
    /// Median per-operation latency (log₂-bucket midpoint estimate).
    pub p50_ns: u64,
    /// 99th-percentile per-operation latency.
    pub p99_ns: u64,
    /// Transactions committed during the run (0 for lock-based variants).
    pub commits: u64,
    /// Transaction aborts of all causes during the run.
    pub aborts: u64,
    /// `aborts / (commits + aborts)`, 0 when no transactions ran.
    pub abort_rate: f64,
    /// Revocable-lock revocations (preemptions) during the run.
    pub lock_revocations: u64,
    /// Deferred/compensated x-call operations during the run.
    pub xcalls: u64,
}

impl ToJson for StressRun {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("scenario", Json::str(self.scenario)),
            ("variant", Json::str(self.variant)),
            ("threads", Json::int(self.threads as u64)),
            ("elapsed_secs", Json::Number(self.elapsed_secs)),
            ("ops", Json::int(self.ops)),
            ("ops_per_sec", Json::Number(self.ops_per_sec)),
            ("p50_ns", Json::int(self.p50_ns)),
            ("p99_ns", Json::int(self.p99_ns)),
            ("commits", Json::int(self.commits)),
            ("aborts", Json::int(self.aborts)),
            ("abort_rate", Json::Number(self.abort_rate)),
            ("lock_revocations", Json::int(self.lock_revocations)),
            ("xcalls", Json::int(self.xcalls)),
        ])
    }
}

/// Number of hardware threads on the host running the sweep. Recorded in
/// the report header so scaling claims can be judged against what the
/// machine could physically show.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Assemble the whole-invocation report document (`BENCH_stm.json`).
pub fn stress_report(cfg: &StressConfig, runs: &[StressRun]) -> Json {
    Json::obj([
        ("schema", Json::str("txfix-stress-v3")),
        ("seed", Json::int(cfg.seed)),
        ("secs", Json::Number(cfg.secs)),
        ("host_cores", Json::int(host_cores() as u64)),
        ("threads", Json::list(cfg.threads.iter().map(|&t| Json::int(t as u64)))),
        ("scenarios", Json::strings(&cfg.scenarios)),
        ("runs", Json::list(runs.iter().map(ToJson::to_json_value))),
    ])
}

/// Human-readable table, one row per run.
pub fn stress_table(runs: &[StressRun]) -> String {
    let mut table = format!(
        "{:22} {:4} {:>3}  {:>12}  {:>9}  {:>10}  {:>10}  {:>7}",
        "scenario", "var", "thr", "ops/s", "aborts", "p50", "p99", "abort%"
    );
    for r in runs {
        let _ = write!(
            table,
            "\n{:22} {:4} {:>3}  {:>12.0}  {:>9}  {:>8}ns  {:>8}ns  {:>6.2}%",
            r.scenario,
            r.variant,
            r.threads,
            r.ops_per_sec,
            r.aborts,
            r.p50_ns,
            r.p99_ns,
            r.abort_rate * 100.0
        );
    }
    table
}

/// `txfix stress`: sustain load against the selected scenarios.
#[derive(Default)]
pub struct StressSweep {
    cfg: StressConfig,
}

impl SweepRunner for StressSweep {
    fn usage(&self) -> &'static str {
        "\x20 stress [<key>|--all] [--secs N] [--threads 1,2,4,8] [--seed S]\n\
         \x20                              sustain open-ended load against the dev and TM\n\
         \x20                              fix variants, report throughput / abort rate /\n\
         \x20                              latency percentiles, and write BENCH_stm.json"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_stm.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("stress scenario", SCENARIOS))
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        match flag {
            "--secs" => self.cfg.secs = sweep::positive(flag, value)?,
            "--threads" => self.cfg.threads = sweep::positive_list(flag, value, "1,2,4,8")?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        self.cfg.scenarios = args.pick(&SCENARIOS, |s| s);
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let runs = run_stress(&self.cfg);
        Ok(SweepOutput {
            rendered: stress_report(&self.cfg, &runs).to_json(),
            table: stress_table(&runs),
            ok: true,
            failure: "",
        })
    }
}

/// Run the full sweep: every configured scenario × thread count ×
/// variant.
///
/// # Panics
///
/// Panics on a configured scenario key not in [`SCENARIOS`].
pub fn run_stress(cfg: &StressConfig) -> Vec<StressRun> {
    obs::enable();
    let mut runs = Vec::new();
    for &scenario in &cfg.scenarios {
        let (scenario, kernel) = *KERNELS
            .iter()
            .find(|(key, _)| *key == scenario)
            .expect("a key from stress::SCENARIOS");
        for &threads in &cfg.threads {
            for tm in [false, true] {
                runs.push(kernel(&Cell { scenario, tm, threads, secs: cfg.secs, seed: cfg.seed }));
            }
        }
    }
    runs
}

/// One (scenario, variant, threads) run, as its kernel sees it.
struct Cell {
    scenario: &'static str,
    /// The TM fix (`true`) or the developers' fix.
    tm: bool,
    threads: usize,
    secs: f64,
    seed: u64,
}

impl Cell {
    /// The shared driver: run a deadline-bounded worker pool
    /// ([`pool::run_timed`]), then take a quiescent observability delta.
    fn drive(&self, op: impl Fn(usize, u64) + Sync) -> StressRun {
        let before = obs::snapshot();
        let timed = pool::run_timed(self.threads, self.secs, self.seed, op);
        // Workers are joined: the delta is over a quiescent boundary and exact.
        let delta = obs::snapshot().delta(&before);
        let (mut commits, mut aborts, mut revocations, mut xcalls) = (0u64, 0u64, 0u64, 0u64);
        for site in &delta.sites {
            commits += site.commits;
            aborts += site.total_aborts();
            revocations += site.lock_revocations;
            xcalls += site.xcalls;
        }
        let ops = timed.ops;
        StressRun {
            scenario: self.scenario,
            variant: if self.tm { Variant::TmFix } else { Variant::DevFix }.name(),
            threads: self.threads,
            elapsed_secs: timed.elapsed_secs,
            ops,
            ops_per_sec: ops as f64 / timed.elapsed_secs,
            p50_ns: timed.latency.percentile(0.50),
            p99_ns: timed.latency.percentile(0.99),
            commits,
            aborts,
            abort_rate: if commits + aborts == 0 {
                0.0
            } else {
                aborts as f64 / (commits + aborts) as f64
            },
            lock_revocations: revocations,
            xcalls,
        }
    }
}

/// MySQL#791 shape: two statistics counters that must move together. The
/// developers' fix guards them with one mutex; the TM fix wraps both
/// updates in one atomic block (Recipe 2).
fn av_stats_race(cell: &Cell) -> StressRun {
    if cell.tm {
        let key_cache = TVar::new(0u64);
        let total = TVar::new(0u64);
        let txn = Txn::build().site("stress_av_stats");
        cell.drive(|_, _| {
            txn.try_run(|t| {
                key_cache.modify(t, |v| v + 1)?;
                total.modify(t, |v| v + 1)
            })
            .expect("stats transaction");
        })
    } else {
        let stats = parking_lot::Mutex::new((0u64, 0u64));
        cell.drive(|_, _| {
            let mut s = stats.lock();
            s.0 += 1;
            s.1 += 1;
        })
    }
}

/// Local lock-order inversion: transfers between account pairs. The
/// developers' fix imposes a global acquisition order; the TM fix
/// replaces both locks with one atomic block (Recipe 1).
fn dl_local_lock_order(cell: &Cell) -> StressRun {
    const ACCOUNTS: usize = 8;
    let pick = |t: usize, i: u64| -> (usize, usize) {
        let src = (i as usize).wrapping_mul(7).wrapping_add(t) % ACCOUNTS;
        let dst = (i as usize).wrapping_mul(13).wrapping_add(3) % ACCOUNTS;
        if src == dst {
            (src, (dst + 1) % ACCOUNTS)
        } else {
            (src, dst)
        }
    };
    if cell.tm {
        let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(1_000)).collect();
        let txn = Txn::build().site("stress_dl_local");
        cell.drive(|t, i| {
            let (src, dst) = pick(t, i);
            txn.try_run(|txn| {
                accounts[src].modify(txn, |v| v - 1)?;
                accounts[dst].modify(txn, |v| v + 1)
            })
            .expect("transfer transaction");
        })
    } else {
        let accounts: Vec<parking_lot::Mutex<i64>> =
            (0..ACCOUNTS).map(|_| parking_lot::Mutex::new(1_000)).collect();
        cell.drive(|t, i| {
            let (src, dst) = pick(t, i);
            // The fix: always acquire in index order.
            let (lo, hi) = (src.min(dst), src.max(dst));
            let mut a = accounts[lo].lock();
            let mut b = accounts[hi].lock();
            let (from, to) = if lo == src { (&mut *a, &mut *b) } else { (&mut *b, &mut *a) };
            *from -= 1;
            *to += 1;
        })
    }
}

/// Mozilla#54743 shape: cache and atom-table locks taken in both orders.
/// The developers' fix orders them globally; the TM fix keeps both locks
/// but makes them revocable (Recipe 3) so the deadlock is preempted —
/// workers deliberately acquire in opposite orders to exercise
/// revocation under contention.
fn dl_cache_atomtable(cell: &Cell) -> StressRun {
    if cell.tm {
        let cache = TxMutex::new("stress.cache", 0u64);
        let atoms = TxMutex::new("stress.atoms", 0u64);
        let txn = Txn::build().site("stress_dl_cache");
        cell.drive(|t, _| {
            let (first, second) = if t % 2 == 0 { (&cache, &atoms) } else { (&atoms, &cache) };
            txn.try_run(|txn| {
                first.with_tx(txn, |v| *v += 1)?;
                second.with_tx(txn, |v| *v += 1)
            })
            .expect("cache/atoms transaction");
        })
    } else {
        let cache = parking_lot::Mutex::new(0u64);
        let atoms = parking_lot::Mutex::new(0u64);
        cell.drive(|_, _| {
            // The fix: one global order, whatever the caller wanted.
            let mut c = cache.lock();
            let mut a = atoms.lock();
            *c += 1;
            *a += 1;
        })
    }
}

/// Apache#25520 shape: every request appends one record to the buffered
/// log. Developers' fix: a per-log lock. TM fix: atomic block with the
/// file flush as a deferred x-call (Recipe 2).
fn apache_ii(cell: &Cell) -> StressRun {
    use txfix_apps::apache::buffered_log::RECORD_LEN;
    let fs = SimFs::new();
    let log: Box<dyn LogWriter> = if cell.tm {
        Box::new(TmBufferedLog::with_overhead(
            &fs,
            "stress.log",
            64 * RECORD_LEN,
            OverheadModel::SOFTWARE_TM,
        ))
    } else {
        Box::new(LockedBufferedLog::new(&fs, "stress.log", 64 * RECORD_LEN))
    };
    let run = cell.drive(|t, i| {
        log.write_record(&make_record(t, i));
    });
    log.flush();
    run
}

/// Mozilla#133773 shape: interpreter threads over shared object slots.
/// Developers' fix: the ownership protocol. TM fix: Recipe 1 on software
/// TM. Every 64th operation moves a value across two shared objects (the
/// cross-scope operation that deadlocked the original).
fn mozilla_i(cell: &Cell) -> StressRun {
    const LOCAL_OBJECTS: usize = 4;
    const SHARED: usize = 4;
    const SLOTS: usize = 8;
    let threads = cell.threads;
    let objects = threads * LOCAL_OBJECTS + SHARED;
    let store: Box<dyn ObjectStore> = if cell.tm {
        Box::new(StmStore::software(objects, SLOTS))
    } else {
        Box::new(OwnershipStore::new(OwnershipMode::DevFix, objects, SLOTS))
    };
    let shared_base = threads * LOCAL_OBJECTS;
    cell.drive(|t, i| {
        let obj = t * LOCAL_OBJECTS + (i as usize % LOCAL_OBJECTS);
        let slot = i as usize % SLOTS;
        store.set_slot(t, obj, slot, i as i64);
        let _ = store.get_slot(t, obj, slot);
        if i % 64 == 0 {
            let src = shared_base + (i as usize / 64) % SHARED;
            let dst = shared_base + (i as usize / 64 + 1) % SHARED;
            store.move_slot(t, src, dst, slot);
            store.quiesce(t);
        }
    })
}

/// MySQL#169 shape: insert traffic with periodic delete-all statements.
/// Developers' fix: hold the table lock through binlogging. TM fix:
/// Recipe 4's atomic/lock serialization.
fn mysql_i(cell: &Cell) -> StressRun {
    let tables = cell.threads.max(1);
    let db =
        MiniDb::new(if cell.tm { MysqlVariant::TmRecipe4 } else { MysqlVariant::DevFix }, tables);
    for t in 0..tables {
        for i in 0..8 {
            db.insert(t, i, i as i64);
        }
    }
    cell.drive(|t, i| {
        let table = t % tables;
        if i % 32 == 31 {
            db.delete_all(table);
        } else {
            db.insert(table, (t as u64) << 48 | i, i as i64);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_keep_the_artifact_row_order() {
        assert_eq!(
            SCENARIOS,
            [
                "av_stats_race",
                "dl_local_lock_order",
                "dl_cache_atomtable",
                "apache_ii",
                "mozilla_i",
                "mysql_i",
            ]
        );
    }

    #[test]
    fn every_scenario_sustains_load_in_both_variants() {
        for scenario in SCENARIOS {
            let cfg = StressConfig {
                secs: 0.05,
                threads: vec![2],
                scenarios: vec![scenario],
                seed: 0x5EED,
            };
            let runs = run_stress(&cfg);
            let (dev, tm) = (&runs[0], &runs[1]);
            assert_eq!((dev.variant, tm.variant), ("dev", "tm"));
            for run in [dev, tm] {
                assert!(run.ops > 0, "{scenario}/{}: no ops", run.variant);
                assert!(run.ops_per_sec > 0.0, "{scenario}/{}", run.variant);
                assert!(run.p99_ns >= run.p50_ns, "{scenario}/{}", run.variant);
                assert!(
                    (0.0..=1.0).contains(&run.abort_rate),
                    "{scenario}/{}: abort rate {}",
                    run.variant,
                    run.abort_rate
                );
            }
            assert!(tm.commits > 0, "{scenario}/tm: no transactions observed");
            assert_eq!(dev.scenario, scenario);
        }
    }

    #[test]
    fn report_document_is_valid_json() {
        obs::enable();
        let cfg = StressConfig {
            secs: 0.05,
            threads: vec![1],
            scenarios: vec!["av_stats_race"],
            seed: 0x5EED,
        };
        let runs = run_stress(&cfg);
        assert_eq!(runs.len(), 2);
        let doc = stress_report(&cfg, &runs);
        let parsed = Json::parse(&doc.to_json()).expect("valid JSON");
        let obj = parsed.object("report").unwrap();
        assert_eq!(obj.get("schema").unwrap().string("schema").unwrap(), "txfix-stress-v3");
        assert!(obj.get("host_cores").unwrap().number("host_cores").unwrap() >= 1.0);
        assert_eq!(obj.get("runs").unwrap().array("runs").unwrap().len(), 2);
    }
}
