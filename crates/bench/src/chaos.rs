//! Seeded fault-injection sweeps over the corpus scenarios (`txfix chaos`),
//! and the kernel table the corpus load harness runs.
//!
//! This harness proves what the runtime *survives*: every cell installs a
//! [`FaultPlan`] from a named schedule, drives a corpus-shaped workload
//! under concurrent load with faults firing at the runtime's ugliest
//! points (mid-writeback, lock revocation, failed x-call I/O), and then
//! asserts the scenario's invariants — no lost updates, no torn invariant
//! groups, no deadlock, every transaction commits within its budget.
//! [`stress`](crate::stress) runs the same kernels with no plan installed
//! and reports what they *sustain*.
//!
//! ## Determinism
//!
//! `txfix chaos --seed <s>` must be bit-for-bit reproducible for a fixed
//! seed, so the report contains only facts that are functions of the
//! configuration and the (fixed) per-worker op counts —
//! scenario/schedule/variant names, thread and op counts, and the
//! invariant verdicts — never timings, fault tallies or anything else the
//! thread interleaving can move. Work is *count-based* (each worker runs
//! exactly [`OPS_PER_THREAD`] operations) for the same reason. Per-worker
//! implicit state (the backoff-jitter RNG) is pinned from the run seed
//! via [`pool::pin_worker_rng`].

use crate::pool;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txfix_core::json::{Json, ToJson};
use txfix_core::sweep::{SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_corpus::Variant;
use txfix_stm::chaos::{splitmix64, FaultPlan};
use txfix_stm::{obs, EscalationPolicy, TVar, Txn, TxnBuilder};
use txfix_txlock::TxMutex;
use txfix_xcall::{AsyncIo, SimFs, SimPipe, XFile, XPipe};

/// A load kernel: drive one cell's workload under whatever fault plan is
/// armed — the TM fix when `tm`, else the developers' fix — recording
/// violations in the cell's sink; returns what its worker pool measured.
pub(crate) type Kernel = fn(&Cell, bool) -> pool::Run;

/// The corpus load harness: every scenario key with its kernel, in
/// report order (the row order of `CHAOS_stm.json` and `BENCH_stm.json`).
pub(crate) const KERNELS: [(&str, Kernel); 6] = [
    ("av_stats_race", av_stats_race),
    ("dl_local_lock_order", dl_local_lock_order),
    ("dl_cache_atomtable", dl_cache_atomtable),
    ("apache_ii", apache_ii),
    ("pipe_handoff", pipe_handoff),
    ("async_once", async_once),
];

/// Scenario keys the harness can run: the key column of the table.
pub const SCENARIOS: [&str; 6] = {
    let mut keys = [""; 6];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = KERNELS[i].0;
        i += 1;
    }
    keys
};

/// The kernel behind `scenario`.
///
/// # Panics
///
/// Panics on a key not in [`SCENARIOS`].
pub(crate) fn kernel(scenario: &str) -> Kernel {
    KERNELS.iter().find(|(key, _)| *key == scenario).expect("a key from chaos::SCENARIOS").1
}

/// The fault schedules the corpus sweep runs, in report order: names
/// from the shared [`txfix_stm::chaos::SCHEDULES`] table.
pub const SCHEDULES: &[&str] =
    &["baseline", "txn_faults", "commit_faults", "lock_faults", "io_faults"];

/// Worker threads per cell.
pub const THREADS: usize = 4;

/// Operations each worker executes (count-based work, for determinism).
pub const OPS_PER_THREAD: u64 = 300;

/// Configuration for one chaos invocation: every cell runs every
/// schedule in [`SCHEDULES`] with [`THREADS`] workers.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed; every cell derives its plan seed from this plus the
    /// cell's names, so cells are decorrelated but reproducible.
    pub seed: u64,
    /// Scenario keys to sweep (from [`SCENARIOS`]).
    pub scenarios: Vec<&'static str>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig { seed: 0xC4A05, scenarios: SCENARIOS.to_vec() }
    }
}

/// The verdict of one (scenario, variant, schedule) cell.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Scenario key.
    pub scenario: &'static str,
    /// `dev` or `tm` ([`Variant::name`]).
    pub variant: &'static str,
    /// Fault schedule name.
    pub schedule: &'static str,
    /// Total operations the cell's workers executed (deterministic).
    pub ops: u64,
    /// Invariant violations observed (empty = the cell passed).
    pub violations: Vec<String>,
}

impl ChaosRun {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl ToJson for ChaosRun {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("scenario", Json::str(self.scenario)),
            ("variant", Json::str(self.variant)),
            ("schedule", Json::str(self.schedule)),
            ("threads", Json::int(THREADS as u64)),
            ("ops", Json::int(self.ops)),
            ("passed", Json::Bool(self.passed())),
            ("violations", Json::strings(&self.violations)),
        ])
    }
}

/// Assemble the whole-invocation report document (`CHAOS_stm.json`).
pub fn chaos_report(cfg: &ChaosConfig, runs: &[ChaosRun]) -> Json {
    Json::obj([
        ("schema", Json::str("txfix-chaos-v1")),
        ("seed", Json::int(cfg.seed)),
        ("threads", Json::int(THREADS as u64)),
        ("ops_per_thread", Json::int(OPS_PER_THREAD)),
        ("scenarios", Json::strings(&cfg.scenarios)),
        ("schedules", Json::strings(SCHEDULES)),
        ("runs", Json::list(runs.iter().map(ToJson::to_json_value))),
        ("passed", Json::Bool(runs.iter().all(ChaosRun::passed))),
    ])
}

/// Human-readable table, one row per cell.
pub fn chaos_table(runs: &[ChaosRun]) -> String {
    let mut table = format!(
        "{:22} {:14} {:4} {:>3}  {:>7}  verdict",
        "scenario", "schedule", "var", "thr", "ops"
    );
    for r in runs {
        let verdict = if r.passed() { "ok".to_string() } else { r.violations.join("; ") };
        let _ = write!(
            table,
            "\n{:22} {:14} {:4} {:>3}  {:>7}  {}",
            r.scenario, r.schedule, r.variant, THREADS, r.ops, verdict
        );
    }
    table
}

/// `txfix chaos`: sweep the fault schedules over the selected scenarios.
#[derive(Default)]
pub struct ChaosSweep {
    cfg: ChaosConfig,
}

impl SweepRunner for ChaosSweep {
    fn usage(&self) -> &'static str {
        "\x20 chaos [<key>|--all] [--seed S]\n\
         \x20                              sweep seeded fault-injection schedules over the\n\
         \x20                              corpus scenarios (dev and tm) under concurrent\n\
         \x20                              load, assert invariants after every run, and\n\
         \x20                              write CHAOS_stm.json; exits nonzero on any\n\
         \x20                              violation; bit-for-bit reproducible per seed"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("CHAOS_stm.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("chaos scenario", SCENARIOS))
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        self.cfg.scenarios = args.pick(&SCENARIOS, |s| s);
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let runs = run_chaos(&self.cfg);
        Ok(SweepOutput {
            rendered: chaos_report(&self.cfg, &runs).to_json(),
            table: chaos_table(&runs),
            ok: runs.iter().all(ChaosRun::passed),
            failure: "chaos sweep observed invariant violations",
        })
    }
}

/// Run the full sweep: every configured scenario × schedule × variant.
/// Cells run sequentially (the fault plan is process-global).
///
/// # Panics
///
/// Panics on a configured scenario key not in [`SCENARIOS`].
pub fn run_chaos(cfg: &ChaosConfig) -> Vec<ChaosRun> {
    let mut runs = Vec::new();
    for &scenario in &cfg.scenarios {
        for &schedule in SCHEDULES {
            for tm in [false, true] {
                runs.push(run_cell(cfg.seed, scenario, schedule, tm));
            }
        }
    }
    runs
}

/// Run one cell: arm the schedule's plan, run the scenario's kernel.
///
/// # Panics
///
/// Panics on a scenario key not in [`SCENARIOS`] or a schedule name not
/// in [`SCHEDULES`].
pub(crate) fn run_cell(
    seed: u64,
    scenario: &'static str,
    schedule: &'static str,
    tm: bool,
) -> ChaosRun {
    obs::enable();
    let variant = if tm { Variant::TmFix } else { Variant::DevFix }.name();
    let cell_seed = mix(seed, &[scenario, schedule, variant]);
    let plan = FaultPlan::named(schedule, cell_seed)
        .unwrap_or_else(|| panic!("unknown chaos schedule {schedule:?} (see chaos::SCHEDULES)"));
    let _armed = txfix_stm::chaos::scoped(&plan);
    let (run, violations) = Cell::run(THREADS, OPS_PER_THREAD, cell_seed, kernel(scenario), tm);
    ChaosRun { scenario, variant, schedule, ops: run.ops, violations }
}

/// Derive a cell seed from the master seed and the cell's names.
fn mix(seed: u64, parts: &[&str]) -> u64 {
    let mut h = splitmix64(seed);
    for part in parts {
        for &b in part.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
    }
    h
}

/// One cell as its kernel sees it: worker and op counts, the seed the
/// workers' backoff RNGs are pinned from, and the violation sink.
pub(crate) struct Cell {
    threads: usize,
    ops: u64,
    seed: u64,
    sink: pool::ViolationSink,
}

impl Cell {
    /// Run `kernel` — the TM fix when `tm` — with `threads` workers of
    /// `ops` operations each, under whatever fault plan the caller armed.
    /// Returns what the pool measured and every violation recorded.
    pub(crate) fn run(
        threads: usize,
        ops: u64,
        seed: u64,
        kernel: Kernel,
        tm: bool,
    ) -> (pool::Run, Vec<String>) {
        let cell = Cell {
            threads: threads.max(1),
            ops: ops.max(1),
            seed,
            sink: pool::ViolationSink::new(),
        };
        let run = kernel(&cell, tm);
        (run, cell.sink.into_violations())
    }

    fn violate(&self, msg: String) {
        self.sink.violate(msg);
    }

    /// Every transactional body in the harness runs under this builder:
    /// site-labelled and with a degradation ladder, so "every txn commits
    /// within its budget" is the ladder's guarantee, not luck.
    ///
    /// `serial_ok` is true only for pure-TVar bodies. Bodies that acquire
    /// TxLocks or x-call isolation locks must not take the serial rung: an
    /// irrevocable attempt holding the global serialization lock while
    /// blocking on a TxMutex held by a transaction whose commit needs that
    /// same serialization lock would deadlock (DESIGN.md §8). They degrade
    /// to stronger backoff only — their eventual commit comes from
    /// unbounded retries plus deadlock preemption.
    fn builder(&self, site: &'static str, serial_ok: bool) -> TxnBuilder {
        let policy = if serial_ok {
            EscalationPolicy {
                backoff_after: 6,
                serial_after: 24,
                deadline: Some(Duration::from_secs(2)),
            }
        } else {
            EscalationPolicy { backoff_after: 6, serial_after: u64::MAX, deadline: None }
        };
        Txn::build().site(site).escalation(policy)
    }

    /// Spawn `workers` threads each executing `op(worker, i)` exactly
    /// `self.ops` times, with the backoff RNG pinned per worker.
    fn drive(&self, workers: usize, op: impl Fn(usize, u64) + Sync) -> pool::Run {
        pool::run_fixed(workers, self.ops, self.seed, op)
    }
}

/// MySQL#791 shape (Recipe 2): two counters that must move together.
/// Every 16th op is a torn-group probe reading both in one transaction.
fn av_stats_race(cell: &Cell, tm: bool) -> pool::Run {
    let probe = |i: u64| i % 16 == 15;
    let mut expected = 0u64;
    for _ in 0..cell.threads {
        expected += (0..cell.ops).filter(|&i| !probe(i)).count() as u64;
    }
    let run;
    if tm {
        let key_cache = TVar::new(0u64);
        let hits = TVar::new(0u64);
        let txn = cell.builder("chaos_av_stats", true);
        run = cell.drive(cell.threads, |_, i| {
            let result = txn.try_run(|t| {
                if probe(i) {
                    let a = key_cache.read(t)?;
                    let b = hits.read(t)?;
                    Ok(Some((a, b)))
                } else {
                    key_cache.modify(t, |v| v + 1)?;
                    hits.modify(t, |v| v + 1)?;
                    Ok(None)
                }
            });
            match result {
                Ok((Some((a, b)), _)) if a != b => {
                    cell.violate(format!("torn stats group: key_cache={a} hits={b}"));
                }
                Ok(_) => {}
                Err(e) => cell.violate(format!("stats txn failed terminally: {e:?}")),
            }
        });
        check_eq(cell, "av_stats final key_cache", key_cache.load(), expected);
        check_eq(cell, "av_stats final hits", hits.load(), expected);
    } else {
        let stats = parking_lot::Mutex::new((0u64, 0u64));
        run = cell.drive(cell.threads, |_, i| {
            let mut s = stats.lock();
            if probe(i) {
                if s.0 != s.1 {
                    cell.violate(format!("torn stats group: {} != {}", s.0, s.1));
                }
            } else {
                s.0 += 1;
                s.1 += 1;
            }
        });
        let s = stats.lock();
        check_eq(cell, "av_stats final key_cache", s.0, expected);
        check_eq(cell, "av_stats final hits", s.1, expected);
    }
    run
}

/// Local lock-order inversion (Recipe 1): transfers between accounts must
/// conserve the total. Every 16th op audits the sum transactionally.
fn dl_local_lock_order(cell: &Cell, tm: bool) -> pool::Run {
    const ACCOUNTS: usize = 8;
    const TOTAL: i64 = 8 * 1_000;
    let pick = |t: usize, i: u64| -> (usize, usize) {
        let src = (i as usize).wrapping_mul(7).wrapping_add(t) % ACCOUNTS;
        let dst = (i as usize).wrapping_mul(13).wrapping_add(3) % ACCOUNTS;
        if src == dst {
            (src, (dst + 1) % ACCOUNTS)
        } else {
            (src, dst)
        }
    };
    let audit = |i: u64| i % 16 == 15;
    let run;
    if tm {
        let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(1_000)).collect();
        let txn = cell.builder("chaos_dl_local", true);
        run = cell.drive(cell.threads, |t, i| {
            let result = txn.try_run(|txn| {
                if audit(i) {
                    let mut sum = 0;
                    for account in &accounts {
                        sum += account.read(txn)?;
                    }
                    Ok(sum)
                } else {
                    let (src, dst) = pick(t, i);
                    accounts[src].modify(txn, |v| v - 1)?;
                    accounts[dst].modify(txn, |v| v + 1)?;
                    Ok(TOTAL)
                }
            });
            match result {
                Ok((sum, _)) if sum != TOTAL => {
                    cell.violate(format!("transfer sum {sum} != {TOTAL} mid-run"));
                }
                Ok(_) => {}
                Err(e) => cell.violate(format!("transfer txn failed terminally: {e:?}")),
            }
        });
        let sum: i64 = accounts.iter().map(TVar::load).sum();
        check_eq(cell, "dl_local final sum", sum, TOTAL);
    } else {
        let accounts: Vec<parking_lot::Mutex<i64>> =
            (0..ACCOUNTS).map(|_| parking_lot::Mutex::new(1_000)).collect();
        run = cell.drive(cell.threads, |t, i| {
            if audit(i) {
                // Lock in index order to audit a consistent cut.
                let guards: Vec<_> = accounts.iter().map(|a| a.lock()).collect();
                let sum: i64 = guards.iter().map(|g| **g).sum();
                if sum != TOTAL {
                    cell.violate(format!("transfer sum {sum} != {TOTAL} mid-run"));
                }
            } else {
                let (src, dst) = pick(t, i);
                let (lo, hi) = (src.min(dst), src.max(dst));
                let mut a = accounts[lo].lock();
                let mut b = accounts[hi].lock();
                let (from, to) = if lo == src { (&mut *a, &mut *b) } else { (&mut *b, &mut *a) };
                *from -= 1;
                *to += 1;
            }
        });
        let sum: i64 = accounts.iter().map(|a| *a.lock()).sum();
        check_eq(cell, "dl_local final sum", sum, TOTAL);
    }
    run
}

/// Mozilla#54743 shape (Recipe 3): cache and atom-table locks acquired in
/// opposite orders; data lives in TVars so revocation rolls it back.
fn dl_cache_atomtable(cell: &Cell, tm: bool) -> pool::Run {
    let probe = |i: u64| i % 16 == 15;
    let mut expected = 0u64;
    for _ in 0..cell.threads {
        expected += (0..cell.ops).filter(|&i| !probe(i)).count() as u64;
    }
    let run;
    if tm {
        let cache = TxMutex::new("chaos.cache", ());
        let atoms = TxMutex::new("chaos.atoms", ());
        let cache_v = TVar::new(0u64);
        let atoms_v = TVar::new(0u64);
        let txn = cell.builder("chaos_dl_cache", false);
        run = cell.drive(cell.threads, |t, i| {
            let (first, second) = if t % 2 == 0 { (&cache, &atoms) } else { (&atoms, &cache) };
            let result = txn.try_run(|txn| {
                first.with_tx(txn, |()| ())?;
                second.with_tx(txn, |()| ())?;
                if probe(i) {
                    let a = cache_v.read(txn)?;
                    let b = atoms_v.read(txn)?;
                    Ok(Some((a, b)))
                } else {
                    cache_v.modify(txn, |v| v + 1)?;
                    atoms_v.modify(txn, |v| v + 1)?;
                    Ok(None)
                }
            });
            match result {
                Ok((Some((a, b)), _)) if a != b => {
                    cell.violate(format!("torn cache/atoms pair: {a} != {b}"));
                }
                Ok(_) => {}
                Err(e) => cell.violate(format!("cache/atoms txn failed terminally: {e:?}")),
            }
        });
        check_eq(cell, "dl_cache final cache_v", cache_v.load(), expected);
        check_eq(cell, "dl_cache final atoms_v", atoms_v.load(), expected);
    } else {
        let cache = parking_lot::Mutex::new(0u64);
        let atoms = parking_lot::Mutex::new(0u64);
        run = cell.drive(cell.threads, |_, i| {
            // The developers' fix: one global order, whatever the caller
            // wanted.
            let mut c = cache.lock();
            let mut a = atoms.lock();
            if probe(i) {
                if *c != *a {
                    cell.violate(format!("torn cache/atoms pair: {} != {}", *c, *a));
                }
            } else {
                *c += 1;
                *a += 1;
            }
        });
        check_eq(cell, "dl_cache final cache_v", *cache.lock(), expected);
        check_eq(cell, "dl_cache final atoms_v", *atoms.lock(), expected);
    }
    run
}

/// One 16-byte log record: `<` + 2-digit worker + 12-digit op + `>`.
fn file_record(t: usize, i: u64) -> [u8; 16] {
    let mut rec = [0u8; 16];
    let text = format!("<{:02}{:012}>", t % 100, i);
    rec.copy_from_slice(text.as_bytes());
    rec
}

/// Apache#25520 shape (Recipe 2): concurrent appends of fixed-size records
/// through the transactional file layer; injected I/O faults drive the
/// undo hooks. Invariants: exactly-once appends, no torn records, and no
/// pending state leaked after quiescence.
fn apache_ii(cell: &Cell, tm: bool) -> pool::Run {
    let fs = SimFs::new();
    let xf = XFile::open_or_create(&fs, "chaos.log");
    let run = if tm {
        let txn = cell.builder("chaos_apache_ii", false);
        cell.drive(cell.threads, |t, i| {
            let rec = file_record(t, i);
            if let Err(e) = txn.try_run(|txn| xf.x_append(txn, &rec)) {
                cell.violate(format!("append txn failed terminally: {e:?}"));
            }
        })
    } else {
        let lock = parking_lot::Mutex::new(());
        cell.drive(cell.threads, |t, i| {
            let _g = lock.lock();
            xf.file().append(&file_record(t, i));
        })
    };
    let data = xf.file().read_all();
    check_eq(cell, "apache_ii log length", data.len() as u64, run.ops * 16);
    let mut per_worker = vec![0u64; cell.threads];
    for chunk in data.chunks(16) {
        if chunk.len() != 16 || chunk[0] != b'<' || chunk[15] != b'>' {
            cell.violate(format!("torn log record: {chunk:?}"));
            continue;
        }
        let worker: usize = std::str::from_utf8(&chunk[1..3])
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(usize::MAX);
        match per_worker.get_mut(worker) {
            Some(count) => *count += 1,
            None => cell.violate(format!("log record from unknown worker {worker}")),
        }
    }
    for (worker, &count) in per_worker.iter().enumerate() {
        if count != cell.ops {
            cell.violate(format!(
                "worker {worker} has {count} records, expected {} (lost or duplicated appends)",
                cell.ops
            ));
        }
    }
    match xf.pending_snapshot() {
        Some((0, 0)) => {}
        Some((owner, ops)) => {
            cell.violate(format!("pending state leaked: owner={owner} ops={ops}"));
        }
        None => cell.violate("isolation lock still held after quiescence".into()),
    }
    run
}

/// The deterministic payload byte worker `t` produces at op `i`.
fn pipe_byte(t: usize, i: u64) -> u8 {
    ((t.wrapping_mul(131) as u64).wrapping_add(i.wrapping_mul(7)) % 251) as u8
}

/// Producer/consumer handoff over a bounded pipe: deferred transactional
/// writes against compensated reads. Conservation: every byte produced is
/// consumed exactly once, even when aborts force read compensation.
fn pipe_handoff(cell: &Cell, tm: bool) -> pool::Run {
    let producers = (cell.threads / 2).max(1);
    let consumers = (cell.threads - producers).max(1);
    let expected_count = producers as u64 * cell.ops;
    let mut expected_sum = 0u64;
    for t in 0..producers {
        for i in 0..cell.ops {
            expected_sum += u64::from(pipe_byte(t, i));
        }
    }
    let pipe = SimPipe::new(64);
    let run;
    if tm {
        let xp = XPipe::new(pipe.clone());
        let consumed_count = TVar::new(0u64);
        let consumed_sum = TVar::new(0u64);
        let produce = cell.builder("chaos_pipe_produce", false);
        let consume = cell.builder("chaos_pipe_consume", false);
        run = std::thread::scope(|s| {
            for c in 0..consumers {
                let (xp, consume, cell) = (&xp, &consume, &cell);
                let (consumed_count, consumed_sum) = (&consumed_count, &consumed_sum);
                s.spawn(move || {
                    pool::pin_worker_rng(cell.seed, producers + c);
                    while consumed_count.load() < expected_count {
                        let result = consume.try_run(|txn| {
                            match xp.x_try_read(txn, 16)? {
                                Some(bytes) if !bytes.is_empty() => {
                                    // Count and sum move with the read in
                                    // one transaction: an abort compensates
                                    // the read AND rolls the counters back.
                                    let n = bytes.len() as u64;
                                    let sum: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
                                    consumed_count.modify(txn, |v| v + n)?;
                                    consumed_sum.modify(txn, |v| v + sum)?;
                                    Ok(true)
                                }
                                _ => Ok(false),
                            }
                        });
                        match result {
                            Ok((true, _)) => {}
                            Ok((false, _)) => std::thread::yield_now(),
                            Err(e) => {
                                cell.violate(format!("consume txn failed terminally: {e:?}"));
                                return;
                            }
                        }
                    }
                });
            }
            cell.drive(producers, |t, i| {
                let byte = [pipe_byte(t, i)];
                if let Err(e) = produce.try_run(|txn| xp.x_write(txn, &byte)) {
                    cell.violate(format!("produce txn failed terminally: {e:?}"));
                }
            })
        });
        check_eq(cell, "pipe_handoff consumed bytes", consumed_count.load(), expected_count);
        check_eq(cell, "pipe_handoff consumed checksum", consumed_sum.load(), expected_sum);
    } else {
        let consumed_count = AtomicU64::new(0);
        let consumed_sum = AtomicU64::new(0);
        run = std::thread::scope(|s| {
            for _ in 0..consumers {
                let (pipe, consumed_count, consumed_sum) = (&pipe, &consumed_count, &consumed_sum);
                s.spawn(move || {
                    while consumed_count.load(Ordering::SeqCst) < expected_count {
                        match pipe.try_read(16) {
                            Some(bytes) if !bytes.is_empty() => {
                                let sum: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
                                consumed_count.fetch_add(bytes.len() as u64, Ordering::SeqCst);
                                consumed_sum.fetch_add(sum, Ordering::SeqCst);
                            }
                            _ => std::thread::yield_now(),
                        }
                    }
                });
            }
            cell.drive(producers, |t, i| pipe.write(&[pipe_byte(t, i)]))
        });
        check_eq(cell, "pipe_handoff consumed bytes", consumed_count.into_inner(), expected_count);
        check_eq(cell, "pipe_handoff consumed checksum", consumed_sum.into_inner(), expected_sum);
    }
    check_eq(cell, "pipe_handoff residual bytes", pipe.buffered() as u64, 0);
    run
}

/// Mozilla#19421 shape (§5.3.2): commit-time async submissions must run
/// exactly once — aborted attempts (including injected submission
/// failures) never enqueue, committed ones always do.
fn async_once(cell: &Cell, tm: bool) -> pool::Run {
    let aio = AsyncIo::new();
    let completed = Arc::new(AtomicU64::new(0));
    let run;
    if tm {
        let submitted = TVar::new(0u64);
        let txn = cell.builder("chaos_async_once", false);
        run = cell.drive(cell.threads, |_, _| {
            let done = completed.clone();
            let result = txn.try_run(|t| {
                submitted.modify(t, |v| v + 1)?;
                let done = done.clone();
                aio.x_submit(
                    t,
                    || (),
                    move |()| {
                        done.fetch_add(1, Ordering::SeqCst);
                    },
                )
            });
            if let Err(e) = result {
                cell.violate(format!("submit txn failed terminally: {e:?}"));
            }
        });
        check_eq(cell, "async_once submitted", submitted.load(), run.ops);
    } else {
        let submitted = AtomicU64::new(0);
        run = cell.drive(cell.threads, |_, _| {
            submitted.fetch_add(1, Ordering::SeqCst);
            let done = completed.clone();
            aio.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
        check_eq(cell, "async_once submitted", submitted.into_inner(), run.ops);
    }
    if !aio.drain(Duration::from_secs(10)) {
        cell.violate("async queue failed to drain".into());
    }
    check_eq(cell, "async_once completed", completed.load(Ordering::SeqCst), run.ops);
    aio.shutdown();
    run
}

fn check_eq<T: PartialEq + std::fmt::Debug>(cell: &Cell, what: &str, got: T, want: T) {
    cell.sink.check_eq(what, got, want);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The tests that run cells, and the stress and case-study tests that
    // need no plan armed, hold `hooks::arm(0)`. The case-study tests also
    // need the cores to themselves: MySQL-I's wall-clock ratio is parity
    // when another test takes the parallelism Recipe 4 loses.
    use txfix_stm::hooks;

    #[test]
    fn scenarios_keep_the_artifact_row_order() {
        assert_eq!(
            SCENARIOS,
            [
                "av_stats_race",
                "dl_local_lock_order",
                "dl_cache_atomtable",
                "apache_ii",
                "pipe_handoff",
                "async_once",
            ]
        );
    }

    #[test]
    fn every_schedule_maps_to_a_plan() {
        for &schedule in SCHEDULES {
            let plan = FaultPlan::named(schedule, 7).expect(schedule);
            assert_eq!(plan == FaultPlan::new(7), schedule == "baseline", "{schedule}");
        }
    }

    #[test]
    fn full_sweep_passes_all_invariants() {
        let _g = hooks::arm(0);
        let runs = run_chaos(&ChaosConfig { seed: 0xFEED, ..ChaosConfig::default() });
        assert_eq!(runs.len(), SCENARIOS.len() * SCHEDULES.len() * 2);
        for run in &runs {
            assert!(
                run.passed(),
                "{}/{}/{}: {:?}",
                run.scenario,
                run.schedule,
                run.variant,
                run.violations
            );
            assert!(run.ops > 0);
        }
    }

    #[test]
    fn report_is_deterministic_for_a_fixed_seed() {
        let _g = hooks::arm(0);
        let cfg = ChaosConfig { seed: 0xD00D, scenarios: vec!["av_stats_race", "pipe_handoff"] };
        let a = chaos_report(&cfg, &run_chaos(&cfg)).to_json();
        let b = chaos_report(&cfg, &run_chaos(&cfg)).to_json();
        assert_eq!(a, b, "chaos report must be bit-for-bit reproducible");
        let parsed = Json::parse(&a).expect("valid JSON");
        let obj = parsed.object("report").unwrap();
        assert_eq!(obj.get("schema").unwrap().string("schema").unwrap(), "txfix-chaos-v1");
        assert!(obj.get("passed").unwrap().bool("passed").unwrap());
    }

    #[test]
    fn injected_faults_actually_fire() {
        let _g = hooks::arm(0);
        let run = run_cell(0xBEEF, "av_stats_race", "commit_faults", true);
        // Counters survive the guard: this is the cell's total.
        let injected = txfix_stm::chaos::injected_total();
        assert!(run.passed(), "{:?}", run.violations);
        assert!(injected > 0, "commit_faults schedule should inject faults");
    }
}
