//! Sustained-load sweep over the corpus load harness (`txfix stress`).
//!
//! [`chaos`] proves what each fix variant *survives* under injected
//! faults; this sweep measures what it *sustains*. It runs chaos's
//! kernels ([`SCENARIOS`]) with the chaos layer disarmed — no plan
//! installed at all, so no injection point even counts a hit — at each
//! configured thread count, every worker executing `ops_per_thread`
//! operations, and reports per (scenario, variant, threads) cell:
//!
//! - throughput and per-op latency p50/p99: [`pool::run_fixed`] buckets
//!   every op's latency the way the runtime's observability layer does
//!   ([`txfix_stm::obs`]), so harness-side and runtime-side histograms
//!   are comparable;
//! - commit/abort/revocation/x-call counts from [`obs::snapshot`] deltas
//!   taken at quiescence (before the kernel's workers spawn, after they
//!   join), so the accounting is exact;
//! - the kernel's invariant verdict — the checks chaos asserts — so a fix
//!   that loses an update under load fails the sweep.
//!
//! The TM variant is costed natively: what it pays is the runtime's own
//! per-read validation and commit work, with no overhead model on top.

use crate::chaos::{self, Cell, Kernel, SCENARIOS};
use crate::pool;
use std::fmt::Write as _;
use txfix_core::json::{Json, ToJson};
use txfix_core::sweep::{self, Flag, SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_corpus::Variant;
use txfix_stm::obs;

/// The outcome of one fixed-count run of one scenario variant.
#[derive(Clone, Debug)]
pub struct StressRun {
    /// Scenario key.
    pub scenario: &'static str,
    /// `dev` or `tm` ([`Variant::name`]).
    pub variant: &'static str,
    /// The cell's thread count: its workers, except in `pipe_handoff`,
    /// which splits it into `max(t/2, 1)` producers and the rest (at least
    /// one) consumers, so its 1- and 2-thread rows both run one producer
    /// and one consumer.
    pub threads: usize,
    /// Wall-clock duration of the workers' run (`pipe_handoff`: its
    /// producers', which finish at most one 64-byte pipe ahead of the
    /// consumers).
    pub elapsed_secs: f64,
    /// Operations completed across all workers (`pipe_handoff`: bytes
    /// produced).
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
    /// Invariant violations the kernel observed (empty = the run passed).
    pub violations: Vec<String>,
}

impl StressRun {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
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
            ("passed", Json::Bool(self.passed())),
            ("violations", Json::strings(&self.violations)),
        ])
    }
}

/// Human-readable table, one row per run.
pub fn stress_table(runs: &[StressRun]) -> String {
    let mut table = format!(
        "{:22} {:4} {:>3}  {:>12}  {:>9}  {:>10}  {:>10}  {:>7}  verdict",
        "scenario", "var", "thr", "ops/s", "aborts", "p50", "p99", "abort%"
    );
    for r in runs {
        let verdict = if r.passed() { "ok".to_string() } else { r.violations.join("; ") };
        let _ = write!(
            table,
            "\n{:22} {:4} {:>3}  {:>12.0}  {:>9}  {:>8}ns  {:>8}ns  {:>6.2}%  {}",
            r.scenario,
            r.variant,
            r.threads,
            r.ops_per_sec,
            r.aborts,
            r.p50_ns,
            r.p99_ns,
            r.abort_rate * 100.0,
            verdict
        );
    }
    table
}

/// `txfix stress`: run the corpus load harness, faults off, at each
/// thread count.
pub struct StressSweep {
    /// Seed the workers' backoff-jitter RNGs are pinned from.
    seed: u64,
    /// Operations each worker executes.
    ops_per_thread: u64,
    /// Scenario keys to run (from [`SCENARIOS`]).
    scenarios: Vec<&'static str>,
    /// Thread counts to sweep.
    threads: Vec<usize>,
}

impl Default for StressSweep {
    fn default() -> StressSweep {
        StressSweep {
            seed: 0,
            ops_per_thread: 500_000,
            scenarios: SCENARIOS.to_vec(),
            threads: vec![1, 2, 4, 8],
        }
    }
}

impl StressSweep {
    /// Every configured scenario × thread count × variant, in report
    /// order.
    fn run(&self) -> Vec<StressRun> {
        obs::enable();
        let mut runs = Vec::new();
        for &scenario in &self.scenarios {
            let kernel = chaos::kernel(scenario);
            for &threads in &self.threads {
                for tm in [false, true] {
                    runs.push(self.cell(scenario, kernel, threads, tm));
                }
            }
        }
        runs
    }

    /// One cell: the kernel with no fault plan installed, bracketed by a
    /// quiescent observability delta.
    fn cell(&self, scenario: &'static str, kernel: Kernel, threads: usize, tm: bool) -> StressRun {
        let before = obs::snapshot();
        let (run, violations) = Cell::run(threads, self.ops_per_thread, self.seed, kernel, tm);
        // Workers are joined: the delta is over a quiescent boundary and exact.
        let delta = obs::snapshot().delta(&before);
        let (mut commits, mut aborts, mut revocations, mut xcalls) = (0u64, 0u64, 0u64, 0u64);
        for site in &delta.sites {
            commits += site.commits;
            aborts += site.total_aborts();
            revocations += site.lock_revocations;
            xcalls += site.xcalls;
        }
        StressRun {
            scenario,
            variant: if tm { Variant::TmFix } else { Variant::DevFix }.name(),
            threads,
            elapsed_secs: run.elapsed_secs,
            ops: run.ops,
            ops_per_sec: run.ops as f64 / run.elapsed_secs,
            p50_ns: run.latency.percentile(0.50),
            p99_ns: run.latency.percentile(0.99),
            commits,
            aborts,
            abort_rate: if commits + aborts == 0 {
                0.0
            } else {
                aborts as f64 / (commits + aborts) as f64
            },
            lock_revocations: revocations,
            xcalls,
            violations,
        }
    }

    /// The whole-invocation report document (`BENCH_stm.json`).
    fn report(&self, runs: &[StressRun]) -> Json {
        Json::obj([
            ("schema", Json::str("txfix-stress-v4")),
            ("seed", Json::int(self.seed)),
            ("ops_per_thread", Json::int(self.ops_per_thread)),
            ("host_cores", Json::int(pool::host_cores() as u64)),
            ("threads", Json::list(self.threads.iter().map(|&t| Json::int(t as u64)))),
            ("scenarios", Json::strings(&self.scenarios)),
            ("runs", Json::list(runs.iter().map(ToJson::to_json_value))),
        ])
    }
}

impl SweepRunner for StressSweep {
    fn usage(&self) -> &'static str {
        "\x20 stress [<key>|--all] [--ops N] [--threads 1,2,4,8] [--seed S]\n\
         \x20                              run the chaos kernels with faults off (dev and\n\
         \x20                              tm, N ops per worker), report throughput / abort\n\
         \x20                              rate / latency percentiles, assert invariants,\n\
         \x20                              and write BENCH_stm.json; exits nonzero on any\n\
         \x20                              violation"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_stm.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("stress scenario", SCENARIOS))
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        match flag {
            "--ops" => self.ops_per_thread = sweep::positive(flag, value)?,
            "--threads" => self.threads = sweep::positive_list(flag, value, "1,2,4,8")?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        self.scenarios = args.pick(&SCENARIOS, |s| s);
        self.seed = args.seed.unwrap_or(self.seed);
        let runs = self.run();
        Ok(SweepOutput {
            rendered: self.report(&runs).to_json(),
            table: stress_table(&runs),
            ok: runs.iter().all(StressRun::passed),
            failure: "stress sweep observed invariant violations",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use txfix_stm::chaos as faults;
    use txfix_stm::hooks::{self, CHAOS};

    fn small(scenarios: Vec<&'static str>, threads: Vec<usize>) -> StressSweep {
        StressSweep { seed: 0x5EED, ops_per_thread: 200, scenarios, threads }
    }

    #[test]
    fn every_scenario_sustains_load_in_both_variants() {
        let _g = hooks::arm(0);
        for scenario in SCENARIOS {
            let runs = small(vec![scenario], vec![2]).run();
            let (dev, tm) = (&runs[0], &runs[1]);
            assert_eq!((dev.variant, tm.variant), ("dev", "tm"));
            for run in [dev, tm] {
                assert!(run.passed(), "{scenario}/{}: {:?}", run.variant, run.violations);
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

    /// Set when a kernel started with a fault plan installed.
    static ARMED_IN_KERNEL: AtomicBool = AtomicBool::new(false);

    fn probe(cell: &Cell, tm: bool) -> pool::Run {
        ARMED_IN_KERNEL.fetch_or(hooks::armed(CHAOS), Ordering::SeqCst);
        chaos::kernel("av_stats_race")(cell, tm)
    }

    #[test]
    fn stress_runs_with_the_chaos_layer_disarmed() {
        let _g = hooks::arm(0);
        // Leave nonzero injection counters behind: installing any plan,
        // even the empty `baseline`, zeroes them.
        assert!(chaos::run_cell(0xBEEF, "av_stats_race", "commit_faults", true).passed());
        let injected = faults::injected_total();
        assert!(injected > 0, "commit_faults should leave injections behind");

        let sweep = small(vec!["av_stats_race"], vec![1, 2]);
        for tm in [false, true] {
            assert!(sweep.cell("av_stats_race", probe, 2, tm).passed());
        }
        assert!(!ARMED_IN_KERNEL.load(Ordering::SeqCst), "a stress kernel ran with a plan armed");
        assert!(sweep.run().iter().all(StressRun::passed));
        assert_eq!(faults::injected_total(), injected, "stress installed a fault plan");
        assert!(!hooks::armed(CHAOS));
    }

    #[test]
    fn report_document_is_valid_json() {
        let _g = hooks::arm(0);
        let sweep = small(vec!["av_stats_race"], vec![1]);
        let runs = sweep.run();
        assert_eq!(runs.len(), 2);
        let parsed = Json::parse(&sweep.report(&runs).to_json()).expect("valid JSON");
        let obj = parsed.object("report").unwrap();
        assert_eq!(obj.get("schema").unwrap().string("schema").unwrap(), "txfix-stress-v4");
        assert_eq!(obj.get("ops_per_thread").unwrap().number("ops_per_thread").unwrap(), 200.0);
        assert!(obj.get("host_cores").unwrap().number("host_cores").unwrap() >= 1.0);
        let rows = obj.get("runs").unwrap().array("runs").unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            let row = row.object("run").unwrap();
            assert!(row.get("passed").unwrap().bool("passed").unwrap());
            assert!(row.get("violations").unwrap().array("violations").unwrap().is_empty());
        }
    }
}
