//! `kvbench`: the repo's wall-clock benchmark (see `README.md` beside this
//! crate and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! kvbench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//!         [--out-dir DIR]
//! kvbench --print-benchmark-json
//! ```
//!
//! Prints one `name unit value` line per metric and, as the last line of a
//! workload, one JSON object `{correct, attempted, failed, metrics}`; exits
//! non-zero if any output was wrong. `--trace 0` gives the end-to-end
//! metrics with all tracing off; `--trace 1` gives the per-layer ones.

mod driver;
mod probes;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use txfix_bench::workload::Workload;
use txfix_kvstore::Mode;
use txfix_stm::obs;

use driver::{run_modes, ModeRun, Plan, Rounds, DELETE, GET, PUT, SCAN};
use probes::Shapes;
use spec::{WorkloadSpec, CLIENTS, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{median, percentile};
use trace::Trace;

struct Args {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Same code paths at a fiftieth of the ops and two rounds per mode.
    smoke: bool,
    out_dir: PathBuf,
}

impl Args {
    /// Ops per client per round: the workload's, or a fiftieth under `--smoke`.
    fn ops_per_client(&self, spec: &WorkloadSpec) -> u64 {
        if self.smoke {
            spec.ops_per_client / 50
        } else {
            spec.ops_per_client
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "kvbench: {problem}\nusage: kvbench [--workload {}] [--seed S] [--seconds T] [--trace \
         0|1] [--smoke] [--out-dir DIR] | --print-benchmark-json",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let spec = spec::workload(&name)
                    .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
                args.workloads = vec![spec];
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--print-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    args
}

/// One workload's result: every declared metric of the chosen kind, in
/// declaration order, plus the correctness tally.
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    trace: Option<Trace>,
}

/// `q`-quantile of `lat_ns` in `scale` units, 0 without enough samples.
fn quantile(lat_ns: &[u32], q: f64, scale: f64) -> f64 {
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q).map_or(0.0, |ns| ns as f64 / scale)
}

/// `whole` minus its `parts`; 0 when the workload has no such op.
fn self_time(whole: f64, parts: &[f64]) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        whole - parts.iter().sum::<f64>()
    }
}

fn run_workload(spec: &'static WorkloadSpec, args: &Args) -> Outcome {
    let plan = Plan {
        spec,
        workload: Workload::new(spec.cfg()),
        seed: args.seed,
        ops_per_client: args.ops_per_client(spec),
        epoch: Instant::now(),
    };
    // `--seconds` is the measuring time of the run, shared by the modes.
    let budgeted = |share: f64| {
        if args.smoke {
            Rounds::Fixed(2)
        } else {
            Rounds::Budget(Duration::from_secs_f64(args.seconds * share))
        }
    };
    let pair = |modes: [Mode; 2], rounds| -> [ModeRun; 2] {
        run_modes(&plan, &modes, rounds, &mut Trace::off())
            .try_into()
            .unwrap_or_else(|_| unreachable!("one run per mode"))
    };
    let mut runs: Vec<ModeRun> = Vec::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut trace = None;

    if !args.trace {
        let [dev, tm] = pair([Mode::Dev, Mode::Tm], budgeted(1.0));
        // The checkpoint and the reopen run the same code in every mode.
        let pooled = |f: fn(&ModeRun) -> &Vec<f64>| {
            median(&[f(&dev).as_slice(), f(&tm).as_slice()].concat())
        };
        metrics.extend([
            ("setup_s", median(&tm.setup_s)),
            ("tm.ops_per_s", tm.ops_per_s()),
            ("dev.ops_per_s", dev.ops_per_s()),
            ("tm.get_p50_us", quantile(&tm.lat_ns[GET], 0.50, 1e3)),
            ("checkpoint_ms", pooled(|r| &r.checkpoint_ms)),
            ("recover_s", pooled(|r| &r.recover_s)),
        ]);
        runs.extend([dev, tm]);
    } else {
        // Untraced first: the base of `trace.overhead_share`, the
        // caller-visible numbers that only some workloads have, and hybrid
        // beside tm (they differ on `contended_mix` only).
        let [base, hybrid] = pair([Mode::Tm, Mode::Hybrid], budgeted(0.5));
        let mut t = Trace::new(plan.epoch);
        let mut traced = |mode| run_modes(&plan, &[mode], Rounds::Fixed(2), &mut t).remove(0);
        obs::enable();
        let s0 = obs::snapshot();
        let tm = traced(Mode::Tm);
        let s1 = obs::snapshot();
        let dev = traced(Mode::Dev);
        let s2 = obs::snapshot();
        obs::disable();

        let wal_end_bytes = tm.wal_bytes as usize / (tm.rounds * spec.shards);
        let buckets = plan.config(Mode::Tm).buckets_per_shard;
        let shapes = Shapes::new(tm.shard0_preload.clone(), buckets, wal_end_bytes);
        let probed = probes::run(&plan, &shapes, &mut t);
        let probe = |name: &str| probed.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);

        let tm_obs = s1.delta(&s0);
        let kv_sites = ["kv_get", "kv_put", "kv_delete", "kv_scan"].map(obs::intern);
        let kv = |f: fn(&obs::SiteSnapshot) -> u64| {
            kv_sites.iter().filter_map(|&id| tm_obs.site(id)).map(f).sum::<u64>() as f64
        };
        let all = |snap: &obs::ObsSnapshot, f: fn(&obs::SiteSnapshot) -> u64| {
            snap.sites.iter().map(f).sum::<u64>() as f64
        };
        let p50 = |run: &ModeRun, kind: usize| quantile(&run.lat_ns[kind], 0.50, 1.0);
        let (get, put) = (p50(&tm, GET), p50(&tm, PUT));
        let entries = (spec.keys as f64).max(1.0);
        let writes = [&base.lat_ns[PUT][..], &base.lat_ns[DELETE][..]].concat();
        metrics.extend([
            ("tm.get_p99_us", quantile(&base.lat_ns[GET], 0.99, 1e3)),
            ("tm.write_p50_us", quantile(&writes, 0.50, 1e3)),
            ("tm.write_p99_us", quantile(&writes, 0.99, 1e3)),
            ("tm.scan_p50_us", quantile(&base.lat_ns[SCAN], 0.50, 1e3)),
            ("write_amp", base.write_amp()),
            ("hybrid.ops_per_s", hybrid.ops_per_s()),
            ("store.get_ns_p50", get),
            ("store.put_ns_p50", put),
            ("store.delete_ns_p50", p50(&tm, DELETE)),
            ("store.scan_ns_p50", p50(&tm, SCAN)),
            ("store.dev.get_ns_p50", p50(&dev, GET)),
            ("store.dev.put_ns_p50", p50(&dev, PUT)),
            ("store.attempts_per_op", tm.attempts as f64 / tm.ops as f64),
            ("store.aborts", (tm.attempts - tm.ops) as f64),
            ("store.escalations", tm.escalations as f64),
            ("store.serial_commits", hybrid.serial_commits as f64),
            ("store.bucket_entries_mean", entries / (spec.shards * buckets) as f64),
            ("store.open_ns", median(&tm.recover_s) * 1e9),
            ("store.checkpoint_ns_per_entry", median(&tm.checkpoint_ms) * 1e6 / entries),
            // Self time: what the store adds around the layers it calls
            // (negative = the probes overstate them: unresolved).
            ("store.self_get_ns", self_time(get, &[probe("stm.get_shape_ns")])),
            (
                "store.self_put_ns",
                self_time(put, &[probe("stm.put_shape_ns"), probe("wal.log_put_mid_ns")]),
            ),
            // The paper's cost multiple (3-5x for STM instrumentation).
            ("store.tm_over_dev", dev.ops_per_s() / tm.ops_per_s()),
            ("stm.obs.commits", kv(|s| s.commits)),
            ("stm.obs.aborts_validation", kv(|s| s.aborts_validation)),
            ("stm.obs.aborts_orec", kv(|s| s.aborts_orec)),
            ("stm.obs.backoff_ns", kv(|s| s.backoff_ns)),
            ("stm.obs.escalations", kv(|s| s.escalations)),
            ("txlock.obs.lock_acquisitions", all(&s2.delta(&s1), |s| s.lock_acquisitions)),
            ("xcall.obs.xcalls", all(&tm_obs, |s| s.xcalls)),
            ("host.speed_p50", median(&base.host_speed)),
            ("trace.overhead_share", 1.0 - tm.ops_per_s() / base.ops_per_s()),
            ("trace.spans", t.recorded as f64),
            ("trace.history_events", (tm.history_events + dev.history_events) as f64),
        ]);
        metrics.extend(probed);
        runs.extend([base, hybrid, tm, dev]);
        trace = Some(t);
    }

    // Report in declaration order; a metric the runner forgot is a bug.
    let declared = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    assert_eq!(metrics.len(), declared.len(), "runner and spec disagree on the metric set");
    let metrics = declared
        .iter()
        .map(|d| {
            let value = metrics.iter().find(|(n, _)| *n == d.name);
            let value = value.unwrap_or_else(|| panic!("metric {} was not measured", d.name)).1;
            (d.name, if value.is_finite() { value } else { 0.0 })
        })
        .collect();
    Outcome {
        metrics,
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        trace,
    }
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).expect("only declared metrics are reported");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out_dir).expect("cannot create the output directory");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("KVBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let mut all_correct = true;
    for &spec in &args.workloads {
        let outcome = run_workload(spec, &args);
        let correct = outcome.failed == 0;
        all_correct &= correct;
        let sizes = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"nproc\": \
             {nproc}, \"rustc\": \"{rustc}\", \"clients\": {CLIENTS}, \"shards\": {}, \"keys\": \
             {}, \"theta\": {}, \"mix\": \"{}\", \"ops_per_client_per_round\": {}",
            spec.name,
            args.seed,
            args.seconds,
            args.smoke,
            spec.shards,
            spec.keys,
            spec.theta,
            spec.mix.name(),
            args.ops_per_client(spec),
        );
        if let Some(trace) = &outcome.trace {
            let path = args.out_dir.join(format!("trace-{}.json", spec.name));
            trace.write_json(&path, &sizes).expect("cannot write the trace file");
        }
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            outcome.attempted,
            outcome.failed,
            metrics_json(&outcome.metrics)
        );
        // One line per run, appended: a results file is a set of runs.
        let mut results = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(args.out_dir.join("results.jsonl"))
            .expect("cannot open the results file");
        writeln!(results, "{{{sizes}, \"trace\": {}, \"result\": {result}}}", args.trace as u8)
            .expect("cannot write the results file");

        let mut text = format!("# {} seed={} trace={}\n", spec.name, args.seed, args.trace as u8);
        for (name, value) in &outcome.metrics {
            let _ = writeln!(text, "{name} {} {value}", spec::unit_of(name).unwrap_or("?"));
        }
        println!("{text}{result}");
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_runner_emits_exactly_the_declared_metrics_on_every_workload() {
        for trace in [false, true] {
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            for spec in &WORKLOADS {
                let args = Args {
                    workloads: vec![spec],
                    seed: 5,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out_dir: PathBuf::new(),
                };
                let outcome = run_workload(spec, &args);
                let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(emitted, declared, "{} trace={trace}", spec.name);
                assert_eq!(outcome.failed, 0, "{} trace={trace}", spec.name);
                assert!(outcome.attempted > 0);
                assert_eq!(outcome.trace.is_some(), trace);
            }
        }
    }
}
