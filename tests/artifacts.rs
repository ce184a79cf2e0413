//! Schema regression tests over the committed result artifacts.
//!
//! Every sweep (`txfix stress/chaos/explore/autofix/crash/canary`) writes its
//! canonical report to the repo root. CI regenerates each one, compares
//! it with the committed copy (`ci/determinism-check.sh`) and then runs
//! these tests over what the sweeps just wrote; in a plain `cargo test`
//! they pin the *committed* copies — if a schema drifts or an artifact
//! records a failing sweep, this says so before any consumer trips.

use txfix::recipes::json::{get, Json};
use txfix::stm::sched::format_trace;

fn load(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed artifact {path} must exist: {e}"));
    Json::parse(&raw).unwrap_or_else(|e| panic!("{name} must parse as JSON: {e}"))
}

/// Assert `doc` carries the schema marker and return its top-level map.
fn check_schema<'a>(
    name: &str,
    doc: &'a Json,
    schema: &str,
) -> &'a std::collections::BTreeMap<String, Json> {
    let obj = doc.object(name).unwrap();
    assert_eq!(get(obj, "schema").unwrap().string("schema").unwrap(), schema, "{name}");
    obj
}

/// Beyond its schema, the stress document carries the perf trajectory of
/// the commit path. The thresholds encode that trajectory, not the paper's
/// aspiration: on `av_stats_race` single-threaded (release build) the
/// overhauled commit path landed at ~6.4× the dev fix's throughput cost,
/// down from ~10.3× before it, and the ops threshold sits between the two
/// so a regression back to the old path fails while machine-to-machine
/// noise does not. On the chaos kernel at 500 000 ops per worker the ratio
/// measured 6.47–7.11× over 15 sweeps on a 2-core host (EXPERIMENTS.md,
/// "Stress sweep: chaos's kernels, faults off"). p50 is only a gross
/// backstop: log₂ buckets quantize the ratio to powers of two (8.2× and
/// 16.3× are adjacent buckets), so its threshold sits above both and below
/// the next bucket (32.6×).
#[test]
fn bench_artifact_matches_stress_schema() {
    let doc = load("BENCH_stm.json");
    let obj = check_schema("BENCH_stm.json", &doc, "txfix-stress-v4");
    let host_cores = get(obj, "host_cores").unwrap().number("host_cores").unwrap();
    assert!(host_cores >= 1.0);
    assert!(get(obj, "ops_per_thread").unwrap().number("ops_per_thread").unwrap() >= 1.0);
    let runs = get(obj, "runs").unwrap().array("runs").unwrap();
    let threads: Vec<f64> = get(obj, "threads")
        .unwrap()
        .array("threads")
        .unwrap()
        .iter()
        .map(|t| t.number("threads").unwrap())
        .collect();
    assert_eq!(runs.len(), 6 * 2 * threads.len(), "6 scenarios x dev/tm x every thread count");
    // (scenario, variant, threads) -> (ops/s, p50 ns)
    let mut by = std::collections::BTreeMap::new();
    for r in runs {
        let run = r.object("run").unwrap();
        let text = |f: &str| get(run, f).unwrap().string(f).unwrap();
        let num = |f: &str| get(run, f).unwrap().number(f).unwrap();
        let key = (text("scenario"), text("variant"), num("threads") as u64);
        let violations = get(run, "violations").unwrap().array("violations").unwrap();
        assert!(get(run, "passed").unwrap().bool("passed").unwrap(), "{key:?}: {violations:?}");
        assert!(num("aborts") >= 0.0 && num("p99_ns") >= num("p50_ns"), "{key:?}");
        by.insert(key, (num("ops_per_sec"), num("p50_ns")));
    }
    let row = |scenario: &str, variant: &str, threads: f64| {
        by[&(scenario.to_string(), variant.to_string(), threads as u64)]
    };
    let lo = threads.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = threads.iter().copied().fold(0.0, f64::max);

    // Single-thread TM overhead vs the dev (lock-based) fix on the
    // reference scenario. The lower bound is §3.2's "3–5×" floor: the
    // native STM already costs a short critical section that much, which
    // is why the repo layers no instrumentation-cost model on top of it.
    // If this bound ever fails, Table 4's TM rows stop standing for the
    // paper's software TM.
    let (dev, tm) = (row("av_stats_race", "dev", lo), row("av_stats_race", "tm", lo));
    let ops_ratio = dev.0 / tm.0.max(1.0);
    let p50_ratio = tm.1 / dev.1.max(1.0);
    assert!(ops_ratio >= 3.0, "av_stats_race @{lo}t: dev/tm ops ratio {ops_ratio:.2} < 3");
    assert!(ops_ratio <= 9.0, "av_stats_race @{lo}t: dev/tm ops ratio {ops_ratio:.2} > 9");
    assert!(p50_ratio <= 20.0, "av_stats_race @{lo}t: tm/dev p50 ratio {p50_ratio:.2} > 20");

    // TM throughput from the narrowest to the widest width must hold up
    // on at least one scenario. Every kernel contends on shared state, so
    // the rule asks for no speedup. Its one threshold comes from a 2-core
    // host: the best scenario read 1.03–1.18× over 15 sweeps at 500 000
    // ops per worker (1→4 and 1→8 threads; EXPERIMENTS.md).
    // Hosts with other core counts have no measured threshold, so the
    // check is skipped there, visibly: one core cannot show parallel
    // speedup, and on more cores these kernels' contention is unmeasured.
    // `pipe_handoff` is left out: its thread count is not its worker
    // count (1 and 2 threads both run one producer and one consumer).
    if lo == hi {
        eprintln!("scaling check: skipped (single thread count {lo} in sweep)");
    } else if host_cores == 1.0 {
        eprintln!(
            "scaling check: SKIPPED — host has 1 core; parallel speedup is not measurable \
             here (recorded as host_cores=1 in the artifact)"
        );
    } else if host_cores != 2.0 {
        eprintln!(
            "scaling check: SKIPPED — no threshold measured for host_cores={host_cores} \
             (the 0.9x threshold comes from a 2-core host)"
        );
    } else {
        let scenarios = get(obj, "scenarios").unwrap().array("scenarios").unwrap();
        let (best, best_key) = scenarios
            .iter()
            .map(|s| s.string("scenario").unwrap())
            .filter(|s| s != "pipe_handoff")
            .map(|s| (row(&s, "tm", hi).0 / row(&s, "tm", lo).0.max(1.0), s))
            .fold((0.0, String::new()), |a, b| if b.0 > a.0 { b } else { a });
        eprintln!("scaling check ({lo}->{hi}t, host_cores=2): best {best:.2}x ({best_key})");
        assert!(
            best >= 0.9,
            "no scenario holds its TM throughput {lo}->{hi}t: best {best:.2}x ({best_key}) < 0.9"
        );
    }
}

#[test]
fn chaos_artifact_passed_its_sweep() {
    let doc = load("CHAOS_stm.json");
    let obj = check_schema("CHAOS_stm.json", &doc, "txfix-chaos-v1");
    assert!(get(obj, "passed").unwrap().bool("passed").unwrap(), "committed chaos sweep failed");
    let runs = get(obj, "runs").unwrap().array("runs").unwrap();
    assert_eq!(runs.len(), 6 * 5 * 2, "6 scenarios x 5 schedules x dev/tm");
}

/// The fix cells DFS does not exhaust within its budget of 2 000
/// schedules: the Recipe 3 and `retry` TM fixes, whose spaces are larger
/// than the budget. Every other fix cell is a proof over its reduced
/// schedule space, not a sample.
const UNEXHAUSTED_FIX_CELLS: [(&str, &str); 4] = [
    ("mozilla_i", "tm"),
    ("dl_three_lock_cycle", "tm"),
    ("apache_i", "tm"),
    ("dl_mysql_table_pair", "tm"),
];

#[test]
fn explore_artifact_met_its_expectations() {
    let doc = load("EXPLORE_stm.json");
    let obj = check_schema("EXPLORE_stm.json", &doc, "txfix-explore-v2");
    assert!(get(obj, "ok").unwrap().bool("ok").unwrap(), "committed exploration failed");
    let entries = get(obj, "entries").unwrap().array("entries").unwrap();
    assert_eq!(entries.len(), 18 * 3, "18 scenarios x buggy/dev/tm");
    for e in entries {
        let entry = e.object("entry").unwrap();
        let key = get(entry, "key").unwrap().string("key").unwrap();
        let variant = get(entry, "variant").unwrap().string("variant").unwrap();
        let step_limited = get(entry, "step_limited").unwrap().number("step_limited").unwrap();
        assert_eq!(step_limited, 0.0, "{key}/{variant}: a schedule hit the step bound");
        if variant != "buggy" {
            let exhausted = get(entry, "exhausted").unwrap().bool("exhausted").unwrap();
            let expected = !UNEXHAUSTED_FIX_CELLS.contains(&(key.as_str(), variant.as_str()));
            assert_eq!(exhausted, expected, "{key}/{variant}: exhausted");
            continue;
        }
        // Each row pins its buggy variant to the minimised failing trace
        // recorded here; the two must not drift apart.
        let failure = get(entry, "failure").unwrap().object("failure").unwrap();
        let trace = get(failure, "trace").unwrap().string("trace").unwrap();
        let row = txfix::corpus::scenario_by_key(&key).expect("a corpus row");
        assert_eq!(trace, format_trace(row.bug_trace), "{key}: pinned trace drifted");
    }
}

#[test]
fn autofix_artifact_verified_every_fix() {
    let doc = load("AUTOFIX_stm.json");
    let obj = check_schema("AUTOFIX_stm.json", &doc, "txfix-autofix-v3");
    assert!(get(obj, "ok").unwrap().bool("ok").unwrap(), "committed autofix sweep failed");
    let entries = get(obj, "entries").unwrap().array("entries").unwrap();
    assert_eq!(entries.len(), 18, "one entry per corpus scenario");
    for e in entries {
        let entry = e.object("entry").unwrap();
        let key = get(entry, "key").unwrap().string("key").unwrap();
        assert!(get(entry, "ok").unwrap().bool("ok").unwrap(), "unverified fix for {key}");
        assert!(get(entry, "static_clean").unwrap().bool("static_clean").unwrap(), "{key}");
        let patched = get(entry, "patched").unwrap().object("patched").unwrap();
        assert_eq!(get(patched, "failure").unwrap(), &Json::Null, "{key}: patch broke");
    }
}

#[test]
fn kv_bench_artifact_covers_every_mode_at_two_shard_counts() {
    let doc = load("BENCH_kv.json");
    let obj = check_schema("BENCH_kv.json", &doc, "txfix-kv-v1");
    assert!(get(obj, "ok").unwrap().bool("ok").unwrap(), "committed kv sweep failed");
    assert!(get(obj, "host_cores").unwrap().number("host_cores").unwrap() >= 1.0);
    let w = get(obj, "workload").unwrap().object("workload").unwrap();
    for field in ["keys", "users", "theta_milli", "session_len", "burst_period", "burst_len"] {
        get(w, field).unwrap().number(field).unwrap();
    }
    get(w, "mix").unwrap().string("mix").unwrap();
    let cells = get(obj, "cells").unwrap().array("cells").unwrap();
    let mut seen = std::collections::BTreeSet::new();
    let mut shard_counts = std::collections::BTreeSet::new();
    for c in cells {
        let cell = c.object("cell").unwrap();
        let mode = get(cell, "mode").unwrap().string("mode").unwrap().to_string();
        let shards = get(cell, "shards").unwrap().number("shards").unwrap() as u64;
        seen.insert(mode.clone());
        shard_counts.insert(shards);
        for field in [
            "ops",
            "aborts",
            "escalations",
            "serial_commits",
            "steps",
            "ops_per_kstep",
            "p50_steps",
            "p99_steps",
        ] {
            get(cell, field).unwrap().number(field).unwrap();
        }
        assert!(
            get(cell, "recovered_ok").unwrap().bool("recovered_ok").unwrap(),
            "{mode}/{shards}: recovery diverged"
        );
        assert!(
            get(cell, "clean_run").unwrap().bool("clean_run").unwrap(),
            "{mode}/{shards}: schedule did not finish"
        );
    }
    let want: std::collections::BTreeSet<String> = ["dev", "tm", "hybrid"].map(String::from).into();
    assert_eq!(seen, want, "every mode must be swept");
    assert!(shard_counts.len() >= 2, "at least two shard counts must be swept");
}

#[test]
fn kv_crash_artifact_is_clean_in_every_mode() {
    let doc = load("CRASH_kv.json");
    let obj = check_schema("CRASH_kv.json", &doc, "txfix-crash-kv-v1");
    assert!(get(obj, "ok").unwrap().bool("ok").unwrap(), "committed kv crash sweep failed");
    let modes = get(obj, "modes").unwrap().array("modes").unwrap();
    assert_eq!(modes.len(), 3, "all three store modes swept");
    for m in modes {
        let row = m.object("mode").unwrap();
        let name = get(row, "mode").unwrap().string("mode").unwrap();
        assert!(get(row, "ok").unwrap().bool("ok").unwrap(), "{name} missed its verdict");
        for s in get(row, "schedules").unwrap().array("schedules").unwrap() {
            let sched = s.object("schedule").unwrap();
            let flagged = get(sched, "flagged").unwrap().array("flagged").unwrap();
            assert!(flagged.is_empty(), "{name}: store flagged at {flagged:?}");
            assert!(get(sched, "runs").unwrap().number("runs").unwrap() > 0.0, "{name}");
        }
    }
}

#[test]
fn canary_artifact_has_no_uncaught_canary() {
    let doc = load("CANARY_stm.json");
    let obj = check_schema("CANARY_stm.json", &doc, "txfix-canary-v1");
    assert!(
        get(obj, "ok").unwrap().bool("ok").unwrap(),
        "committed canary matrix records an uncaught canary"
    );
    let canaries = get(obj, "canaries").unwrap().array("canaries").unwrap();
    assert_eq!(canaries.len(), 12, "one matrix row per planted canary");
    let layer_names = ["analyze", "lint", "explore", "chaos", "crash"];
    for c in canaries {
        let row = c.object("canary").unwrap();
        let name = get(row, "canary").unwrap().string("canary").unwrap();
        assert!(get(row, "caught").unwrap().bool("caught").unwrap(), "{name} uncaught");
        let layers = get(row, "layers").unwrap().array("layers").unwrap();
        assert_eq!(layers.len(), layer_names.len(), "{name}");
        for (probe, expected) in layers.iter().zip(layer_names) {
            let p = probe.object("probe").unwrap();
            assert_eq!(get(p, "layer").unwrap().string("layer").unwrap(), expected, "{name}");
            // A probe that caught the canary must have been probed: the
            // matrix may not claim credit for a skipped layer.
            let probed = get(p, "probed").unwrap().bool("probed").unwrap();
            let caught = get(p, "caught").unwrap().bool("caught").unwrap();
            assert!(probed || !caught, "{name}: caught by an unprobed layer");
        }
        // The lint layer is honestly blind to runtime mutations.
        let lint = layers[1].object("probe").unwrap();
        assert!(!get(lint, "probed").unwrap().bool("probed").unwrap(), "{name}");
    }
    // The FIRST WAL bug is caught by the store's crash sweep, at the window
    // between the commit marker and the final sync.
    let first = canaries
        .iter()
        .map(|c| c.object("canary").unwrap())
        .find(|row| {
            get(row, "canary").unwrap().string("canary").unwrap() == "wal_commit_before_fsync"
        })
        .expect("the commit-before-fsync canary has a row");
    let crash = get(first, "layers").unwrap().array("layers").unwrap()[4].object("probe").unwrap();
    assert!(get(crash, "caught").unwrap().bool("caught").unwrap());
    let evidence = get(crash, "evidence").unwrap().string("evidence").unwrap();
    assert!(evidence.contains("wal_after_commit_write"), "{evidence}");
}
