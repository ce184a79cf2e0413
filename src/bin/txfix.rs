//! The `txfix` command-line tool: explore the study corpus, run bug
//! scenarios, and regenerate the paper's tables.
//!
//! ```sh
//! cargo run --bin txfix -- help
//! cargo run --bin txfix -- tables
//! cargo run --bin txfix -- bugs --unfixable
//! cargo run --bin txfix -- show Mozilla#54743
//! cargo run --bin txfix -- scenario apache_i --variant buggy
//! cargo run --bin txfix -- scenarios
//! cargo run --bin txfix -- analyze av_stats_race
//! cargo run --bin txfix -- lint --all
//! ```
//!
//! The sweep subcommands (`stress`, `chaos`, `explore`, `autofix`,
//! `crash`, `canary`, `list`) all run behind the shared
//! [`sweep::SweepRunner`] frame: common `--json`/`--seed`/`--out`
//! parsing, one artifact writer (canonical file plus a timestamped copy
//! under `results/`), one exit-code policy.

use std::fmt::Write as _;
use std::process::ExitCode;
use txfix::corpus::{
    all_bugs, all_scenarios, bug_by_id, bug_by_scenario, keys, scenario_by_key, summary_for,
    Variant,
};
use txfix::lint::{lint_summary, LintReport};
use txfix::recipes::json::ToJson;
use txfix::recipes::sweep::{self, Flag, SweepArgs, SweepExit, SweepOutput, SweepRunner};
use txfix::recipes::{
    analyze, preference, table1, table2, table3, tm_difficulty, Analysis, CorpusSummary, Preference,
};
use txfix::wal::checker::{run_crash_sweep, CrashConfig, CrashReport, CrashSubject, DEFAULT_SEED};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tables") => tables(),
        Some("summary") => summary(),
        Some("bugs") => bugs(args.get(1).map(String::as_str)),
        Some("show") => match args.get(1) {
            Some(id) => show(id),
            None => usage_error("show needs a bug id, e.g. `txfix show Mozilla#54743`"),
        },
        Some("scenarios") => scenarios(),
        Some("scenario") => scenario(&args[1..]),
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("lint") => lint_cmd(&args[1..]),
        Some("stress") => sweep_cmd(&mut StressSweep::default(), &args[1..]),
        Some("kv") => sweep_cmd(&mut KvSweep::default(), &args[1..]),
        Some("chaos") => sweep_cmd(&mut ChaosSweep::default(), &args[1..]),
        Some("explore") => sweep_cmd(&mut ExploreSweep::default(), &args[1..]),
        Some("autofix") => sweep_cmd(&mut AutofixSweep::default(), &args[1..]),
        Some("crash") => sweep_cmd(&mut CrashSweep::default(), &args[1..]),
        Some("canary") => canary_cmd(&args[1..]),
        Some("list") => sweep_cmd(&mut ListSweep, &args[1..]),
        Some("help") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
    }
}

/// Drive one sweep through the shared frame, mapping usage errors to the
/// common usage printer.
fn sweep_cmd(runner: &mut dyn SweepRunner, args: &[String]) -> ExitCode {
    match sweep::run_sweep(runner, args) {
        SweepExit::Done(code) => code,
        SweepExit::Usage(msg) => usage_error(&msg),
    }
}

fn usage() {
    println!(
        "txfix — Applying Transactional Memory to Concurrency Bugs (ASPLOS 2012 reproduction)\n\
         \n\
         USAGE: txfix <command> [args]\n\
         \n\
         Every sweep command also accepts --json (print the report document),\n\
         --out PATH (override the canonical artifact path), and writes a\n\
         timestamped copy of its artifact under results/.\n\
         \n\
         COMMANDS:\n\
         \x20 tables                       print the study's Tables 1-3\n\
         \x20 summary                      print the headline aggregates\n\
         \x20 bugs [--fixable|--unfixable|--implemented]\n\
         \x20                              list the 60-bug corpus (optionally filtered)\n\
         \x20 show <bug-id>                full analysis of one bug\n\
         \x20 scenarios                    list the 18 executable bug reproductions\n\
         \x20 scenario <key> [--variant buggy|dev|tm]\n\
         \x20                              run a reproduction (default: all three variants)\n\
         \x20 analyze <key> [--variant buggy|dev|tm] [--json]\n\
         \x20                              run a variant (default: buggy) under the trace\n\
         \x20                              recorder and report detected bugs with suggested\n\
         \x20                              fix recipes; exits nonzero on findings\n\
         \x20 lint [<key>|--all] [--variant buggy|dev|tm] [--json]\n\
         \x20                              statically analyze critical-section summaries\n\
         \x20                              (default: all three variants) and verify the\n\
         \x20                              synthesized fix recipes; exits nonzero on findings\n\
         \x20 stress [<key>|--all] [--secs N] [--threads 1,2,4,8] [--seed S]\n\
         \x20        [--clock gv1|gv5|both]\n\
         \x20                              sustain open-ended load against the dev and TM\n\
         \x20                              fix variants under each version-clock scheme,\n\
         \x20                              report throughput / abort rate / latency\n\
         \x20                              percentiles, and write BENCH_stm.json\n\
         \x20 kv [dev|tm|hybrid|--all] [--shards 2,4] [--theta T] [--mix G:P:D:S]\n\
         \x20    [--clock gv1|gv5] [--threads N] [--ops N]\n\
         \x20    [--keys N] [--users N] [--seed S]\n\
         \x20                              drive the sharded transactional KV store\n\
         \x20                              (dev locks / TM / hybrid escalation) with the\n\
         \x20                              open-loop Zipfian workload under the\n\
         \x20                              deterministic scheduler; reports virtual-time\n\
         \x20                              throughput, abort/escalation counts and latency\n\
         \x20                              percentiles per mode x shard count, verifies\n\
         \x20                              checkpoint+WAL recovery per cell, and writes\n\
         \x20                              BENCH_kv.json; bit-for-bit reproducible per seed\n\
         \x20 chaos [<key>|--all] [--seed S] [--threads N] [--ops N]\n\
         \x20                              sweep seeded fault-injection schedules over the\n\
         \x20                              corpus scenarios (dev and tm) under concurrent\n\
         \x20                              load, assert invariants after every run, and\n\
         \x20                              write CHAOS_stm.json; exits nonzero on any\n\
         \x20                              violation; bit-for-bit reproducible per seed\n\
         \x20 explore [<key>|--all] [--variant buggy|dev|tm] [--strategy dfs|pct]\n\
         \x20         [--budget N] [--seed S]\n\
         \x20                              model-check scenario schedules under the\n\
         \x20                              deterministic scheduler: every buggy variant\n\
         \x20                              must break within budget (failing schedule\n\
         \x20                              minimized and printed), every fixed variant\n\
         \x20                              must survive all explored schedules; writes\n\
         \x20                              EXPLORE_stm.json; exits nonzero on violations\n\
         \x20 autofix [<key>|--all] [--strategy dfs|pct] [--budget N] [--seed S]\n\
         \x20                              infer atomic-region fixes from static findings,\n\
         \x20                              synthesize the TM patch, and verify it both\n\
         \x20                              statically and by schedule exploration; reports\n\
         \x20                              widenings vs the hand-written TM variant; writes\n\
         \x20                              AUTOFIX_stm.json; exits nonzero on any\n\
         \x20                              unverified fix\n\
         \x20 crash [<variant>|kvstore|--all] [--seed S] [--images N]\n\
         \x20                              sweep every crash point of the WAL workload:\n\
         \x20                              freeze the durable world at the point, take a\n\
         \x20                              seeded crash image, recover, and assert\n\
         \x20                              atomicity / durability / no-resurrection; the\n\
         \x20                              fixed protocol must be clean everywhere and the\n\
         \x20                              planted commit-before-fsync bug must be flagged;\n\
         \x20                              writes CRASH_stm.json; bit-for-bit reproducible\n\
         \x20                              per seed\n\
         \x20 canary [<canary>|--all] [--seed S]\n\
         \x20                              arm one planted detector bug at a time and run\n\
         \x20                              it through every detection layer (analyze, lint,\n\
         \x20                              explore, chaos, crash); writes the txfix-canary-v1\n\
         \x20                              capability matrix to CANARY_stm.json; exits\n\
         \x20                              nonzero if any canary goes uncaught (needs a\n\
         \x20                              build with `--features canary`)\n\
         \x20 list [--json]                the corpus capability map: every scenario key,\n\
         \x20                              its variants, and which detection layers cover it\n\
         \x20 help                         this message"
    );
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    usage();
    ExitCode::FAILURE
}

fn tables() -> ExitCode {
    let bugs = all_bugs();
    println!("{}", table1(&bugs));
    println!("{}", table2(&bugs));
    println!("{}", table3(&bugs));
    ExitCode::SUCCESS
}

fn summary() -> ExitCode {
    let s = CorpusSummary::compute(&all_bugs());
    println!("bugs examined:                 {}", s.total);
    println!(
        "  deadlocks:                   {} ({} fixable)",
        s.deadlocks.total, s.deadlocks.fixable
    );
    println!(
        "  atomicity violations:        {} ({} fixable)",
        s.atomicity.total, s.atomicity.fixable
    );
    println!(
        "TM can fix:                    {} ({:.0}%)",
        s.fixable(),
        100.0 * s.fixable() as f64 / s.total as f64
    );
    println!("  by recipes 1 and 2 alone:    {}", s.fixed_by_simple_recipes);
    println!("  only by recipe 3:            {}", s.fixed_only_by_recipe3);
    println!("  simplified by recipe 3:      {}", s.simplified_by_recipe3);
    println!("  simplified by recipe 4:      {}", s.simplified_by_recipe4);
    println!(
        "TM fix judged preferable:      {} ({} DL / {} AV)",
        s.tm_preferred, s.tm_preferred_deadlock, s.tm_preferred_atomicity
    );
    println!(
        "implemented & tested fixes:    {} ({} DL / {} AV)",
        s.implemented, s.implemented_deadlock, s.implemented_atomicity
    );
    ExitCode::SUCCESS
}

fn bugs(filter: Option<&str>) -> ExitCode {
    let list = all_bugs();
    for b in &list {
        let a = analyze(b);
        let keep = match filter {
            Some("--fixable") => a.is_fixable(),
            Some("--unfixable") => !a.is_fixable(),
            Some("--implemented") => b.is_implemented(),
            Some(other) => return usage_error(&format!("unknown filter `{other}`")),
            None => true,
        };
        if !keep {
            continue;
        }
        let verdict = match &a {
            Analysis::Fixable(p) => format!("fix: {}", p.primary),
            Analysis::Unfixable(r) => format!("NOT FIXABLE: {r}"),
        };
        println!("{:18} {:8} {:20} {}", b.id, b.app.to_string(), b.kind.to_string(), verdict);
    }
    ExitCode::SUCCESS
}

fn show(id: &str) -> ExitCode {
    let Some(b) = bug_by_id(id) else {
        return usage_error(&format!("no bug with id `{id}` (try `txfix bugs`)"));
    };
    println!("{} — {} {}", b.id, b.app, b.kind);
    println!("  {}", b.summary);
    if b.synthetic_id {
        println!("  (id synthesized during dataset reconstruction; see DESIGN.md)");
    }
    println!(
        "  developers' fix: {} ({} LOC, {} attempt{})",
        b.dev_fix.difficulty,
        b.dev_fix.loc,
        b.dev_fix.attempts,
        if b.dev_fix.attempts == 1 { "" } else { "s" }
    );
    let a = analyze(&b);
    match &a {
        Analysis::Fixable(plan) => {
            println!("  TM fix: {}", plan.primary);
            if let Some(simpler) = plan.simplified_by {
                println!("    also simplified by {simpler}");
            }
            if let Some(d) = tm_difficulty(&b, &a) {
                println!("    difficulty: {d}");
            }
            match preference(&b, &a) {
                Some(Preference::Tm) => println!("    judged SIMPLER than the developers' fix"),
                Some(Preference::Developers) => {
                    println!("    developers' fix judged as easy or easier")
                }
                None => {}
            }
        }
        Analysis::Unfixable(r) => println!("  TM cannot fix this bug: {r}"),
    }
    let d = &b.chars.downcalls;
    if d.any() {
        let mut calls = Vec::new();
        if d.condvar {
            calls.push("condition variables");
        }
        if d.retry {
            calls.push("retry");
        }
        if d.io {
            calls.push("I/O");
        }
        if d.long_action {
            calls.push("long actions");
        }
        if d.library {
            calls.push("library calls");
        }
        println!("  atomic blocks contain: {}", calls.join(", "));
    }
    if let Some(key) = b.scenario {
        println!("  executable reproduction: `txfix scenario {key}`");
    }
    ExitCode::SUCCESS
}

fn scenarios() -> ExitCode {
    for s in all_scenarios() {
        println!("{:22} {}", s.key(), s.describe());
    }
    ExitCode::SUCCESS
}

fn analyze_cmd(args: &[String]) -> ExitCode {
    let Some(key) = args.first() else {
        return usage_error("analyze needs a key, e.g. `txfix analyze av_stats_race`");
    };
    let mut variant = Variant::Buggy;
    let mut json = false;
    let mut rest = args[1..].iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "--variant" => match rest.next().map(String::as_str) {
                Some("buggy") => variant = Variant::Buggy,
                Some("dev") => variant = Variant::DevFix,
                Some("tm") => variant = Variant::TmFix,
                _ => return usage_error("--variant takes buggy|dev|tm"),
            },
            "--json" => json = true,
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }
    let Some(report) = txfix::analyze::analyze_scenario(key, variant) else {
        return usage_error(&format!("no scenario `{key}` (try `txfix scenarios`)"));
    };
    if json {
        println!("{}", report.to_json());
    } else {
        let bug_id = bug_by_scenario(key).map(|b| format!(" [{}]", b.id)).unwrap_or_default();
        println!(
            "scenario {}{} — {} variant: {} events recorded",
            report.scenario, bug_id, report.variant, report.events
        );
        match &report.outcome {
            txfix::corpus::Outcome::Correct => println!("  run outcome: clean"),
            txfix::corpus::Outcome::BugObserved(msg) => println!("  run outcome: BUG: {msg}"),
        }
        if report.findings.is_empty() {
            println!("  no findings");
        }
        for f in &report.findings {
            println!("  FINDING: {}", f.kind);
            println!("    {}", f.explanation);
        }
    }
    if report.has_findings() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn lint_cmd(args: &[String]) -> ExitCode {
    let mut key: Option<&str> = None;
    let mut all = false;
    let mut variants: Option<Vec<Variant>> = None;
    let mut json = false;
    let mut rest = args.iter();
    while let Some(opt) = rest.next() {
        match opt.as_str() {
            "--all" => all = true,
            "--variant" => match rest.next().map(String::as_str) {
                Some("buggy") => variants = Some(vec![Variant::Buggy]),
                Some("dev") => variants = Some(vec![Variant::DevFix]),
                Some("tm") => variants = Some(vec![Variant::TmFix]),
                _ => return usage_error("--variant takes buggy|dev|tm"),
            },
            "--json" => json = true,
            other if !other.starts_with('-') && key.is_none() => key = Some(other),
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }
    let selected: Vec<&str> = if all {
        keys::ALL.to_vec()
    } else if let Some(k) = key {
        vec![k]
    } else {
        return usage_error("lint needs a scenario key or --all, e.g. `txfix lint av_stats_race`");
    };
    let variants =
        variants.unwrap_or_else(|| vec![Variant::Buggy, Variant::DevFix, Variant::TmFix]);

    let mut reports = Vec::new();
    for k in &selected {
        for &v in &variants {
            let Some(summary) = summary_for(k, v) else {
                return usage_error(&format!("no scenario `{k}` (try `txfix scenarios`)"));
            };
            let analysis = bug_by_scenario(k).map(|b| analyze(&b));
            match lint_summary(&summary, analysis.as_ref()) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    eprintln!("error: summary for {k} is malformed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if json {
        let doc = txfix::recipes::json::Json::list(reports.iter().map(ToJson::to_json_value));
        println!("{}", doc.to_json());
    } else {
        for r in &reports {
            let bug_id = bug_by_scenario(&r.scenario).map(|b| format!(" [{}]", b.id));
            println!(
                "scenario {}{} — {} variant: {} paths modeled",
                r.scenario,
                bug_id.unwrap_or_default(),
                r.variant,
                r.paths
            );
            if r.findings.is_empty() {
                println!("  no findings");
            }
            for f in &r.findings {
                println!("  FINDING: {}", f.hazard);
                println!("    {}", f.explanation);
                for fix in &f.fixes {
                    let status = if fix.verified { "statically verified" } else { "NOT verified" };
                    println!("    fix: {} — {status}", fix.recipe);
                    for h in &fix.residual {
                        println!("      residual: {h}");
                    }
                    for h in &fix.introduced {
                        println!("      introduced: {h}");
                    }
                }
            }
        }
    }
    if reports.iter().any(LintReport::has_findings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---- sweep commands -------------------------------------------------------

#[derive(Default)]
struct StressSweep {
    cfg: txfix::bench::stress::StressConfig,
}

impl SweepRunner for StressSweep {
    fn name(&self) -> &'static str {
        "stress"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_stm.json")
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        use txfix::stm::ClockMode;
        match flag {
            "--secs" => self.cfg.secs = sweep::positive(flag, value)?,
            "--threads" => self.cfg.threads = sweep::positive_list(flag, value, "1,2,4,8")?,
            "--clock" => {
                self.cfg.clocks = match value {
                    Some("both") => vec![ClockMode::Gv1, ClockMode::Gv5],
                    Some(name) => vec![ClockMode::parse(name).ok_or("--clock takes gv1|gv5|both")?],
                    None => return Err("--clock takes gv1|gv5|both".into()),
                }
            }
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        use txfix::bench::stress;
        if args.all {
            return Ok(());
        }
        if args.keys.is_empty() {
            return Err("stress needs a scenario key or --all, e.g. `txfix stress --all`".into());
        }
        self.cfg.scenarios =
            sweep::select_from("stress scenario", stress::SCENARIOS, |s| s, &args.keys)?;
        Ok(())
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::bench::stress;
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let runs = stress::run_stress(&self.cfg);
        let rendered = stress::stress_report(&self.cfg, &runs).to_json();
        let mut table = format!(
            "{:22} {:4} {:5} {:>3}  {:>12}  {:>9}  {:>10}  {:>10}  {:>7}",
            "scenario", "var", "clock", "thr", "ops/s", "aborts", "p50", "p99", "abort%"
        );
        for r in &runs {
            let _ = write!(
                table,
                "\n{:22} {:4} {:5} {:>3}  {:>12.0}  {:>9}  {:>8}ns  {:>8}ns  {:>6.2}%",
                r.scenario,
                r.variant,
                r.clock,
                r.threads,
                r.ops_per_sec,
                r.aborts,
                r.p50_ns,
                r.p99_ns,
                r.abort_rate * 100.0
            );
        }
        Ok(SweepOutput { rendered, table, ok: true, failure: "" })
    }
}

struct KvSweep {
    cfg: txfix::bench::kv::KvBenchConfig,
}

impl Default for KvSweep {
    fn default() -> KvSweep {
        use txfix::bench::kv::{KvBenchConfig, DEFAULT_SEED};
        // `select` fills in the swept modes; everything else starts at the
        // committed-artifact defaults.
        KvSweep { cfg: KvBenchConfig { modes: Vec::new(), ..KvBenchConfig::full(DEFAULT_SEED) } }
    }
}

impl SweepRunner for KvSweep {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_kv.json")
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        use txfix::bench::workload::Mix;
        use txfix::stm::ClockMode;
        match flag {
            "--shards" => self.cfg.shard_counts = sweep::positive_list(flag, value, "2,4")?,
            "--theta" => {
                self.cfg.workload.theta = value
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|t| (0.0..=8.0).contains(t))
                    .ok_or("--theta takes a skew in 0..=8, e.g. 0.9")?
            }
            "--mix" => {
                self.cfg.workload.mix = value
                    .and_then(Mix::parse)
                    .ok_or("--mix takes get:put:delete:scan weights, e.g. 80:15:3:2")?
            }
            "--clock" => {
                self.cfg.clock = value.and_then(ClockMode::parse).ok_or("--clock takes gv1|gv5")?
            }
            "--threads" => self.cfg.threads = sweep::positive(flag, value)?,
            "--ops" => self.cfg.ops_per_thread = sweep::positive(flag, value)?,
            "--keys" => self.cfg.workload.keys = sweep::positive(flag, value)?,
            "--users" => self.cfg.workload.users = sweep::positive(flag, value)?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        use txfix::kvstore::Mode;
        if args.all {
            self.cfg.modes = Mode::ALL.to_vec();
            return Ok(());
        }
        if args.keys.is_empty() {
            return Err("kv needs a mode or --all, e.g. `txfix kv --all`".into());
        }
        self.cfg.modes = sweep::select_from("kv mode", &Mode::ALL, Mode::name, &args.keys)?;
        Ok(())
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::bench::kv;
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let cells = kv::run_kv_bench(&self.cfg);
        let report = kv::kv_report(&self.cfg, cells);
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok,
            failure: "kv sweep: a cell did not run clean or did not recover",
        })
    }
}

#[derive(Default)]
struct ChaosSweep {
    cfg: txfix::bench::chaos::ChaosConfig,
}

impl SweepRunner for ChaosSweep {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("CHAOS_stm.json")
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        match flag {
            "--threads" => self.cfg.threads = sweep::positive(flag, value)?,
            "--ops" => self.cfg.ops_per_thread = sweep::positive(flag, value)?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        use txfix::bench::chaos;
        if args.all {
            return Ok(());
        }
        if args.keys.is_empty() {
            return Err("chaos needs a scenario key or --all, e.g. `txfix chaos --all`".into());
        }
        self.cfg.scenarios =
            sweep::select_from("chaos scenario", chaos::SCENARIOS, |s| s, &args.keys)?;
        Ok(())
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::bench::chaos;
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let runs = chaos::run_chaos(&self.cfg);
        let rendered = chaos::chaos_report(&self.cfg, &runs).to_json();
        let mut table = format!(
            "{:22} {:14} {:4} {:>3}  {:>7}  verdict",
            "scenario", "schedule", "var", "thr", "ops"
        );
        for r in &runs {
            let verdict = if r.passed() { "ok".to_string() } else { r.violations.join("; ") };
            let _ = write!(
                table,
                "\n{:22} {:14} {:4} {:>3}  {:>7}  {}",
                r.scenario, r.schedule, r.variant, r.threads, r.ops, verdict
            );
        }
        Ok(SweepOutput {
            rendered,
            table,
            ok: runs.iter().all(chaos::ChaosRun::passed),
            failure: "chaos sweep observed invariant violations",
        })
    }
}

/// `--strategy`, as `explore` and `autofix` both take it.
fn strategy_flag(value: Option<&str>) -> Result<txfix::explore::Strategy, String> {
    value.and_then(txfix::explore::Strategy::parse).ok_or_else(|| "--strategy takes dfs|pct".into())
}

#[derive(Default)]
struct ExploreSweep {
    cfg: txfix::explore::ExploreConfig,
    variants: Option<Vec<Variant>>,
}

impl SweepRunner for ExploreSweep {
    fn name(&self) -> &'static str {
        "explore"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("EXPLORE_stm.json")
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        use txfix::explore;
        match flag {
            "--variant" => {
                let v = value.and_then(explore::variant_parse);
                self.variants = Some(vec![v.ok_or("--variant takes buggy|dev|tm")?])
            }
            "--strategy" => self.cfg.strategy = strategy_flag(value)?,
            "--budget" => self.cfg.budget = sweep::positive(flag, value)?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        if args.all || !args.keys.is_empty() {
            return Ok(());
        }
        let available = txfix::corpus::scheduled_scenarios()
            .iter()
            .map(|s| s.key().to_string())
            .collect::<Vec<_>>();
        Err(format!("explore needs a scenario key or --all (available: {})", available.join(", ")))
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::explore;
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let variants = self.variants.clone().unwrap_or_else(|| Variant::ALL.to_vec());
        let selection: Option<&[String]> = if args.all { None } else { Some(args.keys.as_slice()) };
        let report = explore::explore_corpus(selection, &variants, &self.cfg)?;
        let rendered = report.to_json();
        let mut table = format!(
            "{:18} {:5} {:>9} {:>7} {:>8}  verdict",
            "scenario", "var", "schedules", "pruned", "exhaust"
        );
        for e in &report.entries {
            let verdict = match (&e.failure, e.ok) {
                (Some(f), true) => format!(
                    "bug @ schedule {} (depth {}, {} preemptions): {}",
                    f.found_after, f.depth, f.preemptions, f.message
                ),
                (Some(f), false) => {
                    format!("FIXED VARIANT BROKE: {} [trace {}]", f.message, f.trace)
                }
                (None, true) => "clean".to_string(),
                (None, false) => "NO BUG FOUND within budget".to_string(),
            };
            let _ = write!(
                table,
                "\n{:18} {:5} {:>9} {:>7} {:>8}  {}",
                e.key,
                e.variant,
                e.schedules,
                e.pruned,
                if e.exhausted { "yes" } else { "no" },
                verdict
            );
            if let (Some(f), true) = (&e.failure, e.ok) {
                let _ = write!(
                    table,
                    "\n{:55}replay: --strategy {} --seed {} trace {}",
                    "", report.strategy, report.seed, f.trace
                );
            }
        }
        Ok(SweepOutput {
            rendered,
            table,
            ok: report.ok(),
            failure: "exploration expectations not met",
        })
    }
}

#[derive(Default)]
struct AutofixSweep {
    cfg: txfix::explore::ExploreConfig,
}

impl SweepRunner for AutofixSweep {
    fn name(&self) -> &'static str {
        "autofix"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("AUTOFIX_stm.json")
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        match flag {
            "--strategy" => self.cfg.strategy = strategy_flag(value)?,
            "--budget" => self.cfg.budget = sweep::positive(flag, value)?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        if args.all || !args.keys.is_empty() {
            return Ok(());
        }
        Err(format!("autofix needs a scenario key or --all (available: {})", keys::ALL.join(", ")))
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::autofix;
        self.cfg.seed = args.seed.unwrap_or(self.cfg.seed);
        let selection: Option<&[String]> = if args.all { None } else { Some(args.keys.as_slice()) };
        let report = autofix::autofix_corpus(selection, &self.cfg)?;
        let rendered = report.to_json();
        let mut table =
            format!("{:22} {:>6} {:>7} {:>8}  verdict", "scenario", "rounds", "static", "patched");
        for e in &report.entries {
            if let Some(err) = &e.error {
                let _ = write!(
                    table,
                    "\n{:22} {:>6} {:>7} {:>8}  INFERENCE FAILED: {err}",
                    e.key, "-", "-", "-"
                );
                continue;
            }
            let verdict = match (&e.patched.failure, &e.buggy.failure) {
                (Some(f), _) => format!("PATCH BROKE: {f}"),
                (None, Some(b)) => format!("verified (bug reproduced: {b})"),
                (None, None) => "verified (no counterexample within budget)".to_string(),
            };
            let _ = write!(
                table,
                "\n{:22} {:>6} {:>7} {:>8}  {}",
                e.key,
                e.rounds,
                if e.static_clean { "clean" } else { "DIRTY" },
                format!("{}s", e.patched.schedules),
                verdict
            );
            for (region, recipe) in e.regions.iter().zip(&e.recipes) {
                let _ = write!(table, "\n{:24}fix: {region}  [{recipe}]", "");
            }
            for w in &e.widenings {
                let _ = write!(
                    table,
                    "\n{:24}widened {}: inferred {{{}}} vs hand {{{}}}",
                    "",
                    w.path,
                    w.inferred.join(", "),
                    w.hand.join(", ")
                );
            }
        }
        Ok(SweepOutput {
            rendered,
            table,
            ok: report.ok(),
            failure: "some fixes failed verification",
        })
    }
}

/// One subject's crash sweep over chosen cells: `(seed, images per
/// point) -> report`.
type CrashRun = Box<dyn Fn(u64, u64) -> CrashReport>;

fn crash_run<S: CrashSubject>(cells: Vec<S::Cell>) -> CrashRun
where
    S::Cell: 'static,
{
    Box::new(move |seed, images_per_point| {
        let cfg = CrashConfig { images_per_point, ..CrashConfig::full(seed, cells.clone()) };
        run_crash_sweep::<S>(&cfg)
    })
}

struct CrashSweep {
    images: u64,
    artifact: &'static str,
    /// Bound by `select` to the chosen subject and cells.
    run: CrashRun,
}

impl Default for CrashSweep {
    fn default() -> CrashSweep {
        let run = crash_run::<txfix::wal::DurableKv>(Vec::new());
        CrashSweep { images: 2, artifact: "CRASH_stm.json", run }
    }
}

impl SweepRunner for CrashSweep {
    fn name(&self) -> &'static str {
        "crash"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some(self.artifact)
    }

    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        match flag {
            "--images" => self.images = sweep::positive(flag, value)?,
            _ => return Ok(Flag::Unknown),
        }
        Ok(Flag::SeenWithValue)
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        use txfix::kvstore::{KvStore, Mode};
        use txfix::wal::{DurableKv, WalVariant};
        if args.all {
            self.run = crash_run::<DurableKv>(WalVariant::ALL.to_vec());
            return Ok(());
        }
        if args.keys.is_empty() {
            return Err("crash needs a WAL variant, `kvstore`, or --all".into());
        }
        // `None` stands for the `kvstore` subject.
        let subjects: Vec<Option<WalVariant>> =
            WalVariant::ALL.into_iter().map(Some).chain([None]).collect();
        let name = |s: Option<WalVariant>| s.map_or("kvstore", WalVariant::name);
        let picked = sweep::select_from("crash subject", &subjects, name, &args.keys)?;
        if picked == [None] {
            // Its own subject and artifact; `--all` stays WAL-only so
            // CRASH_stm.json keeps its meaning.
            self.artifact = "CRASH_kv.json";
            self.run = crash_run::<KvStore>(Mode::ALL.to_vec());
        } else if picked.contains(&None) {
            return Err("`kvstore` is its own crash subject; don't mix it with WAL variants".into());
        } else {
            self.run = crash_run::<DurableKv>(picked.into_iter().flatten().collect());
        }
        Ok(())
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let report = (self.run)(args.seed.unwrap_or(DEFAULT_SEED), self.images);
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok,
            failure: "crash sweep: recovery invariants not met at some crash point",
        })
    }
}

/// The detection layers `txfix list` reports coverage for, in display
/// order.
const LIST_LAYERS: [&str; 7] =
    ["analyze", "lint", "explore", "chaos", "stress", "autofix", "crash"];

struct ListSweep;

impl SweepRunner for ListSweep {
    fn name(&self) -> &'static str {
        "list"
    }

    fn artifact(&self) -> Option<&'static str> {
        None
    }

    fn takes_seed(&self) -> bool {
        false
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        if let Some(k) = args.keys.first() {
            return Err(format!("list takes no scenario selection (got `{k}`)"));
        }
        Ok(())
    }

    fn execute(&mut self, _args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::bench::{chaos, stress};
        use txfix::corpus::scheduled_by_key;
        use txfix::recipes::json::Json;

        // Which layers cover which scenario. `analyze` (trace replay) and
        // `autofix` (region inference) sweep the whole corpus; `lint` needs
        // a declarative summary, `explore` a scheduled build, `chaos` and
        // `stress` an open-ended load harness. `crash` covers only the WAL
        // durability subject (below), never the in-memory corpus scenarios.
        let coverage = |key: &str| -> [bool; 7] {
            [
                true,
                summary_for(key, Variant::Buggy).is_some(),
                scheduled_by_key(key).is_some(),
                chaos::SCENARIOS.contains(&key),
                stress::SCENARIOS.contains(&key),
                true,
                false,
            ]
        };
        let variants = ["buggy", "dev", "tm"];
        // The crash sweep drives its own durable test subject rather than
        // a corpus scenario: the WAL-backed KV map, in both protocol
        // variants.
        let subject_key = "wal_durable_kv";
        let subject_variants: Vec<&str> =
            txfix::wal::WalVariant::ALL.iter().map(|v| v.name()).collect();
        let subject_cov = [false, false, false, false, false, false, true];
        // The sharded KV store (crates/kvstore): chaos via its seeded
        // fault-plan backdrop tests, stress via the `txfix kv` macro-bench,
        // crash via `txfix crash kvstore`. The static layers (analyze,
        // lint, explore, autofix) target corpus scenarios, not the store.
        let kv_key = "kvstore";
        let kv_variants: Vec<&str> = txfix::kvstore::Mode::ALL.iter().map(|m| m.name()).collect();
        let kv_cov = [false, false, false, true, true, false, true];

        let layer_obj = |cov: [bool; 7]| {
            Json::obj(LIST_LAYERS.iter().zip(cov).map(|(&l, c)| (l, Json::Bool(c))))
        };
        let doc = Json::obj([
            ("schema", Json::str("txfix-list-v1")),
            (
                "scenarios",
                Json::list(keys::ALL.iter().map(|&key| {
                    Json::obj([
                        ("key", Json::str(key)),
                        ("variants", Json::strings(variants)),
                        ("layers", layer_obj(coverage(key))),
                    ])
                })),
            ),
            (
                "subjects",
                Json::list([
                    Json::obj([
                        ("key", Json::str(subject_key)),
                        ("variants", Json::strings(subject_variants.iter().copied())),
                        ("layers", layer_obj(subject_cov)),
                    ]),
                    Json::obj([
                        ("key", Json::str(kv_key)),
                        ("variants", Json::strings(kv_variants.iter().copied())),
                        ("layers", layer_obj(kv_cov)),
                    ]),
                ]),
            ),
        ]);
        let mut table = format!(
            "{:22} {:25} {:>7} {:>4} {:>7} {:>5} {:>6} {:>7} {:>5}",
            "scenario",
            "variants",
            "analyze",
            "lint",
            "explore",
            "chaos",
            "stress",
            "autofix",
            "crash"
        );
        let mark = |c: bool| if c { "yes" } else { "-" };
        let mut row = |key: &str, vars: &str, cov: [bool; 7]| {
            let _ = write!(
                table,
                "\n{:22} {:25} {:>7} {:>4} {:>7} {:>5} {:>6} {:>7} {:>5}",
                key,
                vars,
                mark(cov[0]),
                mark(cov[1]),
                mark(cov[2]),
                mark(cov[3]),
                mark(cov[4]),
                mark(cov[5]),
                mark(cov[6]),
            );
        };
        for &key in keys::ALL.iter() {
            row(key, &variants.join(","), coverage(key));
        }
        row(subject_key, &subject_variants.join(","), subject_cov);
        row(kv_key, &kv_variants.join(","), kv_cov);
        Ok(SweepOutput { rendered: doc.to_json(), table, ok: true, failure: "" })
    }
}

#[cfg(feature = "canary")]
struct CanarySweep {
    swept: Vec<txfix::stm::canary::Canary>,
    seed: u64,
}

#[cfg(feature = "canary")]
impl Default for CanarySweep {
    fn default() -> CanarySweep {
        CanarySweep { swept: Vec::new(), seed: 0xC0FFEE }
    }
}

#[cfg(feature = "canary")]
impl SweepRunner for CanarySweep {
    fn name(&self) -> &'static str {
        "canary"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("CANARY_stm.json")
    }

    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        use txfix::stm::canary::Canary;
        if args.all {
            self.swept = Canary::ALL.to_vec();
            return Ok(());
        }
        if args.keys.is_empty() {
            return Err("canary needs a canary name or --all, e.g. `txfix canary --all`".into());
        }
        self.swept = sweep::select_from("canary", &Canary::ALL, Canary::name, &args.keys)?;
        Ok(())
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        use txfix::canary;
        self.seed = args.seed.unwrap_or(self.seed);
        let report = canary::run_canaries(&self.swept, self.seed);
        let rendered = report.to_json();
        let mut table = format!("{:26} {:12} {:8} caught by", "canary", "class", "caught");
        for o in &report.outcomes {
            let by = o.caught_by();
            let _ = write!(
                table,
                "\n{:26} {:12} {:8} {}",
                o.canary.name(),
                canary::class_name(o.expected),
                if o.caught() { "yes" } else { "UNCAUGHT" },
                if by.is_empty() { "-".to_string() } else { by.join(", ") }
            );
            for p in &o.probes {
                let verdict = match (p.probed, p.caught) {
                    (_, true) => "caught",
                    (true, false) => "missed",
                    (false, false) => "not probed",
                };
                let _ = write!(table, "\n{:28}{:8} {:10} {}", "", p.layer, verdict, p.evidence);
            }
        }
        Ok(SweepOutput {
            rendered,
            table,
            ok: report.ok(),
            failure: "some canaries went uncaught by every detection layer",
        })
    }
}

#[cfg(feature = "canary")]
fn canary_cmd(args: &[String]) -> ExitCode {
    sweep_cmd(&mut CanarySweep::default(), args)
}

#[cfg(not(feature = "canary"))]
fn canary_cmd(_args: &[String]) -> ExitCode {
    eprintln!(
        "error: this build carries no canary layer (by design: default builds compile the \
         mutation sites out entirely).\nRebuild with `cargo run --features canary --bin txfix \
         -- canary --all` to run the sweep."
    );
    ExitCode::FAILURE
}

fn scenario(args: &[String]) -> ExitCode {
    let Some(key) = args.first() else {
        return usage_error("scenario needs a key, e.g. `txfix scenario apache_i`");
    };
    let Some(s) = scenario_by_key(key) else {
        return usage_error(&format!("no scenario `{key}` (try `txfix scenarios`)"));
    };
    let variants: Vec<Variant> = match args.get(1).map(String::as_str) {
        Some("--variant") => match args.get(2).map(String::as_str) {
            Some("buggy") => vec![Variant::Buggy],
            Some("dev") => vec![Variant::DevFix],
            Some("tm") => vec![Variant::TmFix],
            _ => return usage_error("--variant takes buggy|dev|tm"),
        },
        Some(other) => return usage_error(&format!("unknown option `{other}`")),
        None => Variant::ALL.to_vec(),
    };
    println!("{}: {}\n", s.key(), s.describe());
    for v in variants {
        let outcome = s.run(v);
        match outcome {
            txfix::corpus::Outcome::Correct => println!("  {v:13} -> clean"),
            txfix::corpus::Outcome::BugObserved(msg) => println!("  {v:13} -> BUG: {msg}"),
        }
    }
    ExitCode::SUCCESS
}
