//! The `txfix` dispatch table.
//!
//! Every verb is one row of [`ROWS`]: the corpus printers carry their
//! help block and a function from arguments to text, every verb that
//! selects scenarios is a [`SweepRunner`] behind [`sweep::run_sweep`].
//! [`help`] is assembled from the rows, and `txfix list` computes its
//! coverage matrix from the runners' universes, so neither can go stale
//! when a verb or a scenario is added. The runners live beside the code
//! they drive (`bench::{stress, chaos, kv}`, `explore`, `autofix`,
//! `analyze`, `corpus` for `lint` and `scenario`); the three that span
//! crates are here: `crash`, `list`, and the stand-in for `canary` in a
//! build without the canary layer.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::corpus::{all_bugs, bug_by_id, keys, scenario_listing, Variant};
use crate::kvstore::{KvStore, Mode};
use crate::recipes::json::{Json, ToJson};
use crate::recipes::sweep::{self, SweepArgs, SweepOutput, SweepRunner, Universe};
use crate::recipes::{report, CorpusSummary};
use crate::wal::checker::{run_crash_sweep, CrashConfig, DEFAULT_SEED};

/// How a verb runs.
pub enum Verb {
    /// Prints a view of the corpus: the verb's block of `txfix help`, and
    /// a function from the remaining arguments to the text (`Err` is a
    /// usage error).
    Print(&'static str, fn(&[String]) -> Result<String, String>),
    /// Runs behind [`sweep::run_sweep`]; the help block is the runner's.
    Sweep(fn() -> Box<dyn SweepRunner>),
}

fn new<R: SweepRunner + Default + 'static>() -> Box<dyn SweepRunner> {
    Box::new(R::default())
}

/// Every verb under its name, in `help` order.
pub const ROWS: [(&str, Verb); 17] = [
    (
        "tables",
        Verb::Print("\x20 tables                       print the study's Tables 1-3", |_| {
            Ok(report::tables(&all_bugs()))
        }),
    ),
    (
        "summary",
        Verb::Print("\x20 summary                      print the headline aggregates", |_| {
            Ok(CorpusSummary::compute(&all_bugs()).table())
        }),
    ),
    (
        "bugs",
        Verb::Print(
            "\x20 bugs [--fixable|--unfixable|--implemented]\n\
             \x20                              list the 60-bug corpus (optionally filtered)",
            |args| report::bug_list(&all_bugs(), args.first().map(String::as_str)),
        ),
    ),
    (
        "show",
        Verb::Print("\x20 show <bug-id>                full analysis of one bug", |args| {
            let id = args.first().ok_or("show needs a bug id, e.g. `txfix show Mozilla#54743`")?;
            let bug =
                bug_by_id(id).ok_or_else(|| format!("no bug with id `{id}` (try `txfix bugs`)"))?;
            Ok(report::show(&bug))
        }),
    ),
    (
        "scenarios",
        Verb::Print(
            "\x20 scenarios                    list the 18 executable bug reproductions",
            |_| Ok(scenario_listing()),
        ),
    ),
    ("scenario", Verb::Sweep(new::<crate::corpus::ScenarioSweep>)),
    ("analyze", Verb::Sweep(new::<crate::analyze::AnalyzeSweep>)),
    ("lint", Verb::Sweep(new::<crate::corpus::LintSweep>)),
    ("stress", Verb::Sweep(new::<crate::bench::stress::StressSweep>)),
    ("kv", Verb::Sweep(new::<crate::bench::kv::KvSweep>)),
    ("chaos", Verb::Sweep(new::<crate::bench::chaos::ChaosSweep>)),
    ("explore", Verb::Sweep(new::<crate::explore::ExploreSweep>)),
    ("autofix", Verb::Sweep(new::<crate::autofix::AutofixSweep>)),
    ("crash", Verb::Sweep(new::<CrashSweep>)),
    ("canary", Verb::Sweep(new::<CanarySweep>)),
    ("list", Verb::Sweep(new::<ListSweep>)),
    ("help", Verb::Print("\x20 help                         this message", |_| Ok(help()))),
];

/// The `txfix help` text: a fixed header, then every row's block.
pub fn help() -> String {
    let mut text = String::from(
        "txfix — Applying Transactional Memory to Concurrency Bugs (ASPLOS 2012 reproduction)\n\
         \n\
         USAGE: txfix <command> [args]\n\
         \n\
         Every sweep command also accepts --json (print the report document\n\
         instead of the table). A sweep writes one file: the artifact its\n\
         block names, in the working directory.\n\
         \n\
         COMMANDS:",
    );
    for (_, verb) in &ROWS {
        let usage = match verb {
            Verb::Print(usage, _) => usage,
            Verb::Sweep(new) => new().usage(),
        };
        let _ = write!(text, "\n{usage}");
    }
    text
}

/// Run `txfix <args>`: dispatch the verb through its row. A usage error
/// prints the message to stderr, the help text to stdout, and fails.
pub fn run(args: &[String]) -> ExitCode {
    let Some((verb, rest)) = args.split_first() else {
        println!("{}", help());
        return ExitCode::SUCCESS;
    };
    let done = match ROWS.iter().find(|(name, _)| name == verb) {
        Some((_, Verb::Print(_, run))) => run(rest).map(|text| {
            println!("{text}");
            ExitCode::SUCCESS
        }),
        Some((_, Verb::Sweep(new))) => sweep::run_sweep(new().as_mut(), rest),
        None => Err(format!("unknown command `{verb}`")),
    };
    done.unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n");
        println!("{}", help());
        ExitCode::FAILURE
    })
}

/// `txfix crash`: the crash-point sweep of the KV store (`CRASH_kv.json`).
#[derive(Default)]
pub struct CrashSweep;

impl SweepRunner for CrashSweep {
    fn usage(&self) -> &'static str {
        "\x20 crash [kvstore|--all] [--seed S]\n\
         \x20                              sweep every crash point of the KV store workload\n\
         \x20                              in every mode: freeze the durable world at the\n\
         \x20                              point, take a seeded crash image, recover, and\n\
         \x20                              assert atomicity / durability / no-resurrection\n\
         \x20                              at every one; writes CRASH_kv.json; bit-for-bit\n\
         \x20                              reproducible per seed"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("CRASH_kv.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("crash subject", ["kvstore"]))
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        let report = run_crash_sweep::<KvStore>(&CrashConfig::full(seed, Mode::ALL.to_vec()));
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok,
            failure: "crash sweep: recovery invariants not met at some crash point",
        })
    }
}

/// The stand-in for `txfix canary` in a build without the canary layer:
/// same help block, refuses to run.
#[cfg(not(feature = "canary"))]
#[derive(Default)]
pub struct CanarySweep;

#[cfg(feature = "canary")]
pub use crate::canary::CanarySweep;

pub(crate) const CANARY_USAGE: &str = "\x20 canary [<canary>|--all] [--seed S]\n\
     \x20                              arm one planted detector bug at a time and run\n\
     \x20                              it through every detection layer (analyze, lint,\n\
     \x20                              explore, chaos, crash); writes the txfix-canary-v1\n\
     \x20                              capability matrix to CANARY_stm.json; exits\n\
     \x20                              nonzero if any canary goes uncaught (needs a\n\
     \x20                              build with `--features canary`)";

#[cfg(not(feature = "canary"))]
impl SweepRunner for CanarySweep {
    fn usage(&self) -> &'static str {
        CANARY_USAGE
    }

    // So that `canary --all --seed 7` reaches the refusal below.
    fn takes_seed(&self) -> bool {
        true
    }

    fn execute(&mut self, _args: &SweepArgs) -> Result<SweepOutput, String> {
        Ok(SweepOutput {
            rendered: String::new(),
            table: String::new(),
            ok: false,
            failure: "this build carries no canary layer (by design: default builds compile \
                      the mutation sites out entirely).\nRebuild with `cargo run --features \
                      canary --bin txfix -- canary --all` to run the sweep.",
        })
    }
}

/// The detection layers `txfix list` reports coverage for, in display
/// order; each is the verb whose universe decides the column.
pub const LIST_LAYERS: [&str; 7] =
    ["analyze", "lint", "explore", "chaos", "stress", "autofix", "crash"];

/// `txfix list`: the capability map — every scenario key, its variants,
/// and which detection layers cover it.
#[derive(Default)]
pub struct ListSweep;

impl SweepRunner for ListSweep {
    fn usage(&self) -> &'static str {
        "\x20 list [--json]                the corpus capability map: every scenario key,\n\
         \x20                              its variants, and which detection layers cover it"
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        if let Some(k) = args.keys.first() {
            return Err(format!("list takes no scenario selection (got `{k}`)"));
        }
        // A layer covers a corpus scenario when the scenario is in the
        // universe of the layer's verb: `analyze` and `autofix` sweep the
        // whole corpus, `lint` needs a summary, `explore` a scheduled
        // build, `chaos` and `stress` a load harness, and `crash` selects
        // durability subjects, never corpus scenarios.
        let universes =
            LIST_LAYERS.map(|layer| match ROWS.iter().find(|(name, _)| *name == layer) {
                Some((_, Verb::Sweep(new))) => new().universe().map(|u| u.keys).unwrap_or_default(),
                _ => Vec::new(),
            });
        let scenarios = keys::ALL.map(|key| {
            let covered: [bool; 7] = std::array::from_fn(|l| universes[l].contains(&key));
            (key, Variant::ALL.map(Variant::name).to_vec(), covered)
        });
        // The durability subject is not a corpus scenario, and what covers
        // it beyond `crash` no universe expresses: the sharded store gets
        // chaos from its seeded fault-plan backdrop tests and stress from
        // `txfix kv`.
        let subjects = [(
            "kvstore",
            Mode::ALL.map(Mode::name).to_vec(),
            [false, false, false, true, true, false, true],
        )];

        type Entry = (&'static str, Vec<&'static str>, [bool; 7]);
        let entry = |(key, variants, covered): &Entry| {
            let layers = LIST_LAYERS.iter().zip(covered).map(|(&l, &c)| (l, Json::Bool(c)));
            Json::obj([
                ("key", Json::str(*key)),
                ("variants", Json::strings(variants)),
                ("layers", Json::obj(layers)),
            ])
        };
        let doc = Json::obj([
            ("schema", Json::str("txfix-list-v1")),
            ("scenarios", Json::list(scenarios.iter().map(entry))),
            ("subjects", Json::list(subjects.iter().map(entry))),
        ]);
        // Each layer's column is as wide as its name.
        let mut table = format!("{:22} {:25} {}", "scenario", "variants", LIST_LAYERS.join(" "));
        for (key, variants, covered) in scenarios.iter().chain(&subjects) {
            let _ = write!(table, "\n{:22} {:25}", key, variants.join(","));
            for (layer, &c) in LIST_LAYERS.iter().zip(covered) {
                let _ = write!(table, " {:>w$}", if c { "yes" } else { "-" }, w = layer.len());
            }
        }
        Ok(SweepOutput { rendered: doc.to_json(), table, ok: true, failure: "" })
    }
}
