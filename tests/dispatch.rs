//! In-process tests of the `txfix` dispatch table: every verb's selection
//! and capability errors, `help` against the rows, and `list` against
//! what the runners actually accept.

use txfix::cli::{help, ListSweep, Verb, LIST_LAYERS, ROWS};
use txfix::corpus::keys;
use txfix::recipes::json::Json;
use txfix::recipes::sweep::{self, SweepArgs, SweepRunner};

fn runners() -> Vec<(&'static str, Box<dyn SweepRunner>)> {
    let new = |(name, verb): &(&'static str, Verb)| match verb {
        Verb::Sweep(new) => Some((*name, new())),
        Verb::Print(..) => None,
    };
    ROWS.iter().filter_map(new).collect()
}

/// Drive the frame and return the usage error it must stop at (nothing
/// executes before selection and flags are accepted).
fn usage_error(name: &str, runner: &mut dyn SweepRunner, raw: &[&str]) -> String {
    let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
    match sweep::run_sweep(runner, &raw) {
        Err(msg) => msg,
        Ok(code) => panic!("`{name} {raw:?}` ran (exit {code:?})"),
    }
}

#[test]
fn selection_errors_name_the_universe() {
    let mut with_universe = 0;
    for (name, mut runner) in runners() {
        let Some(universe) = runner.universe() else { continue };
        with_universe += 1;
        for raw in [&["no_such_key"][..], &[]] {
            let msg = usage_error(name, runner.as_mut(), raw);
            assert!(msg.contains(universe.noun), "{name} {raw:?}: {msg}");
            assert!(raw.iter().all(|bad| msg.contains(bad)), "{name} {raw:?}: {msg}");
            for key in &universe.keys {
                assert!(msg.contains(key), "{name} {raw:?} does not offer `{key}`: {msg}");
            }
        }
    }
    // Everything but `list` (and `canary` in a build without the layer).
    assert!(with_universe >= 9, "only {with_universe} runners declare a universe");
}

#[test]
fn capability_gates_reject_seed_where_it_means_nothing() {
    let mut unseeded = Vec::new();
    for (name, mut runner) in runners() {
        if !runner.takes_seed() {
            let msg = usage_error(name, runner.as_mut(), &["--seed", "7"]);
            assert_eq!(msg, "this verb does not take --seed", "{name}");
            unseeded.push(name);
        }
    }
    assert_eq!(unseeded, ["scenario", "analyze", "lint", "explore", "autofix", "list"]);
}

/// The sizes of `kv`, `chaos`, `crash`, `explore` and `autofix` are
/// constants, no verb takes an artifact path, DFS is the explorer's only
/// strategy, and DFS takes no seed: each of these is a usage error,
/// rejected before anything runs.
#[test]
fn deleted_flags_are_usage_errors() {
    let cases: &[(&str, &[&str])] = &[
        ("kv", &["--all", "--shards", "2,4"]),
        ("kv", &["--all", "--theta", "1"]),
        ("kv", &["--all", "--mix", "80:15:3:2"]),
        ("kv", &["--all", "--threads", "3"]),
        ("kv", &["--all", "--ops", "120"]),
        ("kv", &["--all", "--keys", "256"]),
        ("kv", &["--all", "--users", "10"]),
        ("chaos", &["--all", "--threads", "2"]),
        ("chaos", &["--all", "--ops", "60"]),
        ("crash", &["kvstore", "--images", "3"]),
        ("autofix", &["--all", "--strategy", "dfs"]),
        ("autofix", &["--all", "--budget", "5"]),
        ("autofix", &["--all", "--seed", "5"]),
        ("explore", &["--all", "--strategy", "pct"]),
        ("explore", &["--all", "--budget", "200"]),
        ("explore", &["--all", "--seed", "7"]),
        ("scenario", &["av_stats_race", "--out", "X.json"]),
        ("stress", &["--all", "--out", "X.json"]),
        ("explore", &["--all", "--out", "X.json"]),
    ];
    let mut runners = runners();
    for &(verb, raw) in cases {
        let (_, runner) = runners.iter_mut().find(|(name, _)| *name == verb).expect("a verb");
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        let err = sweep::parse_sweep_args(runner.as_mut(), &raw).err();
        let want = match raw[1].as_str() {
            "--seed" => "this verb does not take --seed".to_string(),
            flag => format!("unknown option `{flag}`"),
        };
        assert_eq!(err, Some(want), "txfix {verb} {raw:?}");
    }
}

#[test]
fn help_lists_exactly_the_rows_in_order() {
    // A verb's block starts at a two-space indent; continuation lines are
    // indented further.
    let help = help();
    let listed: Vec<&str> = help
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let rows: Vec<&str> = ROWS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, rows);
    let mut unique = rows.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), rows.len(), "two rows dispatch the same verb");
}

#[test]
fn list_cells_equal_what_each_layer_accepts() {
    let out = ListSweep.execute(&SweepArgs::default()).expect("list runs");
    let lines: Vec<&str> = out.table.lines().collect();
    assert_eq!(lines.len(), 1 + 18 + 1, "header, scenarios, subject");
    let header: Vec<&str> = lines[0].split_whitespace().collect();
    assert_eq!(header[..2], ["scenario", "variants"]);
    assert_eq!(header[2..], LIST_LAYERS);

    let doc = Json::parse(&out.rendered).expect("valid JSON");
    let doc = doc.object("list").unwrap();
    let scenarios = doc["scenarios"].array("scenarios").unwrap();
    let subjects = doc["subjects"].array("subjects").unwrap();
    let key_of = |entry: &Json| entry.object("entry").unwrap()["key"].string("key").unwrap();
    assert_eq!(scenarios.iter().map(key_of).collect::<Vec<_>>(), keys::ALL);
    assert_eq!(subjects.iter().map(key_of).collect::<Vec<_>>(), ["kvstore"]);

    let mut runners = runners();
    for (entry, line) in scenarios.iter().chain(subjects).zip(&lines[1..]) {
        let entry = entry.object("entry").unwrap();
        let key = entry["key"].string("key").unwrap();
        let layers = entry["layers"].object("layers").unwrap();
        assert_eq!(layers.len(), LIST_LAYERS.len());
        let cells: Vec<&str> = line.split_whitespace().skip(2).collect();
        for (layer, cell) in LIST_LAYERS.iter().zip(cells) {
            let covered = layers[*layer].bool(layer).unwrap();
            assert_eq!(cell, if covered { "yes" } else { "-" }, "{key}/{layer}: table vs JSON");
            if !keys::ALL.contains(&key.as_str()) {
                continue; // the literal subject row
            }
            let (_, runner) =
                runners.iter_mut().find(|(name, _)| name == layer).expect("a layer is a verb");
            let accepted =
                sweep::parse_sweep_args(runner.as_mut(), std::slice::from_ref(&key)).is_ok();
            assert_eq!(covered, accepted, "{key}/{layer}: list vs the runner's universe");
        }
    }
}
