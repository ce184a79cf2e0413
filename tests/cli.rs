//! End-to-end tests of the `txfix` CLI binary.

use std::process::Command;

fn txfix(args: &[&str]) -> (String, bool) {
    let exe = env!("CARGO_BIN_EXE_txfix");
    let out = Command::new(exe).args(args).output().expect("run txfix");
    (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.success())
}

/// Every entry of `dir`, by name, sorted.
fn files_in(dir: &std::path::Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("readable dir");
    let mut names: Vec<String> =
        entries.map(|e| e.expect("entry").file_name().to_string_lossy().into_owned()).collect();
    names.sort();
    names
}

#[test]
fn summary_reports_headline_numbers() {
    let (out, ok) = txfix(&["summary"]);
    assert!(ok);
    assert!(out.contains("bugs examined:                 60"));
    assert!(out.contains("TM can fix:                    43"));
}

#[test]
fn tables_render() {
    let (out, ok) = txfix(&["tables"]);
    assert!(ok);
    assert!(out.contains("Table 1."));
    assert!(out.contains("Table 2."));
    assert!(out.contains("Table 3."));
}

#[test]
fn bugs_filters_work() {
    let (all, ok) = txfix(&["bugs"]);
    assert!(ok);
    assert_eq!(all.lines().count(), 60);
    let (unfix, ok) = txfix(&["bugs", "--unfixable"]);
    assert!(ok);
    assert_eq!(unfix.lines().count(), 17);
    assert!(unfix.contains("NOT FIXABLE"));
    let (imp, ok) = txfix(&["bugs", "--implemented"]);
    assert!(ok);
    assert_eq!(imp.lines().count(), 18);
}

#[test]
fn show_explains_a_paper_named_bug() {
    let (out, ok) = txfix(&["show", "Mozilla#65146"]);
    assert!(ok);
    assert!(out.contains("TM cannot fix this bug"));
    assert!(out.contains("two-way communication"));
}

#[test]
fn scenario_runs_a_fast_reproduction() {
    let (out, ok) = txfix(&["scenario", "av_refcount_race"]);
    assert!(ok);
    assert!(out.contains("BUG:"));
    assert!(out.contains("clean"));
}

#[test]
fn analyze_header_names_the_scenario_bug_and_variant() {
    let (out, ok) = txfix(&["analyze", "av_stats_race", "--variant", "tm"]);
    assert!(ok, "tm variant must analyze clean");
    assert!(out.contains("scenario av_stats_race [MySQL#12228] — tm variant"), "{out}");
}

#[test]
fn lint_flags_a_buggy_scenario_and_clears_its_fixes() {
    let (out, ok) = txfix(&["lint", "av_stats_race"]);
    assert!(!ok, "findings must fail the exit code");
    assert!(out.contains("FINDING: possible data race on my12228.queries"), "{out}");
    assert!(out.contains("statically verified"), "{out}");
    let (out, ok) = txfix(&["lint", "av_stats_race", "--variant", "tm"]);
    assert!(ok, "the TM fix must lint clean");
    assert!(out.contains("no findings"), "{out}");
}

#[test]
fn lint_all_covers_the_corpus_and_fails() {
    let (out, ok) = txfix(&["lint", "--all"]);
    assert!(!ok, "buggy variants are included, so --all must fail");
    assert_eq!(out.matches("paths modeled").count(), 18 * 3);
}

#[test]
fn lint_json_parses_back_into_reports() {
    let (out, ok) = txfix(&["lint", "dl_cache_atomtable", "--json"]);
    assert!(!ok);
    // The output is a JSON array of per-variant reports, read field by
    // field.
    let v = txfix::recipes::json::Json::parse(out.trim()).expect("valid JSON");
    let reports = v.array("lint output").expect("array");
    assert_eq!(reports.len(), 3);
    let mut findings = Vec::new();
    for (report, variant) in reports.iter().zip(["buggy", "dev", "tm"]) {
        let obj = report.object("lint report").unwrap();
        assert_eq!(obj["scenario"].string("scenario").unwrap(), "dl_cache_atomtable");
        assert_eq!(obj["variant"].string("variant").unwrap(), variant);
        assert!(obj["paths"].number("paths").unwrap() >= 2.0);
        findings.push(obj["findings"].array("findings").unwrap());
    }
    assert!(!findings[0].is_empty(), "buggy report comes first");
    assert!(findings[2].is_empty(), "tm report is clean");
    let recipes = ["replace-locks", "wrap-all", "deadlock-preemption", "wrap-unprotected"];
    let mut verified = false;
    for f in findings[0] {
        let f = f.object("finding").unwrap();
        assert_eq!(
            f["hazard"].object("hazard").unwrap()["kind"].string("kind").unwrap(),
            "lock_cycle"
        );
        assert!(!f["explanation"].string("explanation").unwrap().is_empty());
        for fix in f["fixes"].array("fixes").unwrap() {
            let fix = fix.object("fix").unwrap();
            assert!(recipes.contains(&fix["recipe"].string("recipe").unwrap().as_str()));
            verified |= fix["verified"].bool("verified").unwrap();
            for key in ["residual", "introduced"] {
                fix[key].array(key).unwrap().iter().for_each(|h| drop(h.string(key).unwrap()));
            }
        }
    }
    assert!(verified, "some synthesized fix verifies");
}

#[test]
fn chaos_sweep_is_deterministic_and_writes_the_report() {
    // Run in a scratch directory so the report artifacts land there, not
    // in the repo root.
    let dir = std::env::temp_dir().join(format!("txfix-chaos-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_txfix"))
            .args(["chaos", "av_stats_race", "--seed", "11", "--json"])
            .current_dir(&dir)
            .output()
            .expect("run txfix chaos");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fixed seed must reproduce bit-for-bit");
    let doc = txfix::recipes::json::Json::parse(first.trim()).expect("valid JSON");
    let obj = doc.object("chaos report").expect("object");
    assert_eq!(obj["schema"].string("schema").unwrap(), "txfix-chaos-v1");
    assert!(obj["passed"].bool("passed").unwrap());
    let runs = obj["runs"].array("runs").expect("runs array");
    assert_eq!(runs.len(), 2 * 5, "one scenario x 5 schedules x dev/tm");
    let on_disk = std::fs::read_to_string(dir.join("CHAOS_stm.json")).expect("report written");
    assert_eq!(on_disk.trim(), first.trim(), "stdout and CHAOS_stm.json agree");
    assert_eq!(files_in(&dir), ["CHAOS_stm.json"], "the artifact is the only file written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_sweep_is_deterministic_and_writes_the_report() {
    let dir = std::env::temp_dir().join(format!("txfix-crash-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_txfix"))
            .args(["crash", "--all", "--seed", "11", "--json"])
            .current_dir(&dir)
            .output()
            .expect("run txfix crash");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fixed seed must reproduce bit-for-bit");
    let doc = txfix::recipes::json::Json::parse(first.trim()).expect("valid JSON");
    let obj = doc.object("crash report").expect("object");
    assert_eq!(obj["schema"].string("schema").unwrap(), "txfix-crash-kv-v1");
    assert!(obj["ok"].bool("ok").unwrap());
    let modes = obj["modes"].array("modes").expect("modes array");
    assert_eq!(modes.len(), 3, "every store mode swept");
    let on_disk = std::fs::read_to_string(dir.join("CRASH_kv.json")).expect("report written");
    assert_eq!(on_disk.trim(), first.trim(), "stdout and CRASH_kv.json agree");
    assert_eq!(files_in(&dir), ["CRASH_kv.json"], "the artifact is the only file written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_fails_with_usage() {
    let (_, ok) = txfix(&["show"]);
    assert!(!ok);
    let (_, ok) = txfix(&["frobnicate"]);
    assert!(!ok);
}
