//! Run every experiment and print paper-reported vs. measured values —
//! the source of EXPERIMENTS.md's results section.
//!
//! Pass `--full` for benchmark-scale case-study runs and `--json` for a
//! machine-readable version of the whole run.

use txfix_bench::{cases, Scale};
use txfix_core::json::{Json, ToJson};
use txfix_core::{table1, table2, table3, CorpusSummary};

fn check(label: &str, paper: u64, measured: u64) {
    let ok = if paper == measured { "ok " } else { "MISMATCH" };
    println!("  [{ok}] {label:58} paper {paper:>4}   measured {measured:>4}");
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--full") { Scale::Full } else { Scale::Quick };
    let bugs = txfix_corpus::all_bugs();
    let s = CorpusSummary::compute(&bugs);

    if std::env::args().any(|a| a == "--json") {
        let scenarios = Json::list(txfix_corpus::SCENARIOS.iter().map(|sc| {
            Json::obj([
                ("key", Json::str(sc.key)),
                ("buggy", Json::Bool(sc.run(txfix_corpus::Variant::Buggy).is_bug())),
                ("dev", Json::Bool(sc.run(txfix_corpus::Variant::DevFix).is_bug())),
                ("tm", Json::Bool(sc.run(txfix_corpus::Variant::TmFix).is_bug())),
            ])
        }));
        let doc = Json::obj([
            (
                "tables",
                Json::list([
                    table1(&bugs).to_json_value(),
                    table2(&bugs).to_json_value(),
                    table3(&bugs).to_json_value(),
                ]),
            ),
            ("summary", s.to_json_value()),
            ("scenarios_bug_observed", scenarios),
            ("cases", Json::list(cases(scale).iter().map(ToJson::to_json_value))),
        ]);
        println!("{}", doc.to_json());
        return;
    }

    println!("== T1–T3: study tables =============================================\n");
    print!("{}", table1(&bugs));
    println!();
    print!("{}", table2(&bugs));
    println!();
    print!("{}", table3(&bugs));

    println!("\n== Stated aggregates (paper prose vs. dataset) =====================\n");
    check("bugs examined", 60, s.total as u64);
    check("deadlocks examined", 22, s.deadlocks.total as u64);
    check("atomicity violations examined", 38, s.atomicity.total as u64);
    check("bugs TM can fix", 43, s.fixable() as u64);
    check("deadlocks TM can fix", 12, s.deadlocks.fixable as u64);
    check("atomicity violations TM can fix", 31, s.atomicity.fixable as u64);
    check("fixed by straightforward recipes 1 and 2", 40, s.fixed_by_simple_recipes as u64);
    check("fixed only by recipe 3", 3, s.fixed_only_by_recipe3 as u64);
    check("recipe-1 fixes simplified by recipe 3", 6, s.simplified_by_recipe3 as u64);
    check("recipe-2 fixes simplified by recipe 4", 14, s.simplified_by_recipe4 as u64);
    check("TM fixes judged simpler/preferable", 34, s.tm_preferred as u64);
    check("implemented and tested fixes", 18, s.implemented as u64);
    check("implemented deadlock fixes", 7, s.implemented_deadlock as u64);
    check("implemented atomicity fixes", 11, s.implemented_atomicity as u64);
    check("AVs with completely missing synchronization", 22, s.av_complete_missing as u64);
    check("... fixable by recipe 2", 17, s.av_complete_missing_fixable as u64);
    check("... fixable with a single atomic block", 12, s.av_single_block as u64);
    check("... single-block fixes judged easy", 9, s.av_single_block_easy as u64);
    check("... single-block fixes judged medium", 3, s.av_single_block_medium as u64);
    check("fixes needing condition variables", 5, s.downcall_condvar as u64);
    check("fixes needing retry", 2, s.downcall_retry as u64);
    check("fixes needing I/O in transactions", 8, s.downcall_io as u64);
    check("fixes with very long transactions", 7, s.downcall_long_action as u64);
    check(
        "unfixable multi-module non-preemptible deadlocks",
        5,
        s.multi_module_non_preemptible as u64,
    );

    println!("\n== Scenario sweep: 18 implemented fixes ============================\n");
    for sc in txfix_corpus::SCENARIOS {
        let buggy = sc.run(txfix_corpus::Variant::Buggy);
        let dev = sc.run(txfix_corpus::Variant::DevFix);
        let tm = sc.run(txfix_corpus::Variant::TmFix);
        println!(
            "  {:22} buggy: {:9} dev fix: {:8} tm fix: {:8}",
            sc.key,
            if buggy.is_bug() { "BUG SEEN" } else { "no bug?!" },
            if dev.is_bug() { "BROKEN?!" } else { "clean" },
            if tm.is_bug() { "BROKEN?!" } else { "clean" },
        );
    }

    println!("\n== CS1–CS4: case-study performance (relative to developer fix) ====\n");
    let cases = cases(scale);
    for c in &cases {
        println!("{}", c.render());
    }
    println!("Summary (TM fix relative to developer fix):");
    for c in &cases {
        for m in &c.measurements {
            let Some(paper) = m.paper_relative else { continue };
            println!(
                "  {:10} {:38} paper {:>6.1}%   measured {:>6.1}%",
                c.case,
                m.name,
                paper * 100.0,
                m.relative_to_dev * 100.0
            );
        }
    }
}
