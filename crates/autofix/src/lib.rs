//! Automatic atomic-region inference and verified TM fix synthesis.
//!
//! The rest of the workspace builds the pieces of the paper's workflow:
//! detection (`txfix-analyze`, `txfix-static`), the fix recipes and
//! their substrate (`txfix-core`, `txfix-stm`, `txfix-txlock`,
//! `txfix-tmsync`), and verification by schedule exhaustion
//! (`txfix-explore`). This crate closes the loop — from a buggy
//! scenario summary to a *verified* TM patch with no human in between:
//!
//! 1. **Infer** ([`txfix_static::infer`]): seed one atomic region per
//!    static finding, grow and merge the regions Joshi–Lal /
//!    RaceFixer-style until the checkers are silent, and lower the plan
//!    through the Recipe 1–4 span machinery (see [`Region`]). The
//!    corpus's `tm` summaries are this step's output, not hand-written
//!    models.
//! 2. **Verify statically**: the patched summary must have zero
//!    residual and zero introduced findings — the same bar `txfix lint`
//!    holds every fix to.
//! 3. **Verify dynamically** ([`interp`]): execute both the buggy input
//!    and the synthesized patch under the deterministic scheduler's DFS
//!    (VeriFix's criterion): the bug should reproduce on the input, and
//!    no explored schedule of the patch may fail.
//!
//! `txfix autofix [<key>] [--all]` runs the loop over the corpus and
//! emits the deterministic `txfix-autofix-v3` report
//! (`AUTOFIX_stm.json`, byte-compared across runs in CI).

pub mod interp;
pub mod report;

use report::{AutofixEntry, AutofixReport, VerifyStats};
use txfix_core::json::ToJson;
use txfix_core::sweep::{SweepArgs, SweepOutput, SweepRunner, Universe};
use txfix_corpus::{keys, RunResult, Scenario, Variant, SCENARIOS};
use txfix_explore::explore_build;
use txfix_static::{check, infer, Region, ScenarioSummary};

pub use interp::build_run;

/// Explore every schedule of `summary` (through [`build_run`]) and
/// summarize the outcome.
fn verify_dynamic(summary: &ScenarioSummary) -> VerifyStats {
    let build = |_: Variant| build_run(summary);
    let ex = explore_build(&build, Variant::Buggy);
    VerifyStats {
        schedules: ex.schedules,
        pruned: ex.pruned,
        step_limited: ex.step_limited,
        exhausted: ex.exhausted,
        failure: ex.failure.map(|o| match o.result {
            RunResult::Bug(m) => without_thread_tokens(&m),
            other => format!("unexpected schedule outcome: {other:?}"),
        }),
    }
}

/// Drop every `thread#N -> ` from a deadlock-cycle message. `N` is
/// `txlock`'s process-global first-use counter, so it depends on how the
/// host happened to start the scenario's threads; the locks of the cycle,
/// in wait-for order, are what the schedule determines.
fn without_thread_tokens(message: &str) -> String {
    let mut out = String::new();
    let mut rest = message;
    while let Some(at) = rest.find("thread#") {
        out.push_str(&rest[..at]);
        let after = rest[at + "thread#".len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        rest = after.strip_prefix(" -> ").unwrap_or(after);
    }
    out + rest
}

/// Run the full infer → verify loop for one corpus row.
/// Inference failures produce an entry with `error` set (and `ok() ==
/// false`), so a sweep reports them instead of stopping.
pub fn autofix_scenario(row: &Scenario) -> AutofixEntry {
    let key = row.key;
    let buggy = row.summary(Variant::Buggy);
    let inference = match infer(&buggy) {
        Ok(inf) => inf,
        Err(e) => {
            return AutofixEntry {
                key: key.to_string(),
                regions: Vec::new(),
                recipes: Vec::new(),
                rounds: 0,
                error: Some(e),
                static_clean: false,
                buggy: VerifyStats::default(),
                patched: VerifyStats::default(),
            }
        }
    };
    let recipes = inference.regions.iter().map(|r: &Region| r.recipe().to_string()).collect();
    let static_clean = check(&inference.patched).is_empty();
    AutofixEntry {
        key: key.to_string(),
        recipes,
        rounds: inference.rounds,
        error: None,
        static_clean,
        buggy: verify_dynamic(&buggy),
        patched: verify_dynamic(&inference.patched),
        regions: inference.regions,
    }
}

/// Autofix the corpus scenarios whose key `selected` admits, in corpus
/// order.
pub fn autofix_corpus(selected: impl Fn(&str) -> bool) -> AutofixReport {
    let rows = SCENARIOS.iter().filter(|row| selected(row.key));
    AutofixReport { entries: rows.map(autofix_scenario).collect() }
}

/// `txfix autofix`: infer, synthesize and verify a fix per selected
/// scenario.
#[derive(Default)]
pub struct AutofixSweep;

impl SweepRunner for AutofixSweep {
    fn usage(&self) -> &'static str {
        "\x20 autofix [<key>|--all]\n\
         \x20                              infer atomic-region fixes from static findings,\n\
         \x20                              synthesize the TM patch, and verify it both\n\
         \x20                              statically and by DFS schedule exploration;\n\
         \x20                              writes AUTOFIX_stm.json; exits nonzero on any\n\
         \x20                              unverified fix"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("AUTOFIX_stm.json")
    }

    fn universe(&self) -> Option<Universe> {
        Some(Universe::new("scenario", keys::ALL))
    }

    // Autofix explores by DFS, which no seed steers.
    fn takes_seed(&self) -> bool {
        false
    }

    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String> {
        let report = autofix_corpus(|key| args.selects(key));
        Ok(SweepOutput {
            rendered: report.to_json(),
            table: report.table(),
            ok: report.ok(),
            failure: "some fixes failed verification",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::without_thread_tokens;

    #[test]
    fn deadlock_cycles_render_without_process_global_thread_tokens() {
        assert_eq!(
            without_thread_tokens(
                "panic: deadlock detected: thread#12 -> lock \"a\" ; thread#7 -> lock \"b\""
            ),
            "panic: deadlock detected: lock \"a\" ; lock \"b\""
        );
        assert_eq!(without_thread_tokens("lost update on x"), "lost update on x");
    }
}
