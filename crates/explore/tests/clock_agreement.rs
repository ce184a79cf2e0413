//! Clock-mode agreement under the deterministic scheduler: exploration
//! verdicts must be identical under GV1 and GV5.
//!
//! Under a controlled schedule GV5's `begin_stamp` falls back to the
//! shared clock (thread epochs would otherwise make replay depend on
//! which OS thread serviced which logical task), so the two modes must
//! produce byte-identical exploration outcomes — same verdict, same
//! schedule count, same failing trace.

use txfix_corpus::Variant;
use txfix_explore::{explore_variant, scheduled, ExploreConfig, Strategy};
use txfix_stm::ClockMode;

#[test]
fn gv1_and_gv5_agree_on_every_explored_verdict() {
    let cfg = ExploreConfig { strategy: Strategy::Dfs, budget: 3_000, ..ExploreConfig::default() };
    for (key, build) in scheduled() {
        for variant in [Variant::Buggy, Variant::DevFix, Variant::TmFix] {
            txfix_stm::clock::set_mode(ClockMode::Gv1);
            let gv1 = explore_variant(key, build, variant, &cfg);
            txfix_stm::clock::set_mode(ClockMode::Gv5);
            let gv5 = explore_variant(key, build, variant, &cfg);
            txfix_stm::clock::set_mode(ClockMode::Gv1);

            assert_eq!(
                gv1.ok, gv5.ok,
                "{} [{}]: verdict diverged across clock modes",
                gv1.key, gv1.variant
            );
            assert_eq!(
                gv1.schedules, gv5.schedules,
                "{} [{}]: schedule count diverged across clock modes",
                gv1.key, gv1.variant
            );
            assert_eq!(
                gv1.failure.as_ref().map(|f| (&f.message, &f.trace, f.found_after)),
                gv5.failure.as_ref().map(|f| (&f.message, &f.trace, f.found_after)),
                "{} [{}]: failing schedule diverged across clock modes",
                gv1.key,
                gv1.variant
            );
        }
    }
}
