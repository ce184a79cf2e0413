//! Where the retry loop backs off. A transaction that loses read
//! validation lost to a commit that has already landed, so its first such
//! loss re-runs the body at once; a second consecutive loss sleeps, and so
//! does every other conflict. These run on OS threads: under the
//! deterministic scheduler no backoff sleeps at all.

use std::time::{Duration, Instant};
use txfix_stm::obs::{self, SiteSnapshot};
use txfix_stm::{atomic, hooks, StmResult, TVar, Txn, TxnReport};

/// Run one read-modify-write of a fresh `TVar` under `site`, with a helper
/// thread committing to the same variable between the body's read and its
/// commit on each attempt listed in `losing`. Returns the call's report
/// and the site's metrics for the call.
fn lose_validation_on(site: &'static str, losing: &[u64]) -> (TxnReport, SiteSnapshot) {
    let _obs = hooks::arm(hooks::OBS);
    let id = obs::intern(site);
    let before = obs::snapshot();
    let v = TVar::new(0u64);
    let (_, report) = Txn::build().site(site).run(|txn| {
        let x = v.read(txn)?;
        if losing.contains(&txn.attempt()) {
            std::thread::scope(|s| {
                s.spawn(|| atomic(|t| v.modify(t, |y| y + 100)));
            });
        }
        v.write(txn, x + 1)
    });
    assert_eq!(v.load(), 100 * losing.len() as u64 + 1, "every commit landed once");
    let delta = obs::snapshot().delta(&before);
    (report, *delta.site(id).expect("site registered"))
}

#[test]
fn the_first_lost_validation_retries_without_sleeping() {
    let (report, site) = lose_validation_on("backoff_first_loss", &[1]);
    assert_eq!(report.attempts, 2);
    assert_eq!(site.aborts_validation, 1);
    assert_eq!(site.backoff_ns, 0, "the first lost validation slept");
}

#[test]
fn the_second_lost_validation_sleeps() {
    let (report, site) = lose_validation_on("backoff_second_loss", &[1, 2]);
    assert_eq!(report.attempts, 3);
    assert_eq!(site.aborts_validation, 2);
    assert!(site.backoff_ns > 0, "the second lost validation did not back off");
}

/// One crossing transaction: read both variables, write `vars[own]`.
fn cross(txn: &mut Txn, vars: &[TVar<u64>; 2], own: usize) -> StmResult<()> {
    let mine = vars[own].read(txn)?;
    let _theirs = vars[1 - own].read(txn)?;
    vars[own].write(txn, mine + 1)
}

#[test]
fn crossing_writers_under_the_default_policy_make_progress() {
    const THREADS: usize = 4;
    const COMMITS: u64 = 2_000;
    const BOUND: Duration = Duration::from_secs(60);
    let vars = [TVar::new(0u64), TVar::new(0u64)];
    let started = Instant::now();
    let attempts: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let vars = &vars;
                s.spawn(move || {
                    (0..COMMITS)
                        .map(|_| Txn::build().run(|txn| cross(txn, vars, t % 2)).1.attempts)
                        .sum::<u64>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let elapsed = started.elapsed();
    let per_var = COMMITS * (THREADS as u64 / 2);
    assert_eq!([vars[0].load(), vars[1].load()], [per_var, per_var]);
    assert!(elapsed < BOUND, "{} commits took {elapsed:?} ({attempts} attempts)", 2 * per_var);
}
