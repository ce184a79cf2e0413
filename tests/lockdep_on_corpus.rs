//! The lock-order validator applied to corpus-style lock disciplines:
//! buggy orders are flagged from clean runs; fixed orders validate clean.
//! (Lockdep state is process-global, so this lives in its own test binary
//! to avoid cross-talk with other integration tests; the tests in it take
//! turns through the arming guard.)

use txfix::corpus::{bug_by_scenario, Variant, SCENARIOS};
use txfix::recipes::BugKind;
use txfix::stm::hooks::{self, LOCKDEP};
use txfix::txlock::{lockdep, TxMutex};

#[test]
fn buggy_discipline_is_flagged_and_fixed_discipline_is_clean() {
    let _armed = hooks::arm(LOCKDEP);
    // Phase 1: the Mozilla#54743 shape, sequentially — both orders occur,
    // no deadlock happens, lockdep still reports the hazard.
    lockdep::reset();
    let cache = TxMutex::new("ldc.cache", 0u32);
    let atoms = TxMutex::new("ldc.atoms", 0u32);
    {
        let _a = cache.lock().unwrap();
        let _b = atoms.lock().unwrap();
    }
    {
        let _b = atoms.lock().unwrap();
        let _a = cache.lock().unwrap();
    }
    let hazards = lockdep::inversions();
    assert_eq!(hazards.len(), 1, "expected exactly the cache/atoms inversion: {hazards:?}");

    // Phase 2: the developers' reordered fix validates clean.
    lockdep::reset();
    let cache = TxMutex::new("ldf.cache", 0u32);
    let atoms = TxMutex::new("ldf.atoms", 0u32);
    for _ in 0..3 {
        let _a = cache.lock().unwrap();
        let _b = atoms.lock().unwrap();
    }
    assert!(lockdep::inversions().is_empty(), "fixed order must not be flagged");

    // Phase 3: three-lock rotating order (Mozilla#60303 shape) — every
    // pair ends up inverted: each firm edge of the cycle is reported.
    lockdep::reset();
    let locks: Vec<TxMutex<u32>> =
        (0..3).map(|i| TxMutex::new(Box::leak(format!("ldr.l{i}").into_boxed_str()), 0)).collect();
    for t in 0..3usize {
        let _g1 = locks[t].lock().unwrap();
        let _g2 = locks[(t + 1) % 3].lock().unwrap();
    }
    assert_eq!(lockdep::inversions().len(), 3, "{:?}", lockdep::inversions());
    lockdep::reset();
}

/// Every deadlock reproduction in the corpus, run buggy under the live
/// validator. The pure lock-cycle scenarios must be flagged; the two
/// app-miniature scenarios deadlock through resources lockdep does not
/// model (Mozilla-I's ownership hand-off, Apache-I's condition-variable
/// wait), so no lock-order inversion exists to report — their hazards are
/// the trace analyzer's job, not lockdep's.
#[test]
fn every_deadlock_scenario_runs_under_lockdep() {
    let flagged: &[&str] = &[
        "dl_cache_atomtable",
        "dl_three_lock_cycle",
        "dl_intentional_race",
        "dl_local_lock_order",
        "dl_mysql_table_pair",
    ];
    let _armed = hooks::arm(LOCKDEP);
    let mut seen = 0;
    for s in SCENARIOS {
        let Some(bug) = bug_by_scenario(s.key) else { continue };
        if bug.kind != BugKind::Deadlock {
            continue;
        }
        seen += 1;
        lockdep::reset();
        s.run(Variant::Buggy);
        let hazards = lockdep::inversions();
        if flagged.contains(&s.key) {
            assert!(!hazards.is_empty(), "{}: buggy variant must be flagged", s.key);
        } else {
            assert!(
                hazards.is_empty(),
                "{}: unexpected lock-order inversion {hazards:?} — if lockdep learned to \
                 see this hazard, promote the key to `flagged`",
                s.key
            );
        }
    }
    lockdep::reset();
    assert_eq!(seen, 7, "expected all seven deadlock scenarios to be exercised");
}
