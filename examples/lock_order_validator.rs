//! Catch a deadlock before it ever strikes (and see why TM avoids the
//! whole problem).
//!
//! ```sh
//! cargo run --example lock_order_validator
//! ```
//!
//! The paper's §3.1 blames lock-based fixes' difficulty on non-local
//! reasoning: every new lock must be ordered against every existing one.
//! The `lockdep` validator mechanizes that reasoning — it flags lock-order
//! inversions from a *successful* run, no hang required — while the
//! transactional version of the same code has nothing to validate.

use txfix::stm::hooks::{self, LOCKDEP};
use txfix::stm::{atomic, TVar};
use txfix::txlock::{lockdep, TxMutex};

fn main() {
    // A tiny "browser": a cache and an atom table, touched from two code
    // paths written by different people, each picking their own order.
    let cache = TxMutex::new("browser.cache", vec![0u64; 4]);
    let atoms = TxMutex::new("browser.atom_table", vec![0u64; 4]);

    let armed = hooks::arm(LOCKDEP);
    lockdep::reset();

    // Path 1 (page load): cache, then atom table.
    {
        let mut c = cache.lock().unwrap();
        let mut a = atoms.lock().unwrap();
        c[0] += 1;
        a[0] += 1;
    }
    // Path 2 (GC, written a year later): atom table, then cache.
    {
        let mut a = atoms.lock().unwrap();
        let mut c = cache.lock().unwrap();
        a[1] += 1;
        c[1] += 1;
    }

    drop(armed);

    println!("Single-threaded test run: finished fine, nothing hung.\n");
    let found = lockdep::inversions();
    if found.is_empty() {
        println!("lockdep: no inversions (unexpected for this demo!)");
    } else {
        for inv in &found {
            println!("lockdep: {inv}");
        }
        println!(
            "\nUnder the right two-thread timing this inversion IS Mozilla#54743's\n\
             deadlock. The validator sees it in one sequential run — this is the\n\
             non-local reasoning a developer must redo for every lock they add."
        );
    }

    // The transactional rewrite has no orders to maintain at all.
    let t_cache = TVar::new(vec![0u64; 4]);
    let t_atoms = TVar::new(vec![0u64; 4]);
    atomic(|txn| {
        t_cache.modify(txn, |mut v| {
            v[0] += 1;
            v
        })?;
        t_atoms.modify(txn, |mut v| {
            v[0] += 1;
            v
        })
    });
    atomic(|txn| {
        t_atoms.modify(txn, |mut v| {
            v[1] += 1;
            v
        })?;
        t_cache.modify(txn, |mut v| {
            v[1] += 1;
            v
        })
    });
    println!(
        "\nTM version: both access orders ran under atomic regions — there is no\n\
         acquisition order to get wrong (Recipe 1's conceptual win)."
    );
}
