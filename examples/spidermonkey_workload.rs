//! The Mozilla-I case study end to end (paper §5.4.1).
//!
//! ```sh
//! cargo run --release --example spidermonkey_workload
//! ```
//!
//! Runs the SunSpider-like interpreter workload over every object-store
//! variant and prints throughput relative to the developers' fix — the
//! numbers behind Table 4's Mozilla-I row (paper: 21% on software TM,
//! 99.3% on hardware, 85% with Recipe 3 preemption). Recipe 1 runs on the
//! native STM; only the hardware variant is a model.

use txfix::apps::spidermonkey::{
    run_script_workload, HwModelStore, ObjectStore, OwnershipMode, OwnershipStore, PreemptStore,
    ScriptParams, StmStore,
};

fn main() {
    let p = ScriptParams {
        threads: 4,
        objects_per_thread: 8,
        slots: 8,
        shared_objects: 4,
        iterations: 20_000,
        cross_object_period: 64,
        compute_ns: 250,
    };
    let total = p.total_objects();

    let dev = OwnershipStore::new(OwnershipMode::DevFix, total, p.slots);
    let sw = StmStore::new(total, p.slots);
    let hw = HwModelStore::new(total, p.slots);
    let pre = PreemptStore::new(total, p.slots);
    let stores: [&dyn ObjectStore; 4] = [&dev, &sw, &hw, &pre];

    println!(
        "SunSpider stand-in: {} threads x {} ops, cross-object move every {} ops\n",
        p.threads, p.iterations, p.cross_object_period
    );

    let mut baseline = None;
    for store in stores {
        let r = run_script_workload(store, &p);
        let rel = match baseline {
            None => {
                baseline = Some(r.ops_per_sec);
                1.0
            }
            Some(base) => r.ops_per_sec / base,
        };
        println!(
            "{:35} {:>12.0} ops/s   {:>6.1}% of developer fix",
            store.variant_name(),
            r.ops_per_sec,
            rel * 100.0
        );
    }

    println!("\nShape to compare with the paper: the native STM well below the ownership");
    println!("protocol (paper: 21%), the hardware model at parity (99.3%), and Recipe 3");
    println!("in between (85%) because only the rare cross-object path is transactional.");
}
