//! CS1: Mozilla-I (§5.4.1) — SunSpider-like interpreter workload over the
//! four object-store variants. Paper shape: developer fix ≫ Recipe 1 on
//! software TM (21%; here the native STM); hardware TM recovers parity
//! (99.3%; here modelled by `HwModelStore`); Recipe 3 sits in between
//! (85%).

use criterion::{criterion_group, criterion_main, Criterion};
use txfix_apps::spidermonkey::{
    run_script_workload, HwModelStore, ObjectStore, OwnershipMode, OwnershipStore, PreemptStore,
    ScriptParams, StmStore,
};

fn params() -> ScriptParams {
    ScriptParams {
        threads: 4,
        objects_per_thread: 8,
        slots: 8,
        shared_objects: 4,
        iterations: 3_000,
        cross_object_period: 64,
        compute_ns: 250,
    }
}

fn bench_variants(c: &mut Criterion) {
    let p = params();
    let total = p.total_objects();
    let mut g = c.benchmark_group("mozilla_i");
    g.sample_size(10);

    let run = |store: &dyn ObjectStore| {
        let r = run_script_workload(store, &p);
        assert_eq!(r.abandoned, 0);
    };

    let dev = OwnershipStore::new(OwnershipMode::DevFix, total, p.slots);
    g.bench_function("developer_fix_ownership", |b| b.iter(|| run(&dev)));

    let sw = StmStore::new(total, p.slots);
    g.bench_function("recipe1_native_stm", |b| b.iter(|| run(&sw)));

    let hw = HwModelStore::new(total, p.slots);
    g.bench_function("recipe1_hardware_model", |b| b.iter(|| run(&hw)));

    let pre = PreemptStore::new(total, p.slots);
    g.bench_function("recipe3_preemptible_locks", |b| b.iter(|| run(&pre)));

    g.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
