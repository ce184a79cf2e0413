//! Ablation A1: instrumentation overhead of synchronization mechanisms.
//!
//! Reproduces the claim behind §3.2 — "software TM implementations may
//! slow down critical sections by 3–5×" — by timing a short critical
//! section (read-modify-write of one word, plus a second shared word to
//! make it multi-location) under each mechanism. Every TM row is the
//! native runtime: no cost is modelled on top of it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use txfix_stm::{EscalationPolicy, TVar, Txn, TxnBuilder};
use txfix_txlock::TxMutex;

fn bench_mechanisms(c: &mut Criterion) {
    let mut g = c.benchmark_group("stm_overhead");
    g.sample_size(20);

    // Baseline: plain mutex around plain data.
    let m = parking_lot::Mutex::new((0u64, 0u64));
    g.bench_function("parking_lot_mutex", |b| {
        b.iter(|| {
            let mut v = m.lock();
            v.0 = v.0.wrapping_add(1);
            v.1 = v.1.wrapping_add(v.0);
            black_box(v.1)
        })
    });

    // The revocable lock's non-transactional path.
    let tm = TxMutex::new("bench.txmutex", (0u64, 0u64));
    g.bench_function("txmutex_plain", |b| {
        b.iter(|| {
            let mut v = tm.lock().expect("uncontended");
            v.0 = v.0.wrapping_add(1);
            v.1 = v.1.wrapping_add(v.0);
            black_box(v.1)
        })
    });

    let a = TVar::new(0u64);
    let bb = TVar::new(0u64);
    let mut tx_bench = |name: &str, txb: TxnBuilder| {
        let (a, bb) = (a.clone(), bb.clone());
        g.bench_function(name, move |bch| {
            bch.iter(|| {
                txb.try_run(|txn| {
                    let x = a.read(txn)?;
                    a.write(txn, x.wrapping_add(1))?;
                    let y = bb.read(txn)?;
                    bb.write(txn, y.wrapping_add(x))?;
                    Ok(y)
                })
                .expect("uncontended transaction")
                .0
            })
        });
    };

    tx_bench("stm_native", Txn::build());

    // The obs registry's contract: disabled (the default, as in
    // `stm_native` above) costs one relaxed load per hook; this variant
    // pins what turning it on adds. Compare `stm_native` against the
    // pre-observability baseline to check the ≤5% disabled budget.
    txfix_stm::obs::enable();
    tx_bench("stm_native_obs_enabled", Txn::build().site("bench.obs_enabled"));
    txfix_stm::obs::disable();

    tx_bench(
        "hybrid_htm",
        Txn::build().capacity(1024, 256).escalation(EscalationPolicy::default()),
    );

    g.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
