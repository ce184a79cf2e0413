//! Ablation A3: hardware capacity bounds and fallback cost.
//!
//! The hardware-TM result of §5.4.1 relies on transactions fitting the
//! hardware's tracking capacity. This bench sweeps the transaction
//! footprint across a fixed capacity bound on the ladder's hardware rung
//! and measures the cost of the software fallback engaging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txfix_stm::{EscalationPolicy, EscalationRung, TVar, Txn};

fn bench_capacity_sweep(c: &mut Criterion) {
    let vars: Vec<TVar<u64>> = (0..512).map(|_| TVar::new(1)).collect();
    let hybrid = Txn::build().capacity(64, 64).escalation(EscalationPolicy::default());

    let mut g = c.benchmark_group("htm_capacity");
    g.sample_size(20);

    for &footprint in &[8usize, 32, 56, 72, 128, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(footprint), &footprint, |b, &n| {
            b.iter(|| {
                let (sum, report) = hybrid
                    .try_run(|txn| {
                        let mut s = 0;
                        for v in &vars[..n] {
                            s += v.read(txn)?;
                        }
                        Ok(s)
                    })
                    .expect("sweep transaction");
                assert_eq!(sum, n as u64);
                // Shape check: within capacity commits in hardware,
                // beyond it falls back.
                if n < 60 {
                    assert_eq!(report.committed_rung, EscalationRung::Hardware);
                } else if n > 70 {
                    assert_eq!(report.committed_rung, EscalationRung::Optimistic);
                }
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_capacity_sweep);
criterion_main!(benches);
