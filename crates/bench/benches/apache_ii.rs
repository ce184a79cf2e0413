//! CS3: Apache-II (§5.4.3) — request loop with one buffered-log write per
//! request. Paper shape: Recipe 2 within ~4% of the developers' per-log
//! locks, with equal cross-log concurrency.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use txfix_apps::apache::buffered_log::{make_record, RECORD_LEN};
use txfix_apps::apache::{LockedBufferedLog, LogWriter, TmBufferedLog};
use txfix_xcall::SimFs;

const THREADS: usize = 4;
const REQUESTS: u64 = 500;

fn busy(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn serve(log: &dyn LogWriter) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..REQUESTS {
                    busy(Duration::from_micros(8));
                    log.write_record(&make_record(t, i));
                }
            });
        }
    });
    log.flush();
}

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("apache_ii");
    g.sample_size(10);

    let fs = SimFs::new();
    let dev = LockedBufferedLog::new(&fs, "dev.log", 64 * RECORD_LEN);
    g.bench_function("developer_fix_per_log_lock", |b| b.iter(|| serve(&dev)));

    let tm = TmBufferedLog::new(&fs, "tm.log", 64 * RECORD_LEN);
    g.bench_function("recipe2_atomic_xcall", |b| b.iter(|| serve(&tm)));

    // Cross-log concurrency check: two independent logs, two threads each.
    let dev_a = LockedBufferedLog::new(&fs, "a.log", 64 * RECORD_LEN);
    let dev_b = LockedBufferedLog::new(&fs, "b.log", 64 * RECORD_LEN);
    g.bench_function("developer_fix_two_logs", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                s.spawn(|| serve_one(&dev_a, 0));
                s.spawn(|| serve_one(&dev_b, 1));
            })
        })
    });
    let tm_a = TmBufferedLog::new(&fs, "ta.log", 64 * RECORD_LEN);
    let tm_b = TmBufferedLog::new(&fs, "tb.log", 64 * RECORD_LEN);
    g.bench_function("recipe2_two_logs", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                s.spawn(|| serve_one(&tm_a, 0));
                s.spawn(|| serve_one(&tm_b, 1));
            })
        })
    });

    g.finish();
}

fn serve_one(log: &dyn LogWriter, t: usize) {
    for i in 0..REQUESTS {
        busy(Duration::from_micros(8));
        log.write_record(&make_record(t, i));
    }
    log.flush();
}

criterion_group!(benches, bench_log);
criterion_main!(benches);
