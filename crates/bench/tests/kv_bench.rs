//! The kv macro-bench is a pure function of its seed: a double run of
//! the committed configuration must serialize to the identical artifact,
//! and every cell must run clean and recover.

use txfix_bench::kv::{kv_report, run_kv_bench, KvBenchConfig, OPS_PER_THREAD, THREADS};
use txfix_core::json::ToJson;

#[test]
fn kv_bench_is_deterministic_and_clean() {
    let cfg = KvBenchConfig::full(0xD0D0);
    let a = kv_report(&cfg, run_kv_bench(&cfg));
    let b = kv_report(&cfg, run_kv_bench(&cfg));
    assert_eq!(a.to_json(), b.to_json(), "double run must byte-match");
    assert!(a.ok, "every cell must run clean and recover:\n{}", a.table());
    assert_eq!(a.cells.len(), 6);
    assert_eq!(THREADS as u64 * OPS_PER_THREAD, 360);
    for c in &a.cells {
        assert_eq!(c.ops, 360, "{} lost ops", c.mode.name());
        assert!(c.clean_run && c.recovered_ok);
        assert!(c.steps > 0 && c.p50_steps <= c.p99_steps);
    }
    // A different seed takes a different schedule.
    let cfg2 = KvBenchConfig::full(0xD0D1);
    let c = kv_report(&cfg2, run_kv_bench(&cfg2));
    assert_ne!(a.to_json(), c.to_json());
}
