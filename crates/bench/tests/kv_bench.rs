//! The kv macro-bench is a pure function of its config: a double run
//! must serialize to the identical artifact, and every cell must run
//! clean and recover.

use txfix_bench::kv::{kv_report, run_kv_bench, KvBenchConfig};
use txfix_bench::workload::WorkloadCfg;
use txfix_core::json::ToJson;
use txfix_kvstore::Mode;

fn small(seed: u64) -> KvBenchConfig {
    KvBenchConfig {
        seed,
        modes: Mode::ALL.to_vec(),
        shard_counts: vec![2],
        threads: 2,
        ops_per_thread: 40,
        workload: WorkloadCfg { keys: 32, ..WorkloadCfg::default() },
    }
}

#[test]
fn kv_bench_is_deterministic_and_clean() {
    let cfg = small(0xD0D0);
    let a = kv_report(&cfg, run_kv_bench(&cfg));
    let b = kv_report(&cfg, run_kv_bench(&cfg));
    assert_eq!(a.to_json(), b.to_json(), "double run must byte-match");
    assert!(a.ok, "every cell must run clean and recover:\n{}", a.table());
    assert_eq!(a.cells.len(), 3);
    for c in &a.cells {
        assert_eq!(c.ops, 80, "{} lost ops", c.mode.name());
        assert!(c.clean_run && c.recovered_ok);
        assert!(c.steps > 0 && c.p50_steps <= c.p99_steps);
    }
    // A different seed takes a different schedule.
    let cfg2 = small(0xD0D1);
    let c = kv_report(&cfg2, run_kv_bench(&cfg2));
    assert_ne!(a.to_json(), c.to_json());
}
