//! What the benchmark measures: the four workloads, the load model, and
//! every metric by name. `BENCHMARK.json` at the repo root is generated
//! from these tables ([`benchmark_json`]; a test pins the committed file
//! to it), so the declaration and the runner cannot drift apart.

use txfix_bench::workload::{Mix, WorkloadCfg};

/// Closed-loop client threads. The host has two cores; never more
/// threads than cores.
pub const CLIENTS: usize = 2;

/// `run_seconds` in `BENCHMARK.json`: the measuring time of one run.
pub const RUN_SECONDS: u64 = 20;

/// The seed used when none is given. Seed 11 is held out: it is not used
/// while a change is written, only to confirm a claim afterwards.
pub const DEFAULT_SEED: u64 = 7;

/// One workload: store shape, key-space, skew, op mix and round size.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub shards: usize,
    pub keys: u64,
    pub theta: f64,
    /// `get:put:delete:scan`.
    pub mix: Mix,
    /// Ops each client issues per round. Fixed: WAL append cost grows with
    /// log length, so the round size is part of the workload.
    pub ops_per_client: u64,
    /// Slices a client's round is timed in (see `ModeRun::ops_per_s`): a
    /// slice should last tens of milliseconds — long enough to average the
    /// program's own rare slow ops (scans, backoff), far shorter than the
    /// host's stalls.
    pub slices: u64,
}

impl WorkloadSpec {
    pub fn cfg(&self) -> WorkloadCfg {
        WorkloadCfg { keys: self.keys, theta: self.theta, mix: self.mix, ..WorkloadCfg::default() }
    }
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "read_hot",
        why: "4 shards, 256 keys, 95% gets + 5% scans: STM begin/read/validate/commit and the dev \
              lock do the work; WAL, xcall and pool are bypassed, so WAL or page changes must not \
              move it",
        shards: 4,
        keys: 256,
        theta: 0.9,
        mix: Mix { get: 95, put: 0, delete: 0, scan: 5 },
        ops_per_client: 250_000,
        slices: 10,
    },
    WorkloadSpec {
        name: "write_durable",
        why: "4 shards, 256 keys, 80% puts + 10% deletes: WAL append and two fsyncs per op \
              dominate (sync cost grows with log length); shows group commit / incremental sync, \
              STM share is small",
        shards: 4,
        keys: 256,
        theta: 0.9,
        mix: Mix { get: 10, put: 80, delete: 10, scan: 0 },
        ops_per_client: 2_000,
        slices: 1,
    },
    WorkloadSpec {
        name: "big_index",
        why: "4 shards, 8192 keys (~512 entries/bucket, ~800 pages per shard checkpoint vs a \
              4-frame pool): data far larger than the program's cache; bucket clones, scans and \
              page streaming dominate",
        shards: 4,
        keys: 8192,
        theta: 0.9,
        mix: Mix { get: 80, put: 15, delete: 3, scan: 2 },
        ops_per_client: 4_000,
        slices: 10,
    },
    WorkloadSpec {
        name: "contended_mix",
        why: "1 shard, 64 keys, theta 1.2, 45% gets + 45% puts: reads beside writes on one hot \
              shard, so aborts, backoff, escalation and lock convoying decide; only here can \
              hybrid differ from tm",
        shards: 1,
        keys: 64,
        theta: 1.2,
        mix: Mix { get: 45, put: 45, delete: 5, scan: 5 },
        ops_per_client: 2_000,
        slices: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// One declared metric. End-to-end metrics carry the share of the parent's
/// median by which they may worsen; per-layer metrics have no bound.
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl { name, unit, better, bound: None }
}

/// What a caller of the store sees. Every workload reports every one of
/// these (the driver's contract), so a metric that some workload's op mix
/// cannot produce — write and scan latency, write amplification — lives in
/// [`PER_LAYER`] instead, and so does `tm.get_p99_us`, whose ten-seed spread
/// on this host (15 % on `read_hot`, one 2.4 ms reading on `big_index`) no
/// bound can hold. The bounds are the widest the contract allows: with times
/// in reference nanoseconds the ten-seed spreads are 1-15 %, and a bound is
/// meant to be three times the spread.
pub const END_TO_END: [MetricDecl; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tm.ops_per_s", "ops/s", Higher, 0.25),
    e2e("dev.ops_per_s", "ops/s", Higher, 0.25),
    e2e("tm.get_p50_us", "us", Lower, 0.25),
    e2e("checkpoint_ms", "ms", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
];

/// Per-layer metrics, prefix = module. Gathered by the traced run.
pub const PER_LAYER: [MetricDecl; 61] = [
    // Caller-visible numbers that not every workload can produce (0 where
    // the op mix has no such op) or that do not repeat, measured with
    // tracing off.
    layer("tm.get_p99_us", "us", Lower),
    layer("tm.write_p50_us", "us", Lower),
    layer("tm.write_p99_us", "us", Lower),
    layer("tm.scan_p50_us", "us", Lower),
    layer("write_amp", "ratio", Lower),
    layer("hybrid.ops_per_s", "ops/s", Higher),
    layer("workload.gen_ns_per_op", "ns", Lower),
    layer("store.get_ns_p50", "ns", Lower),
    layer("store.put_ns_p50", "ns", Lower),
    layer("store.delete_ns_p50", "ns", Lower),
    layer("store.scan_ns_p50", "ns", Lower),
    layer("store.dev.get_ns_p50", "ns", Lower),
    layer("store.dev.put_ns_p50", "ns", Lower),
    layer("store.attempts_per_op", "ratio", Lower),
    layer("store.aborts", "count", Lower),
    layer("store.escalations", "count", Lower),
    layer("store.serial_commits", "count", Lower),
    layer("store.bucket_entries_mean", "count", Lower),
    layer("store.open_ns", "ns", Lower),
    layer("store.checkpoint_ns_per_entry", "ns", Lower),
    layer("store.self_get_ns", "ns", Lower),
    layer("store.self_put_ns", "ns", Lower),
    layer("store.tm_over_dev", "ratio", Lower),
    layer("stm.txn_empty_ns", "ns", Lower),
    layer("stm.read_u64_ns", "ns", Lower),
    layer("stm.rw_u64_ns", "ns", Lower),
    layer("stm.read_map_ns", "ns", Lower),
    layer("stm.rw_map_ns", "ns", Lower),
    layer("stm.get_shape_ns", "ns", Lower),
    layer("stm.put_shape_ns", "ns", Lower),
    layer("stm.obs.commits", "count", Higher),
    layer("stm.obs.aborts_validation", "count", Lower),
    layer("stm.obs.aborts_orec", "count", Lower),
    layer("stm.obs.backoff_ns", "ns", Lower),
    layer("stm.obs.escalations", "count", Lower),
    layer("txlock.lock_ns", "ns", Lower),
    layer("txlock.obs.lock_acquisitions", "count", Lower),
    layer("wal.log_put_empty_ns", "ns", Lower),
    layer("wal.log_put_mid_ns", "ns", Lower),
    layer("wal.log_put_end_ns", "ns", Lower),
    layer("wal.bytes_per_put", "bytes", Lower),
    layer("wal.recover_ns_per_record", "ns", Lower),
    layer("xcall.append_ns", "ns", Lower),
    layer("xcall.sync_mid_ns", "ns", Lower),
    layer("xcall.sync_end_ns", "ns", Lower),
    layer("xcall.xfile_append_sync_ns", "ns", Lower),
    layer("xcall.obs.xcalls", "count", Lower),
    layer("page.encode_ns_per_entry", "ns", Lower),
    layer("page.decode_ns_per_entry", "ns", Lower),
    layer("page.write_flush_ns_per_page", "ns", Lower),
    layer("page.read_ns_per_page", "ns", Lower),
    layer("page.hits", "count", Higher),
    layer("page.misses", "count", Lower),
    layer("page.evictions", "count", Lower),
    layer("page.flushed_pages", "count", Lower),
    layer("page.hit_rate", "ratio", Higher),
    layer("page.checkpoint_bytes", "bytes", Lower),
    layer("host.speed_p50", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Higher),
    layer("trace.history_events", "count", Higher),
];

/// The declared unit of `name`, in whichever table holds it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name).map(|m| m.unit)
}

fn metric_json(m: &MetricDecl) -> String {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    let bound = m.bound.map(|b| format!(", \"bound\": {b}")).unwrap_or_default();
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// The exact text of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": \
         [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: kvbench --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_whys_meet_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "metric {} declared twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
