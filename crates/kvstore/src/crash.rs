//! The KV store as a crash-sweep subject (`txfix crash kvstore`).
//!
//! [`txfix_wal::checker::run_crash_sweep`] is the engine; this module
//! gives it the store's script and oracle. The script (puts, deletes,
//! atomic groups, checkpoints with and without log truncation) crosses
//! the WAL append path *and* the buffer-pool flush path
//! ([`KV_POOL_FLUSH`][crate::page::KV_POOL_FLUSH], `simos_file_truncate`).
//! After each crash the store recovers with [`KvStore::open`] and every
//! shard must be a batch prefix:
//!
//! * **atomicity** — the recovered shard equals the oracle state after
//!   some whole number of batches (no torn batch, no torn group);
//! * **durability** — that number covers every batch acknowledged before
//!   the crash;
//! * **no resurrection** — a prefix state can never exhibit a deleted
//!   key's old value or a pre-checkpoint record replayed over a newer
//!   one (stale redo records are fenced by the checkpoint's `next_txid`).
//!
//! Each shard's crashed log must also keep the WAL protocol's own promise,
//! checked before reopening: **no durable commit marker follows an
//! unparseable line** (records are synced before their marker is written,
//! so a torn line can only sit after the last durable marker). The prefix
//! check alone cannot see a batch torn under its surviving marker: this
//! script's batches are single-record or tear whole, so the torn batch
//! just looks like one that never committed.
//!
//! Recovery must also be idempotent. No mode plants a bug: *every* mode
//! must be clean at *every* crash point (the `wal_skip_fsync` and
//! `wal_commit_before_fsync` canaries are what this sweep must flag).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::store::{shard_placement, KvConfig, KvStore, Mode};
use txfix_wal::checker::CrashSubject;
use txfix_wal::{records, Record, WalOp};
use txfix_xcall::{crashpoint, SimFs, BLOCK_BYTES};

const SHARDS: usize = 2;

/// One scripted store transaction and whether the client saw it commit
/// before the crash froze the world.
pub struct BatchFact {
    shard: usize,
    ops: Vec<WalOp>,
    acked: bool,
}

/// First `n` probe keys that hash to `shard`.
fn keys_for(shard: usize, n: usize) -> Vec<String> {
    (0..).map(|i| format!("c{i}")).filter(|k| shard_placement(k, SHARDS) == shard).take(n).collect()
}

fn config(mode: Mode) -> KvConfig {
    // A tiny pool, so checkpoints exercise eviction write-backs too.
    KvConfig { pool_pages: 2, ..KvConfig::new(mode, SHARDS) }
}

/// The per-shard prefix invariant (see module docs).
fn check_prefix(facts: &[BatchFact], recovered: &[BTreeMap<String, String>]) -> Vec<String> {
    let mut violations = Vec::new();
    for (shard, recovered_shard) in recovered.iter().enumerate() {
        let shard_facts: Vec<&BatchFact> = facts.iter().filter(|f| f.shard == shard).collect();
        // Acked batches must form a prefix: once the world froze, no
        // later batch can have been acknowledged.
        let acked = shard_facts.iter().take_while(|f| f.acked).count();
        if shard_facts.iter().skip(acked).any(|f| f.acked) {
            violations.push(format!("harness: shard {shard} acked a batch after a crash froze"));
            continue;
        }
        let mut states: Vec<BTreeMap<String, String>> = vec![BTreeMap::new()];
        for f in &shard_facts {
            let mut next = states.last().unwrap().clone();
            for op in &f.ops {
                match op {
                    WalOp::Put(k, v) => drop(next.insert(k.clone(), v.clone())),
                    WalOp::Delete(k) => drop(next.remove(k)),
                }
            }
            states.push(next);
        }
        // The highest matching prefix decides: torn or reordered batches
        // match nothing, a lost acked batch matches only a too-short one.
        match states.iter().rposition(|s| s == recovered_shard) {
            None => violations.push(format!(
                "atomicity: shard {shard} recovered to a state that is no batch prefix \
                 (torn batch, torn group, or resurrected value): {recovered_shard:?}"
            )),
            Some(j) if j < acked => violations.push(format!(
                "durability: shard {shard} recovered only {j} of {acked} acknowledged batches"
            )),
            Some(_) => {}
        }
    }
    violations
}

/// The txid of the first commit marker in `log` that follows an
/// unparseable line, if any (see module docs).
fn torn_commit(log: &[u8]) -> Option<u64> {
    let after_torn = records(log).skip_while(Option::is_some).flatten();
    after_torn.filter(|(_, r)| *r == Record::Commit).map(|(txid, _)| txid).next()
}

impl CrashSubject for KvStore {
    type Cell = Mode;
    type Facts = Vec<BatchFact>;

    const SCHEMA: &'static str = "txfix-crash-kv-v1";
    const KEYS: (&'static str, &'static str) = ("modes", "mode");
    const HEADER: Option<(&'static str, u64)> = Some(("shards", SHARDS as u64));

    fn cell_name(mode: Mode) -> &'static str {
        mode.name()
    }

    fn run(mode: Mode) -> (Arc<SimFs>, Vec<BatchFact>) {
        let fs = SimFs::new();
        let mut kv = KvStore::open(&fs, config(mode));
        let a = keys_for(0, 4);
        let b = keys_for(1, 4);
        // Values long enough to span several simos blocks and more than one
        // buffer-pool page, so torn records and torn checkpoint pages are
        // both reachable.
        let long = "L".repeat(3 * BLOCK_BYTES);
        let put = |k: &str, v: &str| vec![WalOp::Put(k.to_string(), v.to_string())];
        let del = |k: &str| vec![WalOp::Delete(k.to_string())];
        let mut facts: Vec<BatchFact> = Vec::new();
        let mut exec = |kv: &KvStore, ops: Vec<WalOp>| {
            kv.apply_group(&ops).expect("script ops are valid single-shard tokens");
            let shard = match &ops[0] {
                WalOp::Put(k, _) | WalOp::Delete(k) => shard_placement(k, SHARDS),
            };
            facts.push(BatchFact { shard, ops, acked: !crashpoint::is_frozen() });
        };
        exec(&kv, put(&a[0], "alpha"));
        exec(&kv, put(&b[0], "beta"));
        exec(&kv, put(&a[1], &long));
        exec(&kv, [put(&a[2], "g1"), del(&a[0]), put(&a[3], "g2")].concat());
        kv.checkpoint(0);
        exec(&kv, put(&b[1], &long));
        kv.checkpoint_and_truncate(1);
        exec(&kv, del(&b[0]));
        exec(&kv, put(&a[0], "back"));
        exec(&kv, [put(&b[2], "h1"), put(&b[0], "h2")].concat());
        kv.checkpoint_and_truncate(0);
        exec(&kv, put(&a[1], "rewritten"));
        exec(&kv, del(&a[3]));
        kv.checkpoint(1);
        exec(&kv, put(&b[3], "tail"));
        // A terminal label, so the sweep also proves the quiescent store
        // recovers completely.
        crashpoint::crash_point("kv_quiesce");
        (fs, facts)
    }

    fn recover_and_check(mode: Mode, fs: &Arc<SimFs>, facts: &Vec<BatchFact>) -> Vec<String> {
        let torn: Vec<String> = (0..SHARDS)
            .filter_map(|s| {
                let log = fs.open(&format!("kv_shard{s}.wal")).expect("the store creates its logs");
                torn_commit(&log.read_all()).map(|txid| {
                    format!(
                        "atomicity: shard {s} log has a durable commit marker for txn {txid} \
                         after an unparseable line (marker durable before its records)"
                    )
                })
            })
            .collect();
        let kv = KvStore::open(fs, config(mode));
        let recovered: Vec<_> = (0..SHARDS).map(|s| kv.shard_snapshot(s)).collect();
        let mut violations = check_prefix(facts, &recovered);
        violations.extend(torn);
        // Recovery must be idempotent: opening the crashed image again (no
        // writes happened in between) reconstructs the same state.
        drop(kv);
        let again = KvStore::open(fs, config(mode));
        for (s, rec) in recovered.iter().enumerate() {
            if &again.shard_snapshot(s) != rec {
                violations.push(format!("recovery of shard {s} is not idempotent"));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::torn_commit;

    #[test]
    fn a_commit_marker_after_an_unparseable_line_is_torn() {
        let clean = b"P 1 a x ;\nC 1 ;\nD 2 a ;\nC 2 ;\n";
        assert_eq!(torn_commit(clean), None);
        // A torn tail after the last marker: the batch never committed.
        assert_eq!(torn_commit(b"P 1 a x ;\nC 1 ;\nP 2 b \0\0\0\0"), None);
        // A zeroed block before a surviving marker: its records were not
        // durable when the marker was.
        let mut log = b"P 1 a x ;\nC 1 ;\n".to_vec();
        log.extend([0u8; 32]);
        log.extend(b"\nC 7 ;\n");
        assert_eq!(torn_commit(&log), Some(7));
    }
}
