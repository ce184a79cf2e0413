//! A KV cell under a chaos fault backdrop: forced begin/read/pre-commit
//! aborts must cost retries, never correctness. The oracle checker
//! proves no update is lost and no read goes stale; paired group writes
//! prove groups never tear; and the escalation ladder stays inside the
//! DESIGN §8 bound — writers (who hold the WAL isolation lock) never
//! commit on the serial rung, however hard chaos pushes them.
//!
//! The cell is partitioned by shard so each invariant has a clean
//! oracle: shard 1 takes only single-key ops (checked against the
//! sequential oracle, which requires every version bump to be a recorded
//! event), shard 0 takes only the paired group writes (checked by final
//! pair equality).

use txfix_kvstore::model::{self, Event, ModelOp, ModelResult};
use txfix_kvstore::{shard_placement, KvConfig, KvStore, Mode, OpStats};
use txfix_stm::chaos::{self, splitmix64, FaultPlan, InjectionPoint, Trigger};
use txfix_stm::sched;
use txfix_wal::WalOp;
use txfix_xcall::SimFs;

const SHARDS: usize = 2;

/// `n` keys that all live on `shard`.
fn keys_on(shard: usize, n: usize) -> Vec<String> {
    (0..).map(|i| format!("g{i}")).filter(|k| shard_placement(k, SHARDS) == shard).take(n).collect()
}

struct WorkerOut {
    events: Vec<Event>,
    write_serial_commits: u64,
    read_serial_commits: u64,
    read_ops: u64,
    aborts: u64,
}

#[test]
fn chaos_aborts_cost_retries_never_correctness() {
    let plan = FaultPlan::new(splitmix64(0xBAC_D004))
        .with(InjectionPoint::TxnBegin, Trigger::EveryNth(11))
        .with(InjectionPoint::TxnRead, Trigger::EveryNth(7))
        .with(InjectionPoint::TxnPreCommit, Trigger::EveryNth(5));
    for mode in [Mode::Tm, Mode::Hybrid] {
        sched::run_exclusively(|| {
            let fs = SimFs::new();
            let store = KvStore::open(&fs, KvConfig::new(mode, SHARDS));
            let pair = keys_on(0, 2);
            let singles = keys_on(1, 6);
            let kv = &store;
            let (pair, singles) = (&pair, &singles);
            let _chaos = chaos::scoped(&plan);
            let workers: Vec<Box<dyn FnOnce() -> WorkerOut + Send + '_>> = (0..3u64)
                .map(|w| {
                    Box::new(move || run_worker(kv, pair, singles, w))
                        as Box<dyn FnOnce() -> WorkerOut + Send + '_>
                })
                .collect();
            let (outs, log) =
                sched::run_workers(workers, 10_000_000, model::seeded_picker(0xC0DE ^ mode as u64));
            assert!(log.stop.is_none(), "{}: {:?}", mode.name(), log.stop);
            let outs: Vec<WorkerOut> = outs.into_iter().map(Option::unwrap).collect();

            // Chaos actually bit: forced aborts happened and were retried.
            let aborts: u64 = outs.iter().map(|o| o.aborts).sum();
            assert!(aborts > 0, "{}: the fault plan never fired", mode.name());

            // No lost updates, no stale reads, no diverged displacements.
            let events: Vec<Event> = outs.iter().flat_map(|o| o.events.iter().cloned()).collect();
            if let Err(divergence) = model::check_history(&events) {
                panic!("{}: {divergence}", mode.name());
            }

            // Groups never tear: both halves of every pair write landed
            // together, so the final values agree.
            let final_scan = store.scan(0).unwrap().value;
            let val_of = |k: &str| final_scan.iter().find(|&(key, _)| key == k).map(|(_, v)| v);
            assert!(val_of(&pair[0]).is_some(), "{}: no group write landed", mode.name());
            assert_eq!(
                val_of(&pair[0]),
                val_of(&pair[1]),
                "{}: a paired group write tore",
                mode.name()
            );

            // Bounded escalation-to-serial (DESIGN §8): writers never.
            let write_serial: u64 = outs.iter().map(|o| o.write_serial_commits).sum();
            assert_eq!(write_serial, 0, "{}: a writer took the serial rung", mode.name());
            let read_serial: u64 = outs.iter().map(|o| o.read_serial_commits).sum();
            let read_ops: u64 = outs.iter().map(|o| o.read_ops).sum();
            assert!(read_serial <= read_ops);
            if mode == Mode::Tm {
                assert_eq!(read_serial, 0, "tm mode has no serial rung at all");
            }
        });
    }
}

fn run_worker(kv: &KvStore, pair: &[String], singles: &[String], w: u64) -> WorkerOut {
    let mut out = WorkerOut {
        events: Vec::new(),
        write_serial_commits: 0,
        read_serial_commits: 0,
        read_ops: 0,
        aborts: 0,
    };
    fn event(op: ModelOp, result: ModelResult, stats: &OpStats) -> Event {
        Event { shard: stats.shard, version: stats.version, op, result }
    }
    let mut h = splitmix64(0xFEED ^ w);
    for i in 0..12u64 {
        h = splitmix64(h);
        let key = &singles[(h % singles.len() as u64) as usize];
        match h % 5 {
            0 => {
                let r = kv.get(key).unwrap();
                out.read_ops += 1;
                out.read_serial_commits += r.stats.serialized as u64;
                out.aborts += r.stats.attempts - 1;
                out.events.push(event(
                    ModelOp::Get(key.clone()),
                    ModelResult::Value(r.value),
                    &r.stats,
                ));
            }
            1 => {
                // Scan only the singles shard: shard 0's versions are
                // bumped by unrecorded group writes.
                let r = kv.scan(1).unwrap();
                out.read_ops += 1;
                out.read_serial_commits += r.stats.serialized as u64;
                out.aborts += r.stats.attempts - 1;
                out.events.push(event(ModelOp::Scan, ModelResult::Snapshot(r.value), &r.stats));
            }
            2 => {
                let val = format!("v{w}_{i}");
                let r = kv.put(key, &val).unwrap();
                out.write_serial_commits += r.stats.serialized as u64;
                out.aborts += r.stats.attempts - 1;
                out.events.push(event(
                    ModelOp::Put(key.clone(), val),
                    ModelResult::Value(r.value),
                    &r.stats,
                ));
            }
            3 => {
                let r = kv.delete(key).unwrap();
                out.write_serial_commits += r.stats.serialized as u64;
                out.aborts += r.stats.attempts - 1;
                out.events.push(event(
                    ModelOp::Delete(key.clone()),
                    ModelResult::Value(r.value),
                    &r.stats,
                ));
            }
            _ => {
                // A paired group write: both keys get the same value, in
                // one atomic (single-shard) group on shard 0.
                let val = format!("p{w}_{i}");
                let ops = vec![
                    WalOp::Put(pair[0].clone(), val.clone()),
                    WalOp::Put(pair[1].clone(), val),
                ];
                let r = kv.apply_group(&ops).unwrap();
                out.write_serial_commits += r.stats.serialized as u64;
                out.aborts += r.stats.attempts - 1;
            }
        }
    }
    out
}
