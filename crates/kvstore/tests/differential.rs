//! Differential test: the store versus a sequential `BTreeMap` oracle.
//!
//! Concurrent workers run mixed get/put/delete/scan histories against a
//! [`KvStore`] under the deterministic scheduler; every committed op
//! records the shard version at its serialization point. The
//! [`model::check_history`] checker replays that serialization order
//! against the oracle and rejects stale reads, lost/duplicated updates,
//! diverged displaced values and torn scans. Each mode runs one hundred
//! seeded histories (different seed → different schedule *and* different
//! op stream), plus a proptest layer over arbitrary seeds. The scheduler
//! makes a transactional read or a commit one step, so the same op stream
//! also runs on real threads against one shard, where a read races a
//! commit at the granularity of individual loads.

use proptest::prelude::*;
use txfix_kvstore::model::{self, Event, ModelOp, ModelResult};
use txfix_kvstore::{KvConfig, KvStore, Mode};
use txfix_stm::chaos::splitmix64;
use txfix_stm::sched;
use txfix_xcall::SimFs;

const KEYS: [&str; 8] = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"];
const THREADS: usize = 3;
const OPS_PER_THREAD: u64 = 14;
const MAX_STEPS: u64 = 5_000_000;
/// Ops per worker in the real-thread variant.
const REAL_THREAD_OPS: u64 = 10_000;

type Worker<'a> = Box<dyn FnOnce() -> Vec<Event> + Send + 'a>;

/// The seeded op stream: one body per worker thread, each recording the
/// events it committed on `kv`.
fn workers(kv: &KvStore, seed: u64, ops: u64) -> Vec<Worker<'_>> {
    let shards = kv.config().shards as u64;
    (0..THREADS as u64)
        .map(|w| {
            Box::new(move || {
                let mut events = Vec::new();
                let mut h = splitmix64(seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for i in 0..ops {
                    h = splitmix64(h);
                    let key = KEYS[(h % KEYS.len() as u64) as usize];
                    let kind = splitmix64(h ^ i) % 10;
                    let (op, result, stats) = if kind < 4 {
                        let r = kv.get(key).unwrap();
                        (ModelOp::Get(key.into()), ModelResult::Value(r.value), r.stats)
                    } else if kind < 8 {
                        let val = format!("v{w}_{i}");
                        let r = kv.put(key, &val).unwrap();
                        (ModelOp::Put(key.into(), val), ModelResult::Value(r.value), r.stats)
                    } else if kind < 9 {
                        let r = kv.delete(key).unwrap();
                        (ModelOp::Delete(key.into()), ModelResult::Value(r.value), r.stats)
                    } else {
                        let shard = (splitmix64(h ^ 0x5CA2) % shards) as usize;
                        let r = kv.scan(shard).unwrap();
                        (ModelOp::Scan, ModelResult::Snapshot(r.value), r.stats)
                    };
                    events.push(Event { shard: stats.shard, version: stats.version, op, result });
                }
                events
            }) as Worker<'_>
        })
        .collect()
}

/// Run one seeded concurrent history on a fresh store and return the
/// committed events (checking happens outside the scheduler run).
fn one_history(mode: Mode, seed: u64) -> Vec<Event> {
    let fs = SimFs::new();
    let store = KvStore::open(&fs, KvConfig::new(mode, 2));
    let (outs, log) = sched::run_workers(
        workers(&store, seed, OPS_PER_THREAD),
        MAX_STEPS,
        model::seeded_picker(seed),
    );
    assert!(
        log.stop.is_none(),
        "{} seed {seed}: schedule stopped early: {:?}",
        mode.name(),
        log.stop
    );
    outs.into_iter().flat_map(|o| o.expect("no worker may die")).collect()
}

fn run_seeds(mode: Mode, seeds: impl Iterator<Item = u64>) {
    sched::run_exclusively(|| {
        for seed in seeds {
            let events = one_history(mode, seed);
            assert_eq!(events.len(), THREADS * OPS_PER_THREAD as usize);
            if let Err(divergence) = model::check_history(&events) {
                panic!("{} seed {seed}: {divergence}", mode.name());
            }
        }
    });
}

#[test]
fn dev_mode_is_linearizable_over_100_seeded_histories() {
    run_seeds(Mode::Dev, 0..100);
}

#[test]
fn tm_mode_is_linearizable_over_100_seeded_histories() {
    run_seeds(Mode::Tm, 1000..1100);
}

#[test]
fn hybrid_mode_is_linearizable_over_100_seeded_histories() {
    run_seeds(Mode::Hybrid, 2000..2100);
}

/// The same op stream on OS threads, all on one shard: gets race puts at
/// the granularity of individual loads, which no schedule above reaches.
fn real_threads_are_linearizable(mode: Mode, seed: u64) {
    // Hold the scheduler gate so this does not perturb a scheduled run.
    let events: Vec<Event> = sched::run_exclusively(|| {
        let fs = SimFs::new();
        let store = KvStore::open(&fs, KvConfig::new(mode, 1));
        std::thread::scope(|s| {
            let handles: Vec<_> =
                workers(&store, seed, REAL_THREAD_OPS).into_iter().map(|w| s.spawn(w)).collect();
            handles.into_iter().flat_map(|h| h.join().expect("no worker may die")).collect()
        })
    });
    assert_eq!(events.len(), THREADS * REAL_THREAD_OPS as usize);
    if let Err(divergence) = model::check_history(&events) {
        panic!("{} seed {seed} on real threads: {divergence}", mode.name());
    }
}

#[test]
fn tm_mode_is_linearizable_on_real_threads() {
    real_threads_are_linearizable(Mode::Tm, 3000);
}

#[test]
fn hybrid_mode_is_linearizable_on_real_threads() {
    real_threads_are_linearizable(Mode::Hybrid, 4000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary seeds (arbitrary schedules and op streams) stay
    /// linearizable in every mode.
    #[test]
    fn any_seed_is_linearizable_in_every_mode(seed in any::<u64>()) {
        for mode in Mode::ALL {
            run_seeds(mode, std::iter::once(seed));
        }
    }
}
