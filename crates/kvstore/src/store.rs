//! The sharded transactional KV store.
//!
//! Keys hash to a shard; each shard owns a redo log ([`Wal`], always the
//! fixed protocol), a double-buffered checkpoint pair behind
//! [`BufferPool`]s, and one [`TVar`] holding its whole transactional
//! state: the next txid, the history version and one ordered index of
//! packed leaves ([`crate::index`]). Every op reads that `TVar` once; a
//! write publishes a new state sharing every leaf it did not touch. A
//! shard is one conflict domain, and its read set says so. A scan returns
//! its rows packed into one buffer ([`Rows`]), one copy per leaf.
//! Concurrency within a shard is selected by [`Mode`]:
//!
//! | mode     | write path                                  | read path |
//! |----------|---------------------------------------------|-----------|
//! | `dev`    | coarse per-shard [`TxMutex`] around the op  | same lock |
//! | `tm`     | optimistic STM, backoff only (no serial)    | optimistic STM |
//! | `hybrid` | optimistic STM, backoff only (no serial)    | full escalation ladder |
//!
//! Write transactions enlist the shard's WAL inside the same STM
//! transaction, so the redo records of an aborted op never reach the log
//! and the log's append order equals the commit order (the WAL file's
//! isolation lock is held to commit). Writers must never take the serial
//! rung: a serial (irrevocable) attempt could wait on the WAL file lock
//! held by an optimistic transaction that cannot finish its commit while
//! the serial lock is held (DESIGN §8) — hence `serial_after: u64::MAX`
//! on every write path. Read-only transactions touch no x-call locks, so
//! the hybrid mode lets them climb all the way to serial.
//!
//! ## Durability and recovery
//!
//! Every committed write is in the WAL before the client sees its reply.
//! [`KvStore::checkpoint`] snapshots a shard into the inactive buffer of
//! its checkpoint pair (crash-atomic via the checksum trailer — see
//! [`crate::page`]); [`KvStore::checkpoint_and_truncate`] additionally
//! empties the WAL, and takes `&mut self` because log truncation is only
//! sound while no op is in flight. Recovery takes the newest valid
//! checkpoint and replays committed WAL transactions with
//! `txid >= checkpoint.next_txid` in txid order — so redo records of
//! pre-checkpoint transactions resurrected by a torn truncation can never
//! roll a key back.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::index::Index;
use crate::page::{checkpoint_image, encode_checkpoint_entries, BufferPool, PoolStats};
use crate::Rows;
use txfix_stm::chaos::{fnv64, splitmix64};
use txfix_stm::{EscalationPolicy, EscalationRung, TVar, Txn, TxnBuilder};
use txfix_txlock::TxMutex;
use txfix_wal::{is_token, records, Record, Wal, WalOp, WalVariant};
use txfix_xcall::{SimFile, SimFs};

/// The per-shard concurrency discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Developer-style coarse locking: one revocable [`TxMutex`] per
    /// shard, held across the whole op.
    Dev,
    /// Pure optimistic TM: conflicts resolved by retry and backoff.
    Tm,
    /// TM plus the escalation ladder where it is sound: read-only ops may
    /// degrade to the serial rung, writes stay optimistic.
    Hybrid,
}

impl Mode {
    /// Every mode, in report order.
    pub const ALL: [Mode; 3] = [Mode::Dev, Mode::Tm, Mode::Hybrid];

    /// Stable CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Dev => "dev",
            Mode::Tm => "tm",
            Mode::Hybrid => "hybrid",
        }
    }

    /// Inverse of [`name`](Mode::name).
    pub fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Store shape and concurrency configuration.
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Number of shards (keys hash across them).
    pub shards: usize,
    /// Ignored: a shard's index is one ordered run of leaves, with no hash
    /// fan-out. Kept for `benchmark/` until ROADMAP 9(c) deletes it.
    pub buckets_per_shard: usize,
    /// Concurrency discipline.
    pub mode: Mode,
    /// Buffer-pool frames per checkpoint file.
    pub pool_pages: usize,
}

impl KvConfig {
    /// A config with the default pool size.
    pub fn new(mode: Mode, shards: usize) -> KvConfig {
        assert!(shards >= 1);
        KvConfig { shards, buckets_per_shard: 4, mode, pool_pages: 4 }
    }
}

/// Why an op was rejected before executing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvError {
    /// Key or value is not a WAL token (`[A-Za-z0-9_]+`).
    InvalidToken(String),
    /// A group op named keys on different shards; groups are atomic only
    /// within one shard.
    CrossShard(String),
    /// The dev-mode shard lock reported a deadlock cycle.
    Deadlock(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::InvalidToken(t) => write!(f, "not a WAL token: {t:?}"),
            KvError::CrossShard(m) => write!(f, "cross-shard group: {m}"),
            KvError::Deadlock(m) => write!(f, "deadlock: {m}"),
        }
    }
}

/// Execution facts for one committed op — everything the differential
/// harness and the bench need to order and account for it.
#[derive(Clone, Copy, Debug)]
pub struct OpStats {
    /// The shard the op ran on.
    pub shard: usize,
    /// The shard's history version at the op's serialization point:
    /// writes return the version their commit produced (each write bumps
    /// it by one), reads return the version they observed.
    pub version: u64,
    /// STM attempts the op took (1 = first-try commit).
    pub attempts: u64,
    /// Ladder escalations across those attempts.
    pub escalations: u64,
    /// Whether the op committed on the serial rung.
    pub serialized: bool,
}

/// An op result plus its [`OpStats`].
#[derive(Clone, Debug)]
pub struct Reply<T> {
    /// The op's return value.
    pub value: T,
    /// Execution facts.
    pub stats: OpStats,
}

struct CkptState {
    epoch: u64,
    /// Buffer index holding the newest valid checkpoint.
    active: usize,
    pools: [BufferPool; 2],
}

/// A shard's transactional state, the value of its one `TVar`. Cloning it
/// bumps one refcount per chunk of leaves: O(√n) for n leaves.
#[derive(Clone)]
struct State {
    /// Next WAL txid — allocated *inside* the write transaction, so txid
    /// order equals commit order equals WAL append order.
    next_txid: u64,
    /// History version: bumped by every write commit, observed by reads.
    version: u64,
    index: Index,
}

struct Shard {
    wal: Wal,
    state: TVar<State>,
    /// Dev-mode coarse lock (unused by tm/hybrid).
    dev: TxMutex<()>,
    ckpt: TxMutex<CkptState>,
}

/// One prebuilt transaction builder per call site. `TxnBuilder::site`
/// interns its name under a process-global lock, so it runs here, once
/// per store, never per op.
struct Sites {
    get: TxnBuilder,
    scan: TxnBuilder,
    put: TxnBuilder,
    delete: TxnBuilder,
    group: TxnBuilder,
    ckpt: TxnBuilder,
}

/// The store. See the module docs for the architecture.
pub struct KvStore {
    cfg: KvConfig,
    shards: Vec<Shard>,
    sites: Sites,
}

impl Shard {
    /// Open shard `i` over `fs` and rebuild its index from its checkpoint
    /// pair and WAL. The base is the newest checkpoint whose checksum holds
    /// and whose every entry decodes (epoch 0 never is; a tie goes to
    /// buffer 0): the buffers are tried newest first by their header
    /// epochs, and only a buffer being tried is parsed and checksummed (in
    /// one pass). Over it replay the committed WAL transactions it does not
    /// cover (`txid >= next_txid`) in txid order, each one's records in log
    /// order. Everything borrows from the images until the surviving
    /// entries are packed, in key order, into the index's leaves.
    fn recover(fs: &SimFs, i: usize, cfg: &KvConfig) -> Shard {
        let wal = Wal::open(fs, &format!("kv_shard{i}.wal"), WalVariant::Fixed);
        let mut pools = [0, 1].map(|b| {
            BufferPool::new(fs.open_or_create(&format!("kv_shard{i}.pages{b}")), cfg.pool_pages)
        });
        let images = pools.each_mut().map(|pool| {
            let image = pool.read_at(0, pool.file().len());
            pool.discard();
            image
        });
        let framed = images.each_ref().map(|img| checkpoint_image(img).filter(|cp| cp.epoch > 0));
        let epoch_of = |b: usize| framed[b].map_or(0, |cp| cp.epoch);
        let order = if epoch_of(1) > epoch_of(0) { [1, 0] } else { [0, 1] };
        let base = order.into_iter().find_map(|b| {
            let cp = framed[b]?;
            Some((b, cp.epoch, cp.next_txid, cp.checked_entries()?))
        });
        let (active, epoch, fence, base) = base.unwrap_or((0, 0, 1, Vec::new()));
        let log = wal.file().file().read_all();
        // Each key's last committed write at or past the fence (the greatest
        // (txid, record number)), folded at its marker or after the log.
        let mut last = HashMap::new();
        let mut fold = |(key, write): (_, (u64, usize, Option<_>))| {
            let slot = last.entry(key).or_insert(write);
            *slot = write.max(*slot);
        };
        let (mut next_txid, mut committed, mut pending) = (fence.max(1), Vec::new(), Vec::new());
        for (n, (txid, record)) in records(&log).flatten().enumerate() {
            next_txid = next_txid.max(txid + 1);
            match record {
                Record::Put(k, v) if txid >= fence => pending.push((k, (txid, n, Some(v)))),
                Record::Delete(k) if txid >= fence => pending.push((k, (txid, n, None))),
                Record::Commit => {
                    committed.push(txid);
                    let at = pending.iter().rposition(|w| w.1 .0 != txid).map_or(0, |i| i + 1);
                    pending.drain(at..).for_each(&mut fold);
                }
                _ => {}
            }
        }
        committed.sort_unstable();
        pending.into_iter().filter(|w| committed.binary_search(&w.1 .0).is_ok()).for_each(fold);
        // The base, then the survivors: the last of each key's run decides.
        let mut writes: Vec<_> = base.into_iter().map(|(k, v)| (k, Some(v))).collect();
        writes.extend(last.into_iter().map(|(k, (_, _, v))| (k, v)));
        writes.sort_by_key(|&(k, _)| k);
        let last = writes.chunk_by(|a, b| a.0 == b.0).map(|run| run[run.len() - 1]);
        let index = Index::from_sorted(last.filter_map(|(k, v)| Some((k, v?))));
        Shard {
            wal,
            state: TVar::new(State { next_txid, version: 0, index }),
            dev: TxMutex::new(&format!("kv_shard{i}.dev"), ()),
            ckpt: TxMutex::new(&format!("kv_shard{i}.ckpt"), CkptState { epoch, active, pools }),
        }
    }
}

impl KvStore {
    /// Open the store over `fs`, recovering every shard from its
    /// checkpoint pair and WAL. A fresh filesystem yields an empty store.
    pub fn open(fs: &Arc<SimFs>, cfg: KvConfig) -> KvStore {
        assert!(cfg.shards >= 1);
        let shards = (0..cfg.shards).map(|i| Shard::recover(fs, i, &cfg)).collect();
        // Writers hold the WAL file's isolation lock to commit, so the
        // serial rung is off-limits for them in every mode.
        let no_serial =
            EscalationPolicy { backoff_after: 4, serial_after: u64::MAX, deadline: None };
        // Hybrid read-only ops get the full ladder. (Dev ops run under the
        // shard lock and never conflict; the policy is irrelevant there.)
        let reads = if cfg.mode == Mode::Tm { no_serial } else { EscalationPolicy::default() };
        let site = |name, policy| Txn::build().site(name).escalation(policy);
        let sites = Sites {
            get: site("kv_get", reads),
            scan: site("kv_scan", reads),
            put: site("kv_put", no_serial),
            delete: site("kv_delete", no_serial),
            group: site("kv_group", no_serial),
            ckpt: Txn::build().site("kv_ckpt"),
        };
        KvStore { cfg, shards, sites }
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> KvConfig {
        self.cfg
    }

    /// Which shard `key` lives on.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_placement(key, self.cfg.shards)
    }

    /// Run `body` as one shard-local transaction under the mode's
    /// discipline, returning its value and version via [`Reply`].
    fn run_op<T>(
        &self,
        shard_idx: usize,
        site: &TxnBuilder,
        mut body: impl FnMut(&Shard, &mut Txn) -> txfix_stm::StmResult<(T, u64)>,
    ) -> Result<Reply<T>, KvError> {
        let shard = &self.shards[shard_idx];
        let _guard = match self.cfg.mode {
            Mode::Dev => Some(shard.dev.lock().map_err(|e| KvError::Deadlock(e.to_string()))?),
            Mode::Tm | Mode::Hybrid => None,
        };
        let ((value, version), report) = site.run(|txn| body(shard, txn));
        Ok(Reply {
            value,
            stats: OpStats {
                shard: shard_idx,
                version,
                attempts: report.attempts,
                escalations: report.escalations,
                serialized: report.committed_rung == EscalationRung::Serial,
            },
        })
    }

    /// Apply `ops` (all on `shard_idx`) as one transaction: mutate the
    /// index, bump the shard version, and log to the WAL. Returns the
    /// displaced value per op.
    fn write_ops(
        &self,
        shard_idx: usize,
        site: &TxnBuilder,
        ops: &[WalOp],
    ) -> Result<Reply<Vec<Option<String>>>, KvError> {
        self.run_op(shard_idx, site, |shard, txn| {
            // Copy-on-write: the committed state stays as concurrent
            // readers hold it; this txn publishes a new one, rebuilding
            // each leaf an op touches and sharing every other.
            let mut state = shard.state.read_with(txn, State::clone)?;
            let txid = state.next_txid;
            state.next_txid += 1;
            state.version += 1;
            let mut displaced = Vec::with_capacity(ops.len());
            for op in ops {
                displaced.push(match op {
                    WalOp::Put(k, v) => state.index.insert(k, v),
                    WalOp::Delete(k) => state.index.remove(k),
                });
            }
            let version = state.version;
            shard.state.write(txn, state)?;
            shard.wal.x_log_ops(txn, txid, ops)?;
            Ok((displaced, version))
        })
    }

    /// Read `key`. The reply's value is the current mapping, if any.
    pub fn get(&self, key: &str) -> Result<Reply<Option<String>>, KvError> {
        check_token(key)?;
        self.run_op(self.shard_of(key), &self.sites.get, |shard, txn| {
            shard.state.read_with(txn, |s| (s.index.get(key).map(str::to_string), s.version))
        })
    }

    /// Set `key` to `value`; the reply carries the displaced value.
    pub fn put(&self, key: &str, value: &str) -> Result<Reply<Option<String>>, KvError> {
        check_token(key)?;
        check_token(value)?;
        let ops = [WalOp::Put(key.to_string(), value.to_string())];
        let reply = self.write_ops(self.shard_of(key), &self.sites.put, &ops)?;
        Ok(Reply { value: reply.value.into_iter().next().unwrap(), stats: reply.stats })
    }

    /// Remove `key`; the reply carries the removed value, if any.
    pub fn delete(&self, key: &str) -> Result<Reply<Option<String>>, KvError> {
        check_token(key)?;
        let ops = [WalOp::Delete(key.to_string())];
        let reply = self.write_ops(self.shard_of(key), &self.sites.delete, &ops)?;
        Ok(Reply { value: reply.value.into_iter().next().unwrap(), stats: reply.stats })
    }

    /// Apply a group of puts/deletes atomically. All keys must hash to
    /// the same shard — the group is one shard-local transaction (and one
    /// WAL transaction), so recovery can never observe it torn.
    pub fn apply_group(&self, ops: &[WalOp]) -> Result<Reply<()>, KvError> {
        let mut shard = None;
        for op in ops {
            let (k, v) = match op {
                WalOp::Put(k, v) => (k, Some(v)),
                WalOp::Delete(k) => (k, None),
            };
            check_token(k)?;
            if let Some(v) = v {
                check_token(v)?;
            }
            let s = self.shard_of(k);
            if *shard.get_or_insert(s) != s {
                return Err(KvError::CrossShard(format!("{ops:?}")));
            }
        }
        let shard = match shard {
            Some(s) => s,
            None => return Err(KvError::CrossShard("empty group".to_string())),
        };
        let reply = self.write_ops(shard, &self.sites.group, ops)?;
        Ok(Reply { value: (), stats: reply.stats })
    }

    /// Snapshot every key on `shard_idx`, in key order, as one
    /// transaction (hybrid mode may serialize it under contention).
    pub fn scan(&self, shard_idx: usize) -> Result<Reply<Rows>, KvError> {
        assert!(shard_idx < self.cfg.shards);
        self.run_op(shard_idx, &self.sites.scan, |shard, txn| {
            shard.state.read_with(txn, |s| (s.index.rows(), s.version))
        })
    }

    /// Checkpoint `shard_idx` into the inactive buffer of its pair. Safe
    /// concurrently with ops in every mode: the snapshot is one STM
    /// transaction, and the WAL is left alone (full replay over a newer
    /// base is idempotent because records carry absolute values).
    pub fn checkpoint(&self, shard_idx: usize) {
        self.ckpt_inner(shard_idx, false);
    }

    /// [`checkpoint`](KvStore::checkpoint), then truncate the WAL.
    /// Requires `&mut self`: truncation is only sound with no op in
    /// flight, and exclusive access is the static proof of that.
    pub fn checkpoint_and_truncate(&mut self, shard_idx: usize) {
        self.ckpt_inner(shard_idx, true);
    }

    fn ckpt_inner(&self, shard_idx: usize, truncate: bool) {
        let shard = &self.shards[shard_idx];
        let (state, _) = self.sites.ckpt.run(|txn| shard.state.read_arc(txn));
        let mut ck = shard.ckpt.lock().expect("checkpoint lock cycle");
        ck.epoch += 1;
        let image = encode_checkpoint_entries(ck.epoch, state.next_txid, state.index.iter());
        let target = 1 - ck.active;
        let pool = &mut ck.pools[target];
        pool.discard();
        pool.write_at(0, &image);
        // Page-by-page write-back (each page crosses KV_POOL_FLUSH), then
        // the fsync that commits the checkpoint.
        pool.flush();
        ck.active = target;
        if truncate {
            let file: &SimFile = shard.wal.file().file();
            file.truncate(0);
            file.sync_all();
        }
    }

    /// Current shard contents, read non-transactionally. Only meaningful
    /// at quiescence (tests, recovery assertions).
    pub fn shard_snapshot(&self, shard_idx: usize) -> BTreeMap<String, String> {
        let state = self.shards[shard_idx].state.load_arc();
        state.index.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// Current shard history version (non-transactional; quiescence only).
    pub fn shard_version(&self, shard_idx: usize) -> u64 {
        self.shards[shard_idx].state.load_arc().version
    }

    /// Combined buffer-pool counters for `shard_idx`'s checkpoint pair.
    pub fn pool_stats(&self, shard_idx: usize) -> PoolStats {
        let ck = self.shards[shard_idx].ckpt.lock().expect("checkpoint lock cycle");
        let [a, b] = [ck.pools[0].stats(), ck.pools[1].stats()];
        PoolStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            evictions: a.evictions + b.evictions,
            flushed_pages: a.flushed_pages + b.flushed_pages,
        }
    }
}

/// Which shard `key` hashes to in a store of `shards` shards — pure, so
/// harnesses can plan single-shard groups without a store in hand.
pub fn shard_placement(key: &str, shards: usize) -> usize {
    (splitmix64(fnv64(key.as_bytes())) % shards as u64) as usize
}

fn check_token(s: &str) -> Result<(), KvError> {
    if is_token(s) {
        Ok(())
    } else {
        Err(KvError::InvalidToken(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{encode_checkpoint, Checkpoint};
    use proptest::prelude::*;

    fn store(mode: Mode, shards: usize) -> (Arc<SimFs>, KvStore) {
        let fs = SimFs::new();
        let kv = KvStore::open(&fs, KvConfig::new(mode, shards));
        (fs, kv)
    }

    /// Up to ~six leaves' worth of distinct keys.
    fn entries() -> impl Strategy<Value = BTreeMap<String, String>> {
        proptest::collection::hash_map("[A-Za-z0-9_]{1,6}", "[A-Za-z0-9_]{1,5}", 0..400)
            .prop_map(|m| m.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The streamed encoder over the index writes the bytes
        /// `encode_checkpoint` writes for the map it holds, whether the
        /// index was built in order (a reopen) or one put at a time.
        #[test]
        fn streamed_checkpoint_of_the_index_equals_the_whole_map_image(
            map in entries(),
            epoch in 1u64..1000,
            next_txid in 1u64..1000,
        ) {
            let built = Index::from_sorted(map.iter().map(|(k, v)| (k.as_str(), v.as_str())));
            let (_fs, kv) = store(Mode::Tm, 1);
            for (k, v) in &map {
                kv.put(k, v).unwrap();
            }
            let whole = encode_checkpoint(&Checkpoint { epoch, next_txid, map });
            for index in [&built, &kv.shards[0].state.load_arc().index] {
                prop_assert_eq!(&encode_checkpoint_entries(epoch, next_txid, index.iter()), &whole);
            }
        }

        /// `scan` (and `shard_snapshot`) is the ordered map of what the
        /// puts and deletes left.
        #[test]
        fn scan_equals_the_ordered_map(map in entries(), stride in 2usize..5) {
            let (_fs, kv) = store(Mode::Tm, 1);
            let mut want = map.clone();
            for (k, v) in &map {
                kv.put(k, v).unwrap();
            }
            for k in map.keys().step_by(stride) {
                kv.delete(k).unwrap();
                want.remove(k);
            }
            let rows: Rows = want.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            prop_assert_eq!(kv.scan(0).unwrap().value, rows);
            prop_assert_eq!(kv.shard_snapshot(0), want);
        }
    }

    #[test]
    fn copy_on_write_never_mutates_a_state_a_reader_holds() {
        use std::sync::mpsc::channel;
        let (_fs, kv) = &store(Mode::Tm, 1);
        kv.put("a", "1").unwrap();
        kv.put("b", "2").unwrap();
        let state = &kv.shards[0].state;
        let (reader_holds, wait_for_reader) = channel();
        let (writer_done, wait_for_writer) = channel();
        let mut held: Option<Arc<State>> = None;
        std::thread::scope(|s| {
            s.spawn(move || {
                wait_for_reader.recv().unwrap();
                kv.put("a", "9").unwrap();
                kv.delete("b").unwrap();
                writer_done.send(()).unwrap();
            });
            // The first attempt takes the committed state and keeps it
            // across both commits; later attempts (if validation retries
            // the txn) just pass through.
            Txn::build().site("test_hold").run(|txn| {
                let s = state.read_arc(txn)?;
                if held.is_none() {
                    held = Some(s);
                    reader_holds.send(()).unwrap();
                    wait_for_writer.recv().unwrap();
                }
                Ok(())
            });
        });
        let held = held.unwrap();
        let rows: Vec<(&str, &str)> = held.index.iter().collect();
        assert_eq!(rows, [("a", "1"), ("b", "2")], "the held snapshot moved");
        assert_eq!((held.version, held.next_txid), (2, 3), "the held counters moved");
        assert_eq!(kv.get("a").unwrap().value, Some("9".to_string()));
        assert_eq!(kv.get("b").unwrap().value, None);
    }

    #[test]
    fn basic_ops_round_trip_in_every_mode() {
        for mode in Mode::ALL {
            let (_fs, kv) = store(mode, 2);
            assert_eq!(kv.get("a").unwrap().value, None);
            assert_eq!(kv.put("a", "1").unwrap().value, None);
            assert_eq!(kv.put("a", "2").unwrap().value, Some("1".to_string()));
            assert_eq!(kv.get("a").unwrap().value, Some("2".to_string()));
            assert_eq!(kv.delete("a").unwrap().value, Some("2".to_string()));
            assert_eq!(kv.get("a").unwrap().value, None, "{}", mode.name());
        }
    }

    #[test]
    fn versions_order_writes_per_shard() {
        let (_fs, kv) = store(Mode::Tm, 1);
        let v1 = kv.put("a", "1").unwrap().stats.version;
        let v2 = kv.put("b", "2").unwrap().stats.version;
        let v3 = kv.delete("a").unwrap().stats.version;
        assert_eq!((v1, v2, v3), (1, 2, 3));
        assert_eq!(kv.get("b").unwrap().stats.version, 3);
        assert_eq!(kv.shard_version(0), 3);
    }

    #[test]
    fn recovery_replays_the_wal_over_the_newest_checkpoint() {
        let fs = SimFs::new();
        let cfg = KvConfig::new(Mode::Tm, 2);
        let mut kv = KvStore::open(&fs, cfg);
        for i in 0..8 {
            kv.put(&format!("k{i}"), &format!("v{i}")).unwrap();
        }
        kv.checkpoint_and_truncate(0);
        kv.checkpoint_and_truncate(1);
        kv.put("k1", "after").unwrap();
        kv.delete("k2").unwrap();
        let want: Vec<BTreeMap<String, String>> = (0..2).map(|s| kv.shard_snapshot(s)).collect();
        drop(kv);
        let kv2 = KvStore::open(&fs, cfg);
        for (s, w) in want.iter().enumerate() {
            assert_eq!(&kv2.shard_snapshot(s), w, "shard {s}");
        }
        // And a second checkpoint generation still recovers.
        kv2.put("zz", "last").unwrap();
        kv2.checkpoint(kv2.shard_of("zz"));
        let want: Vec<BTreeMap<String, String>> = (0..2).map(|s| kv2.shard_snapshot(s)).collect();
        drop(kv2);
        let kv3 = KvStore::open(&fs, cfg);
        for (s, w) in want.iter().enumerate() {
            assert_eq!(&kv3.shard_snapshot(s), w, "shard {s}");
        }
    }

    #[test]
    fn groups_are_single_shard_only() {
        let (_fs, kv) = store(Mode::Tm, 4);
        // Find two keys on the same shard and one elsewhere.
        let mut by_shard: Vec<Vec<String>> = vec![Vec::new(); 4];
        for i in 0..64 {
            let k = format!("g{i}");
            by_shard[kv.shard_of(&k)].push(k);
        }
        let same = by_shard.iter().find(|v| v.len() >= 2).unwrap();
        let other = by_shard
            .iter()
            .find(|v| !v.is_empty() && kv.shard_of(&v[0]) != kv.shard_of(&same[0]))
            .unwrap();
        let ok = kv.apply_group(&[
            WalOp::Put(same[0].clone(), "x".to_string()),
            WalOp::Put(same[1].clone(), "y".to_string()),
        ]);
        assert!(ok.is_ok());
        let err = kv.apply_group(&[
            WalOp::Put(same[0].clone(), "x".to_string()),
            WalOp::Put(other[0].clone(), "y".to_string()),
        ]);
        assert!(matches!(err, Err(KvError::CrossShard(_))));
        assert!(matches!(kv.apply_group(&[]), Err(KvError::CrossShard(_))));
    }

    #[test]
    fn non_token_keys_and_values_are_rejected() {
        let (_fs, kv) = store(Mode::Dev, 1);
        assert!(matches!(kv.get("no space"), Err(KvError::InvalidToken(_))));
        assert!(matches!(kv.put("k", "bad;"), Err(KvError::InvalidToken(_))));
        assert!(matches!(kv.delete(""), Err(KvError::InvalidToken(_))));
    }

    #[test]
    fn scan_returns_the_whole_shard_in_key_order() {
        let (_fs, kv) = store(Mode::Hybrid, 1);
        kv.put("b", "2").unwrap();
        kv.put("a", "1").unwrap();
        let scan = kv.scan(0).unwrap();
        assert_eq!(scan.value.iter().collect::<Vec<_>>(), [("a", "1"), ("b", "2")]);
        assert_eq!(scan.stats.version, 2);
    }
}
