//! A small durable KV map on top of the WAL — the crash sweep's test
//! subject.

use crate::redo::{recover, Wal, WalVariant};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use txfix_stm::{Txn, TxnError};
use txfix_xcall::SimFs;

/// A durable string map: every `put_many` is one WAL transaction, and
/// reopening the store replays the log.
pub struct DurableKv {
    wal: Wal,
    mem: Mutex<BTreeMap<String, String>>,
    next_txid: AtomicU64,
}

impl DurableKv {
    /// Open the store at `path`, replaying whatever the log holds.
    pub fn open(fs: &SimFs, path: &str, variant: WalVariant) -> DurableKv {
        let wal = Wal::open(fs, path, variant);
        let rec = recover(wal.file().file());
        DurableKv { wal, mem: Mutex::new(rec.map), next_txid: AtomicU64::new(rec.next_txid.max(1)) }
    }

    /// The underlying log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Apply `puts` atomically and durably; the returned txid is the
    /// acknowledgement that the batch is committed.
    ///
    /// # Errors
    ///
    /// [`TxnError`] when the logging transaction fails terminally.
    pub fn put_many(&self, puts: &[(String, String)]) -> Result<u64, TxnError> {
        let txid = self.next_txid.fetch_add(1, Ordering::SeqCst);
        Txn::build().try_run(|txn| self.wal.x_log_txn(txn, txid, puts))?;
        let mut mem = self.mem.lock().unwrap();
        for (k, v) in puts {
            mem.insert(k.clone(), v.clone());
        }
        Ok(txid)
    }

    /// Start logging `puts`, then cancel the transaction — a client that
    /// changed its mind mid-batch. Nothing may reach the log or the map;
    /// the returned txid is what the crash checker's no-resurrection
    /// invariant watches for.
    pub fn put_many_cancelled(&self, puts: &[(String, String)]) -> u64 {
        let txid = self.next_txid.fetch_add(1, Ordering::SeqCst);
        let res = Txn::build().try_run(|txn| {
            self.wal.x_log_txn(txn, txid, puts)?;
            txn.cancel::<()>()
        });
        debug_assert!(matches!(res, Err(TxnError::Cancelled)));
        txid
    }

    /// Read one key from the in-memory image.
    pub fn get(&self, key: &str) -> Option<String> {
        self.mem.lock().unwrap().get(key).cloned()
    }

    /// Snapshot of the in-memory image.
    pub fn snapshot(&self) -> BTreeMap<String, String> {
        self.mem.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn puts(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect()
    }

    #[test]
    fn reopen_replays_the_log() {
        let fs = SimFs::new();
        {
            let kv = DurableKv::open(&fs, "kv", WalVariant::Fixed);
            kv.put_many(&puts(&[("a", "a1"), ("b", "b1")])).unwrap();
            kv.put_many(&puts(&[("a", "a2")])).unwrap();
        }
        let kv = DurableKv::open(&fs, "kv", WalVariant::Fixed);
        assert_eq!(kv.get("a").as_deref(), Some("a2"));
        assert_eq!(kv.get("b").as_deref(), Some("b1"));
        // Txids keep advancing across reopen.
        assert_eq!(kv.put_many(&puts(&[("c", "c3")])).unwrap(), 3);
    }

    #[test]
    fn cancelled_batches_leave_no_trace() {
        let fs = SimFs::new();
        let kv = DurableKv::open(&fs, "kv", WalVariant::Fixed);
        kv.put_many(&puts(&[("a", "a1")])).unwrap();
        let cancelled = kv.put_many_cancelled(&puts(&[("a", "poison")]));
        assert_eq!(kv.get("a").as_deref(), Some("a1"));
        let rec = recover(kv.wal().file().file());
        assert!(!rec.committed.contains(&cancelled));
        assert!(!rec.ops.contains_key(&cancelled), "no record bytes at all");
    }
}
