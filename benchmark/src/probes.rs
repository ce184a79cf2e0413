//! Per-layer probes: each layer timed from outside, through its public
//! functions, with the shapes the workload produces — the bucket size its
//! key count gives, its record bytes, the WAL length at the middle and end
//! of a round, the entry count of a shard checkpoint. Single-threaded, so
//! the counts among them repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;

use txfix_kvstore::page::{
    decode_checkpoint, encode_checkpoint, BufferPool, Checkpoint, PAGE_BYTES,
};
use txfix_kvstore::Mode;
use txfix_stm::{EscalationPolicy, TVar, Txn, TxnBuilder};
use txfix_txlock::TxMutex;
use txfix_wal::{recover, Wal, WalOp, WalVariant};
use txfix_xcall::{SimFs, XFile};

use crate::driver::Plan;
use crate::stats::{time_each_ns, time_ns};
use crate::trace::Trace;

type Map = BTreeMap<String, String>;

/// What the workload looks like to a single layer.
pub struct Shapes {
    /// One shard's entries after preload (a checkpoint's worth).
    pub shard: Map,
    /// One index bucket's worth of those entries.
    pub bucket: Map,
    /// A put as the generator issues it.
    pub key: String,
    pub value: String,
    /// Bytes in one shard's WAL when a round ends, just before truncation.
    pub wal_end_bytes: usize,
}

impl Shapes {
    pub fn new(shard: Map, buckets_per_shard: usize, wal_end_bytes: usize) -> Shapes {
        let bucket: Map = shard
            .iter()
            .take(shard.len().div_ceil(buckets_per_shard))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let (key, value) = shard.iter().next().map(|(k, v)| (k.clone(), v.clone())).unwrap();
        Shapes { shard, bucket, key, value, wal_end_bytes }
    }
}

/// The builder the store's write path uses (`store.rs`: backoff only).
fn store_txn() -> TxnBuilder {
    Txn::build().site("probe").escalation(EscalationPolicy {
        backoff_after: 4,
        serial_after: u64::MAX,
        deadline: None,
    })
}

/// WAL bytes of `len` or a little more: whole records shaped like the
/// workload's puts.
fn wal_image(shapes: &Shapes, len: usize) -> Vec<u8> {
    let mut img = Vec::with_capacity(len + 64);
    let mut txid = 1u64;
    while img.len() < len {
        img.extend_from_slice(
            format!("P {txid} {} {} ;\nC {txid} ;\n", shapes.key, shapes.value).as_bytes(),
        );
        txid += 1;
    }
    img
}

/// Collects `(metric name, value)` pairs; timed probes are also spans.
struct Probes<'t> {
    trace: &'t mut Trace,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    fn timed(&mut self, name: &'static str, f: impl FnOnce() -> f64) {
        let value = self.trace.span(format!("probe.{name}"), None, f);
        self.out.push((name, value));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.out.push((name, value as f64));
    }
}

/// Run every probe and return `(metric name, value)` pairs.
pub fn run(plan: &Plan, shapes: &Shapes, trace: &mut Trace) -> Vec<(&'static str, f64)> {
    let mut p = Probes { trace, out: Vec::new() };
    let txn = store_txn();

    // ---- workload ----
    let mut i = 0u64;
    p.timed("workload.gen_ns_per_op", || {
        time_ns(|| {
            black_box(plan.workload.op(plan.seed, 0, i));
            i += 1;
        })
    });

    // ---- stm ----
    let word = TVar::new(0u64);
    let word2 = TVar::new(0u64);
    let map = TVar::new(shapes.bucket.clone());
    p.timed("stm.txn_empty_ns", || {
        time_ns(|| {
            black_box(txn.run(|_| Ok(())));
        })
    });
    p.timed("stm.read_u64_ns", || {
        time_ns(|| {
            black_box(txn.run(|t| word.read(t)));
        })
    });
    p.timed("stm.rw_u64_ns", || {
        time_ns(|| {
            black_box(txn.run(|t| {
                let v = word.read(t)?;
                word.write(t, v + 1)
            }));
        })
    });
    p.timed("stm.read_map_ns", || {
        time_ns(|| {
            black_box(txn.run(|t| map.read(t)));
        })
    });
    p.timed("stm.rw_map_ns", || {
        time_ns(|| {
            black_box(txn.run(|t| {
                let mut m = map.read(t)?;
                m.insert(shapes.key.clone(), shapes.value.clone());
                map.write(t, m)
            }));
        })
    });
    // The TVar footprint of `KvStore::get` and `KvStore::put`, on bare TVars.
    p.timed("stm.get_shape_ns", || {
        time_ns(|| {
            black_box(txn.run(|t| {
                let version = word.read(t)?;
                let m = map.read(t)?;
                Ok((m.get(&shapes.key).cloned(), version))
            }));
        })
    });
    p.timed("stm.put_shape_ns", || {
        time_ns(|| {
            black_box(txn.run(|t| {
                let txid = word2.read(t)?;
                word2.write(t, txid + 1)?;
                let mut m = map.read(t)?;
                let displaced = m.insert(shapes.key.clone(), shapes.value.clone());
                map.write(t, m)?;
                let version = word.read(t)? + 1;
                word.write(t, version)?;
                Ok((displaced, version))
            }));
        })
    });

    // ---- txlock ----
    let lock = TxMutex::new("probe.lock", ());
    p.timed("txlock.lock_ns", || {
        time_ns(|| drop(black_box(lock.lock().expect("uncontended lock"))))
    });

    // ---- wal + xcall ----
    let fs = SimFs::new();
    let wal = Wal::open(&fs, "probe.wal", WalVariant::Fixed);
    let file = wal.file().file().clone();
    let put = [WalOp::Put(shapes.key.clone(), shapes.value.clone())];
    let log_put = || {
        black_box(txn.run(|t| wal.x_log_ops(t, 1_000_000, &put)));
    };
    let refill = |img: &[u8]| {
        file.truncate(0);
        file.append(img);
        file.sync_all();
    };
    // On an empty log, one logged put leaves exactly its own record.
    log_put();
    let record = file.read_all();
    p.count("wal.bytes_per_put", record.len() as u64);
    let end = wal_image(shapes, shapes.wal_end_bytes);
    let mid = wal_image(shapes, shapes.wal_end_bytes / 2);
    for (name, img) in [
        ("wal.log_put_empty_ns", &[][..]),
        ("wal.log_put_mid_ns", &mid[..]),
        ("wal.log_put_end_ns", &end[..]),
    ] {
        p.timed(name, || time_each_ns(|| refill(img), log_put));
    }
    refill(&end);
    let records = recover(&file).committed.len().max(1);
    p.timed("wal.recover_ns_per_record", || {
        time_ns(|| {
            black_box(recover(&file));
        }) / records as f64
    });

    p.timed("xcall.append_ns", || time_each_ns(|| refill(&end), || file.append(&record)));
    for (name, img) in [("xcall.sync_mid_ns", &mid), ("xcall.sync_end_ns", &end)] {
        p.timed(name, || {
            time_each_ns(
                || {
                    refill(img);
                    file.append(&record);
                },
                || file.sync_all(),
            )
        });
    }
    let xfile = XFile::new(file.clone());
    p.timed("xcall.xfile_append_sync_ns", || {
        time_each_ns(
            || refill(&mid),
            || {
                black_box(txn.run(|t| {
                    xfile.x_append(t, &record)?;
                    xfile.x_sync(t)
                }));
            },
        )
    });

    // ---- page ----
    let entries = shapes.shard.len().max(1) as f64;
    let cp = Checkpoint { epoch: 1, next_txid: 1, map: shapes.shard.clone() };
    let img = encode_checkpoint(&cp);
    let pages = img.len().div_ceil(PAGE_BYTES) as f64;
    p.timed("page.encode_ns_per_entry", || {
        time_ns(|| {
            black_box(encode_checkpoint(&cp));
        }) / entries
    });
    p.timed("page.decode_ns_per_entry", || {
        time_ns(|| {
            black_box(decode_checkpoint(&img));
        }) / entries
    });
    // One checkpoint written through a pool of the store's size, then read
    // back as recovery reads it: the counts are a pure function of the image.
    let pool_pages = plan.config(Mode::Tm).pool_pages;
    let pages_file = fs.open_or_create("probe.pages");
    let fresh_pool = || BufferPool::new(pages_file.clone(), pool_pages);
    p.timed("page.write_flush_ns_per_page", || {
        time_ns(|| {
            let mut pool = fresh_pool();
            pool.write_at(0, &img);
            pool.flush();
        }) / pages
    });
    p.timed("page.read_ns_per_page", || {
        time_ns(|| {
            black_box(fresh_pool().read_at(0, img.len()));
        }) / pages
    });
    let mut pool = fresh_pool();
    pool.write_at(0, &img);
    pool.flush();
    pool.discard();
    assert!(pool.read_at(0, img.len()) == img, "the pool returned other bytes than it was given");
    let stats = pool.stats();
    p.count("page.hits", stats.hits);
    p.count("page.misses", stats.misses);
    p.count("page.evictions", stats.evictions);
    p.count("page.flushed_pages", stats.flushed_pages);
    p.count("page.checkpoint_bytes", img.len() as u64);
    p.out.push(("page.hit_rate", stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64));
    p.out
}
