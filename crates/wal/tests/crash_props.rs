//! Property tests for the crash model: a crash image is always a legal
//! flush subset of the page cache — block-granular, each block either
//! durable or cached content — and the incremental `SimFile` equals a
//! whole-file reference model after every append, write, truncate, sync
//! and crash.
//!
//! Nothing here arms the crash-point registry, so these run in parallel
//! with each other safely.

use proptest::prelude::*;
use std::collections::BTreeSet;
use txfix_stm::chaos::splitmix64;
use txfix_xcall::{crashpoint::label_hash, SimFile, SimFs, BLOCK_BYTES};

#[derive(Clone, Debug)]
enum DiskOp {
    Append(Vec<u8>),
    WriteAt(usize, Vec<u8>),
    Truncate(usize),
    Sync,
    Crash(u64),
}

/// Offsets up to ~6 KB and appends of up to a few hundred bytes: files
/// cross 64 blocks (2 KB), one word of `SimFile`'s dirty bitmap, so marks,
/// runs of dirty blocks and cuts land on both sides of word boundaries.
fn disk_op() -> impl Strategy<Value = DiskOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..400).prop_map(DiskOp::Append),
        (0usize..6144, proptest::collection::vec(any::<u8>(), 1..160))
            .prop_map(|(o, b)| DiskOp::WriteAt(o, b)),
        (0usize..6400).prop_map(DiskOp::Truncate),
        Just(DiskOp::Sync),
        any::<u64>().prop_map(DiskOp::Crash),
    ]
}

/// The whole-file reference model of a [`SimFile`]: `sync` clones the
/// cache, `truncate` marks every discarded block. `SimFile` itself only
/// touches dirty blocks; this is the oracle it must stay equal to.
#[derive(Default)]
struct Model {
    cached: Vec<u8>,
    durable: Vec<u8>,
    dirty: BTreeSet<usize>,
}

impl Model {
    fn mark(&mut self, from: usize, to: usize) {
        if from < to {
            self.dirty.extend(from / BLOCK_BYTES..=(to - 1) / BLOCK_BYTES);
        }
    }

    fn apply(&mut self, op: &DiskOp, salt: u64) {
        let old = self.cached.len();
        match op {
            DiskOp::Append(b) => {
                self.cached.extend_from_slice(b);
                self.mark(old, old + b.len());
            }
            DiskOp::WriteAt(o, b) => {
                self.cached.resize(old.max(o + b.len()), 0);
                self.cached[*o..o + b.len()].copy_from_slice(b);
                self.mark(old.min(*o), o + b.len());
            }
            DiskOp::Truncate(len) => {
                self.cached.truncate(*len);
                self.mark(*len, old);
            }
            DiskOp::Sync => {
                self.durable = self.cached.clone();
                self.dirty.clear();
            }
            DiskOp::Crash(seed) => {
                self.cached = self.crash_image(salt, *seed);
                self.durable = self.cached.clone();
                self.dirty.clear();
            }
        }
    }

    fn crash_image(&self, salt: u64, seed: u64) -> Vec<u8> {
        let mut img = self.durable.clone();
        for &b in &self.dirty {
            let coin = splitmix64(seed ^ salt ^ splitmix64(b as u64 ^ 0x5851_F42D_4C95_7F2D));
            let (s, e) = (b * BLOCK_BYTES, ((b + 1) * BLOCK_BYTES).min(self.cached.len()));
            if coin & 1 == 0 && s < e {
                img.resize(img.len().max(e), 0);
                img[s..e].copy_from_slice(&self.cached[s..e]);
            }
        }
        img
    }
}

fn apply(f: &SimFile, op: &DiskOp) {
    match op {
        DiskOp::Append(b) => f.append(b),
        DiskOp::WriteAt(o, b) => f.write_at(*o, b),
        DiskOp::Truncate(len) => f.truncate(*len),
        DiskOp::Sync => f.sync_all(),
        DiskOp::Crash(seed) => f.crash(*seed),
    }
}

proptest! {
    /// The durable image a crash would leave is a legal flush subset of
    /// the page cache after any sequence of appends, positional writes,
    /// truncations, syncs and crashes: per block, either the durable bytes
    /// or the cached bytes, never a blend, and the durable prefix always
    /// survives. Along the way the file stays equal, op for op, to the
    /// whole-file reference [`Model`].
    #[test]
    fn crash_image_is_block_granular_durable_or_cached(
        ops in proptest::collection::vec(disk_op(), 0..24),
        seed in any::<u64>(),
    ) {
        let fs = SimFs::new();
        let f = fs.open_or_create("prop");
        let salt = label_hash("prop");
        let mut model = Model::default();
        for op in &ops {
            apply(&f, op);
            model.apply(op, salt);
            let (cached, durable) = (f.read_all(), f.durable_snapshot());
            prop_assert_eq!(&cached, &model.cached, "page cache after {:?}", op);
            prop_assert_eq!(&durable, &model.durable, "durable image after {:?}", op);
            for s in [seed, seed ^ 1, 0, 7] {
                prop_assert_eq!(f.crash_image(s), model.crash_image(salt, s), "after {:?}", op);
            }
            // Fewer marks than the model are fine, a missing one is not:
            // every cached block that differs from the durable image
            // must still be dirty.
            let dirty: BTreeSet<usize> = f.dirty_blocks().into_iter().collect();
            prop_assert!(dirty.is_subset(&model.dirty), "{:?} vs {:?}", dirty, model.dirty);
            for b in 0..cached.len().div_ceil(BLOCK_BYTES) {
                let (s, e) = (b * BLOCK_BYTES, ((b + 1) * BLOCK_BYTES).min(cached.len()));
                if durable.get(s..e) != Some(&cached[s..e]) {
                    prop_assert!(dirty.contains(&b), "block {} differs but is clean", b);
                }
            }
        }
        let cached = f.read_all();
        let durable = f.durable_snapshot();
        let img = f.crash_image(seed);
        prop_assert_eq!(&img, &f.crash_image(seed), "image must be pure per seed");
        prop_assert!(img.len() >= durable.len());
        prop_assert!(img.len() <= cached.len().max(durable.len()));
        let dirty = f.dirty_blocks();
        for b in 0..img.len().div_ceil(BLOCK_BYTES) {
            let s = b * BLOCK_BYTES;
            let e = ((b + 1) * BLOCK_BYTES).min(img.len());
            let pad = |src: &[u8]| -> Vec<u8> {
                let mut v = vec![0u8; e - s];
                if src.len() > s {
                    let ce = src.len().min(e);
                    v[..ce - s].copy_from_slice(&src[s..ce]);
                }
                v
            };
            let kept = pad(&durable);
            // A written-back block carries the cache's bytes as far as
            // the cache reaches; an unsynced truncation is not durable,
            // so past the cut the durable tail stays.
            let mut flushed = kept.clone();
            if cached.len() > s {
                let ce = cached.len().min(e);
                flushed[..ce - s].copy_from_slice(&cached[s..ce]);
            }
            if dirty.contains(&b) {
                prop_assert!(
                    img[s..e] == kept[..] || img[s..e] == flushed[..],
                    "dirty block {} blends durable and cached content", b
                );
            } else {
                prop_assert!(
                    img[s..e] == kept[..],
                    "clean block {} may only hold durable content", b
                );
            }
        }
    }
}
