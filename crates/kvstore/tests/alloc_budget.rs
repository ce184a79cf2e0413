//! Allocation ceilings for the KV store's reopen and op paths, and for a
//! condition variable's notify, counted by a global allocator that exists
//! only in this test binary. The count is per thread, so tests running
//! beside each other do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use txfix_kvstore::{KvConfig, KvStore, Mode};
use txfix_stm::hooks;
use txfix_txlock::LockCondvar;
use txfix_xcall::SimFs;

thread_local! {
    // A `const` initialiser and no destructor: reaching it never allocates,
    // so the allocator can use it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

fn count_one() {
    // `try_with`: the allocator may run while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every allocation here does) with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and `new_size` is the caller's, valid
        // for `layout`'s alignment by the caller's guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// 8 192 keys checkpointed over four shards, then 2 000 overwrites left in
/// the WAL: reopening packs the kept entries into leaves in key order — at
/// most 3 allocations per live entry. It reads 0.1.
#[test]
fn a_reopen_allocates_at_most_three_times_per_live_entry() {
    let fs = SimFs::new();
    let cfg = KvConfig::new(Mode::Tm, 4);
    let mut kv = KvStore::open(&fs, cfg);
    for i in 0..8192 {
        kv.put(&format!("k{i}"), &format!("v{i}")).unwrap();
    }
    for s in 0..cfg.shards {
        kv.checkpoint_and_truncate(s);
    }
    for i in 0..2000 {
        kv.put(&format!("k{}", i * 7 % 8192), &format!("w{i}")).unwrap();
    }
    drop(kv);
    let (kv, n) = allocations(|| KvStore::open(&fs, cfg));
    let live: usize = (0..cfg.shards).map(|s| kv.shard_snapshot(s).len()).sum();
    assert_eq!(live, 8192);
    let per_entry = n as f64 / live as f64;
    assert!(per_entry <= 3.0, "{n} allocations for {live} live entries ({per_entry:.2} each)");
}

/// The op paths' counts, pinned as ceilings at what they read: a `get`
/// allocates little beyond its reply, and a `put` is where the next
/// allocation lever is. The first checkpoint of one shard of the same
/// store reads 11: its page file and dirty bitmap grow as it writes.
#[test]
fn gets_puts_and_checkpoints_stay_inside_their_allocation_ceilings() {
    let mut kv = KvStore::open(&SimFs::new(), KvConfig::new(Mode::Tm, 4));
    for i in 0..256 {
        kv.put(&format!("k{i}"), "v").unwrap();
    }
    let (_, get) = allocations(|| kv.get("k2").unwrap());
    let (_, put) = allocations(|| kv.put("k3", "w").unwrap());
    let (_, ckpt) = allocations(|| kv.checkpoint_and_truncate(0));
    assert!(get <= 2, "a get made {get} allocations");
    assert!(put <= 14, "a put made {put} allocations");
    assert!(ckpt <= 11, "a checkpoint made {ckpt} allocations");
}

/// A scan sizes its row buffers before filling them, so a 2 048-row shard
/// costs the allocations a 64-row one does (they read 3).
#[test]
fn a_scan_allocates_a_fixed_number_of_times() {
    let scan = |rows: usize| {
        let kv = KvStore::open(&SimFs::new(), KvConfig::new(Mode::Tm, 1));
        for i in 0..rows {
            kv.put(&format!("k{i}"), "v").unwrap();
        }
        let (reply, n) = allocations(|| kv.scan(0).unwrap());
        assert_eq!(reply.value.len(), rows);
        n
    };
    let (small, large) = (scan(64), scan(2048));
    assert_eq!(small, large, "a scan's allocations grew with its rows");
    assert!(small <= 3, "a scan made {small} allocations");
}

/// A checkpoint sizes its image before it writes it, and rewrites page
/// files that already have that size, so a 2 048-row shard's costs the
/// allocations a 64-row one's does (they read 3).
#[test]
fn a_checkpoint_allocates_a_fixed_number_of_times() {
    let checkpoint = |rows: usize| {
        let mut kv = KvStore::open(&SimFs::new(), KvConfig::new(Mode::Tm, 1));
        for i in 0..rows {
            kv.put(&format!("k{i}"), "v").unwrap();
        }
        // One checkpoint into each buffer of the pair first, so the one
        // measured rewrites a file of its own size.
        kv.checkpoint_and_truncate(0);
        kv.checkpoint_and_truncate(0);
        allocations(|| kv.checkpoint_and_truncate(0)).1
    };
    let (small, large) = (checkpoint(64), checkpoint(2048));
    assert_eq!(small, large, "a checkpoint's allocations grew with its rows");
    assert!(small <= 3, "a checkpoint made {small} allocations");
}

/// A put copies the one leaf it lands in, whatever else the shard holds: on
/// a 2 048-row shard it allocates what it does on a 64-row one. (Overwrites,
/// so that no leaf splits: a split allocates the second half.)
#[test]
fn a_put_allocates_the_same_whatever_the_shard_holds() {
    let put = |rows: usize| {
        let mut kv = KvStore::open(&SimFs::new(), KvConfig::new(Mode::Tm, 1));
        // 2 048 puts on either shard, so the txids the log formats have as
        // many digits, and then the same log behind both.
        for i in 0..2048 {
            kv.put(&format!("k{}", i % rows), "v").unwrap();
        }
        kv.checkpoint_and_truncate(0);
        // Each into a leaf the committed state shares.
        let keys = ["k3", "k17", "k40", "k63"];
        keys.map(|k| allocations(|| kv.put(k, "w").unwrap()).1)
    };
    assert_eq!(put(64), put(2048));
}

/// A condition variable's trace events carry its name, so building one
/// allocates: with tracing disarmed, a notify builds none.
#[test]
fn a_notify_with_tracing_disarmed_allocates_nothing() {
    let _disarmed = hooks::arm(0);
    let cv = LockCondvar::named("alloc_budget.cv");
    let ((), n) = allocations(|| cv.notify_all());
    assert_eq!(n, 0, "a disarmed notify made {n} allocations");
}
