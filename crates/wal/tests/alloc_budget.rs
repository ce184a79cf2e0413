//! Allocation ceiling for a logged commit, counted by a global allocator
//! that exists only in this test binary. The count is per thread, so tests
//! running beside each other do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use txfix_stm::atomic;
use txfix_wal::{Wal, WalOp, WalVariant};
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

/// A committed one-record `x_log_ops` formats its lines into a buffer the
/// thread reuses, and the log file copies them into a pending buffer it
/// keeps, so the record's size does not change what the commit allocates:
/// only the transaction's own two lists, the one the file's deferred apply
/// joins and the one its isolation lock enlists in.
#[test]
fn a_logged_commit_allocates_only_the_transactions_own_lists() {
    let fs = SimFs::new();
    let wal = Wal::open(&fs, "wal", WalVariant::Fixed);
    let commit = |value: &str| {
        let ops = [WalOp::Put("k".to_owned(), value.to_owned())];
        let log = || atomic(|txn| wal.x_log_ops(txn, 1_000_000, &ops));
        // Warm up: the line buffer, the pending buffers and the log file
        // grow to this record's size; truncating keeps their capacity.
        log();
        wal.file().file().truncate(0);
        wal.file().file().sync_all();
        let before = ALLOCATIONS.with(Cell::get);
        log();
        ALLOCATIONS.with(Cell::get) - before
    };
    let long = "v".repeat(300);
    let (short, long) = (commit("v_3"), commit(&long));
    assert_eq!(short, long, "a logged commit's allocations grew with its record");
    assert!(short <= 2, "a logged commit made {short} allocations");
}
