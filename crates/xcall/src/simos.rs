//! A miniature in-memory operating system.
//!
//! The paper's xCalls library wraps real POSIX system calls. This
//! reproduction has no kernel to wrap, so it provides the smallest OS
//! surface the studied bugs touch: a filesystem with appendable files
//! (Apache's access/error logs, MySQL's binlog), bounded pipes (the
//! Apache#7617 cross-process pipe race, Mozilla's lost I/O notifications)
//! and loopback socket pairs (request/response traffic for the simulated
//! servers). Everything is plain, non-transactional state — exactly like a
//! kernel — and the transactional semantics are layered on top by the
//! [`crate`] root's x-call wrappers.

//!
//! ## Durability
//!
//! Each [`SimFile`] keeps *two* images: the **page cache** (what reads
//! see) and the **durable** contents (what survives a crash), plus the
//! set of dirty blocks in between. [`SimFile::sync_all`] is `fsync`:
//! it promotes the cache to the durable image. [`SimFs::crash`] builds
//! the post-crash state from the durable image plus a seeded,
//! splitmix64-chosen subset of the dirty blocks — the kernel was free to
//! write back any unflushed block at any time, so a crash may persist an
//! arbitrary subset of them, and the seed makes that subset reproducible.
//! Pipe and socket buffers are volatile and do not survive.
//!
//! Every mutation keeps one invariant — the **clean-block invariant**:
//! a cached byte in a block that is *not* in the dirty set also exists in
//! the durable image, with the same value. The two images can therefore
//! differ only inside dirty blocks and in a durable tail past the end of
//! the cache (an unsynced truncation). That is what lets every operation
//! cost what it touches. The dirty set is a bitmap, one bit per block in
//! 64-block words, that knows the span of words that may hold a set bit:
//! marking sets bits and allocates only when the file outgrows the
//! bitmap; `sync_all` walks only that span and copies each run of
//! consecutive dirty blocks with one copy, so it is O(dirty words +
//! dirty bytes), not O(file size); `append`, `write_at` and
//! [`SimFile::read_at`] are O(bytes moved); `truncate` only clears the
//! bits past the cut. Only `read_all`, the snapshots and a crash itself
//! copy a whole file.

use crate::crashpoint;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use txfix_stm::chaos::splitmix64;

/// Writeback granularity of the simulated page cache, in bytes. A crash
/// persists or drops unflushed data in units of this size.
pub const BLOCK_BYTES: usize = 32;

/// Errors from the simulated OS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OsError {
    /// Path not present in the filesystem.
    NotFound(String),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NotFound(p) => write!(f, "no such file: {p}"),
        }
    }
}

impl std::error::Error for OsError {}

/// A set of block indices as a bitmap: bit `b % 64` of word `b / 64`
/// marks block `b`. Every word outside `live` is zero, so walking and
/// clearing the set cost the words between its lowest and highest mark,
/// not the file's length.
#[derive(Default)]
struct DirtyBlocks {
    words: Vec<u64>,
    live: Range<usize>,
}

impl DirtyBlocks {
    /// Mark every block overlapping the bytes `from..to`.
    fn mark(&mut self, from: usize, to: usize) {
        if from >= to {
            return;
        }
        let (first, last) = (from / BLOCK_BYTES, (to - 1) / BLOCK_BYTES);
        if self.words.len() <= last / 64 {
            self.words.resize(last / 64 + 1, 0);
        }
        if self.live.is_empty() {
            self.live = first / 64..first / 64;
        }
        self.live = self.live.start.min(first / 64)..self.live.end.max(last / 64 + 1);
        for b in first..=last {
            self.words[b / 64] |= 1 << (b % 64);
        }
    }

    /// Drop every mark at and past block `from`.
    fn truncate(&mut self, from: usize) {
        for w in self.live.start.max(from / 64)..self.live.end {
            self.words[w] &= if w == from / 64 { !(u64::MAX << (from % 64)) } else { 0 };
        }
        self.live.end = self.live.end.min(from.div_ceil(64)).max(self.live.start);
    }

    /// Unmark everything, zeroing only the live words.
    fn clear(&mut self) {
        let live = std::mem::take(&mut self.live);
        self.words[live].fill(0);
    }

    /// The first block at or past `from` in a live word whose mark is
    /// `set`.
    fn find(&self, from: usize, set: bool) -> Option<usize> {
        (from / 64..self.live.end).find_map(|w| {
            let word = if set { self.words[w] } else { !self.words[w] };
            let word = if w == from / 64 { word & (u64::MAX << (from % 64)) } else { word };
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        })
    }

    /// The runs of consecutive marked blocks, ascending, as `first..end`:
    /// a word of 64 marks is one step.
    fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut at = self.live.start * 64;
        std::iter::from_fn(move || {
            let first = self.find(at, true)?;
            at = self.find(first, false).unwrap_or(self.live.end * 64);
            Some(first..at)
        })
    }

    /// Every marked block, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs().flatten()
    }
}

/// Page-cache vs durable split of one file's bytes.
///
/// Invariant (clean blocks): for every block `b` not in `dirty` and every
/// offset `i` of `b` with `i < cached.len()`, `i < durable.len()` and
/// `cached[i] == durable[i]`; and every block in `dirty` starts below
/// `cached.len()`. Writes keep it by marking what they touch (growth
/// included), `sync_all` and `crash` by making the images equal and
/// clearing the set, `truncate` by dropping the marks past the new end —
/// shrinking `cached` only shrinks the set of offsets the first half
/// speaks about.
struct FileState {
    /// What reads observe: every write lands here immediately.
    cached: Vec<u8>,
    /// What a crash preserves unconditionally: the last synced image.
    durable: Vec<u8>,
    /// Cache blocks not yet flushed; a crash keeps a seeded subset.
    dirty: DirtyBlocks,
}

/// The bytes of blocks `blocks` that exist in a cache of `cached_len`
/// bytes.
fn block_span(blocks: Range<usize>, cached_len: usize) -> Range<usize> {
    blocks.start * BLOCK_BYTES..(blocks.end * BLOCK_BYTES).min(cached_len)
}

impl FileState {
    /// The post-crash contents under `seed`: the durable image overlaid
    /// with each dirty block whose per-block coin says the kernel wrote
    /// it back before the crash. `salt` distinguishes files under one
    /// seed.
    fn crash_image(&self, salt: u64, seed: u64) -> Vec<u8> {
        let mut img = self.durable.clone();
        for b in self.dirty.iter() {
            let coin = splitmix64(seed ^ salt ^ splitmix64(b as u64 ^ 0x5851_F42D_4C95_7F2D));
            if coin & 1 != 0 {
                continue; // this block never reached the disk
            }
            let span = block_span(b..b + 1, self.cached.len());
            if img.len() < span.end {
                img.resize(span.end, 0);
            }
            img[span.clone()].copy_from_slice(&self.cached[span]);
        }
        img
    }
}

/// An in-memory file: a growable byte array with append/truncate/read,
/// split into a page cache and a durable image (see the module docs).
pub struct SimFile {
    name: String,
    /// Per-file crash-image salt, derived from the name, so one crash
    /// seed draws independent block coins in every file.
    salt: u64,
    state: Mutex<FileState>,
}

impl fmt::Debug for SimFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFile").field("name", &self.name).field("len", &self.len()).finish()
    }
}

impl SimFile {
    fn new(name: &str) -> Arc<SimFile> {
        Arc::new(SimFile {
            name: name.to_owned(),
            salt: crashpoint::label_hash(name),
            state: Mutex::new(FileState {
                cached: Vec::new(),
                durable: Vec::new(),
                dirty: DirtyBlocks::default(),
            }),
        })
    }

    /// The file's path within its filesystem.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append raw bytes (the non-transactional "system call").
    pub fn append(&self, bytes: &[u8]) {
        crashpoint::crash_point("simos_file_append");
        if crashpoint::is_frozen() {
            return;
        }
        let mut st = self.state.lock();
        let from = st.cached.len();
        st.cached.extend_from_slice(bytes);
        let to = st.cached.len();
        st.dirty.mark(from, to);
    }

    /// Write at an absolute offset, growing the file if needed.
    pub fn write_at(&self, offset: usize, bytes: &[u8]) {
        crashpoint::crash_point("simos_file_write_at");
        if crashpoint::is_frozen() {
            return;
        }
        let mut st = self.state.lock();
        let old_len = st.cached.len();
        if old_len < offset + bytes.len() {
            st.cached.resize(offset + bytes.len(), 0);
        }
        st.cached[offset..offset + bytes.len()].copy_from_slice(bytes);
        // The zero-fill between the old end and `offset` changed too.
        st.dirty.mark(old_len.min(offset), offset + bytes.len());
    }

    /// Snapshot of the whole contents, as reads see them (page cache).
    pub fn read_all(&self) -> Vec<u8> {
        self.state.lock().cached.clone()
    }

    /// `pread(2)`: copy the cached bytes at `offset..` into the front of
    /// `buf` and return how many there were — fewer than `buf.len()` when
    /// the range straddles the end of the file, `0` at or past it. The
    /// rest of `buf` is left untouched. Reads are not mutations, so they
    /// are still served after a crash point has frozen the world.
    pub fn read_at(&self, offset: usize, buf: &mut [u8]) -> usize {
        let st = self.state.lock();
        let from = offset.min(st.cached.len());
        let n = buf.len().min(st.cached.len() - from);
        buf[..n].copy_from_slice(&st.cached[from..from + n]);
        n
    }

    /// Current length in bytes (page cache).
    pub fn len(&self) -> usize {
        self.state.lock().cached.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Truncate to `len` bytes (no-op if already shorter). Used by x-call
    /// compensation to undo appends. Like data writes, an unsynced
    /// truncation is not durable: the durable image keeps its tail until
    /// the next `sync_all`, and a crash resurrects it. The dirty marks
    /// wholly past the new end are dropped — they no longer name any
    /// cached byte, and a write that grows the file back over them marks
    /// them again; the block the cut falls in keeps the mark it had,
    /// since its surviving bytes did not change.
    pub fn truncate(&self, len: usize) {
        crashpoint::crash_point("simos_file_truncate");
        if crashpoint::is_frozen() {
            return;
        }
        let mut st = self.state.lock();
        if len < st.cached.len() {
            st.cached.truncate(len);
            st.dirty.truncate(len.div_ceil(BLOCK_BYTES));
        }
    }

    /// `fsync(2)`: promote the page cache to the durable image. Costs
    /// O(dirty words + dirty bytes): the durable image takes the
    /// cache's length (so an unsynced truncation becomes durable) and then
    /// only the dirty blocks are copied, one copy per run of consecutive
    /// ones — by the clean-block invariant every other block already
    /// matches.
    pub fn sync_all(&self) {
        crashpoint::crash_point("simos_file_sync");
        if crashpoint::is_frozen() {
            return;
        }
        let mut st = self.state.lock();
        let FileState { cached, durable, dirty } = &mut *st;
        durable.resize(cached.len(), 0);
        for run in dirty.runs() {
            let span = block_span(run, cached.len());
            durable[span.clone()].copy_from_slice(&cached[span]);
        }
        dirty.clear();
    }

    /// Snapshot of the durable (crash-surviving) image.
    pub fn durable_snapshot(&self) -> Vec<u8> {
        self.state.lock().durable.clone()
    }

    /// Indices of cache blocks not yet flushed, ascending.
    pub fn dirty_blocks(&self) -> Vec<usize> {
        self.state.lock().dirty.iter().collect()
    }

    /// The contents a crash under `seed` would leave behind, without
    /// crashing. Pure: same state and seed, same image.
    pub fn crash_image(&self, seed: u64) -> Vec<u8> {
        self.state.lock().crash_image(self.salt, seed)
    }

    /// Crash this file: replace both images with [`SimFile::crash_image`]
    /// and clear the dirty set. Deliberately ignores the crash-point
    /// freeze — taking the image *is* the crash, not post-crash work.
    pub fn crash(&self, seed: u64) {
        let mut st = self.state.lock();
        let img = st.crash_image(self.salt, seed);
        st.cached.clone_from(&img);
        st.durable = img;
        st.dirty.clear();
    }
}

/// An in-memory filesystem: a namespace of [`SimFile`]s.
#[derive(Default)]
pub struct SimFs {
    files: Mutex<HashMap<String, Arc<SimFile>>>,
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFs").field("files", &self.files.lock().len()).finish()
    }
}

impl SimFs {
    /// An empty filesystem.
    pub fn new() -> Arc<SimFs> {
        Arc::new(SimFs::default())
    }

    /// Open `path`, creating it if absent.
    pub fn open_or_create(&self, path: &str) -> Arc<SimFile> {
        self.files.lock().entry(path.to_owned()).or_insert_with(|| SimFile::new(path)).clone()
    }

    /// Open an existing file.
    ///
    /// # Errors
    ///
    /// [`OsError::NotFound`] if `path` does not exist.
    pub fn open(&self, path: &str) -> Result<Arc<SimFile>, OsError> {
        self.files.lock().get(path).cloned().ok_or_else(|| OsError::NotFound(path.to_owned()))
    }

    /// Crash the whole filesystem: every file keeps its durable image
    /// plus a seeded subset of its unflushed blocks (see
    /// [`SimFile::crash`]). Per-file salts make the outcome independent
    /// of namespace iteration order.
    pub fn crash(&self, seed: u64) {
        for f in self.files.lock().values() {
            f.crash(seed);
        }
    }
}

/// A bounded byte pipe (kernel pipe / socket buffer stand-in): writes
/// block while it is full, reads never block.
pub struct SimPipe {
    buf: Mutex<VecDeque<u8>>,
    writable: Condvar,
    capacity: usize,
}

impl fmt::Debug for SimPipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimPipe")
            .field("buffered", &self.buffered())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl SimPipe {
    /// A pipe buffering at most `capacity` bytes.
    pub fn new(capacity: usize) -> Arc<SimPipe> {
        Arc::new(SimPipe {
            buf: Mutex::new(VecDeque::new()),
            writable: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Write all of `bytes`, blocking while the pipe is full.
    pub fn write(&self, bytes: &[u8]) {
        crashpoint::crash_point("simos_pipe_write");
        if crashpoint::is_frozen() {
            // The crash already happened; the bytes go nowhere. Returning
            // keeps the (dead) workload running to completion.
            return;
        }
        let mut remaining = bytes;
        let mut buf = self.buf.lock();
        while !remaining.is_empty() {
            let room = self.capacity.saturating_sub(buf.len());
            if room == 0 {
                self.writable.wait(&mut buf);
                continue;
            }
            let n = room.min(remaining.len());
            buf.extend(&remaining[..n]);
            remaining = &remaining[n..];
        }
    }

    /// Read without blocking; `None` when no data is buffered.
    pub fn try_read(&self, max: usize) -> Option<Vec<u8>> {
        if crashpoint::is_frozen() {
            return None;
        }
        let mut buf = self.buf.lock();
        if buf.is_empty() {
            return None;
        }
        let n = max.min(buf.len());
        let out: Vec<u8> = buf.drain(..n).collect();
        self.writable.notify_all();
        Some(out)
    }

    /// Push bytes back to the *front* of the pipe — the compensation x-call
    /// reads use to undo a consumed read on abort. A no-op once the world
    /// is frozen: a compensation queued before a crash must not replay
    /// into the post-crash image (the process that owed it is dead).
    pub fn unread(&self, bytes: &[u8]) {
        if crashpoint::is_frozen() {
            return;
        }
        let mut buf = self.buf.lock();
        for &b in bytes.iter().rev() {
            buf.push_front(b);
        }
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.lock().len()
    }

    /// Crash the pipe: kernel pipe buffers are volatile, so everything
    /// in flight is lost. Ignores the freeze, like [`SimFile::crash`].
    pub fn crash(&self) {
        self.buf.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_append_and_read() {
        let fs = SimFs::new();
        let f = fs.open_or_create("/var/log/access.log");
        f.append(b"GET /");
        f.append(b" 200\n");
        assert_eq!(f.read_all(), b"GET / 200\n");
        assert_eq!(f.len(), 10);
    }

    #[test]
    fn file_truncate_undoes_append() {
        let fs = SimFs::new();
        let f = fs.open_or_create("f");
        f.append(b"keep");
        let mark = f.len();
        f.append(b"undo");
        f.truncate(mark);
        assert_eq!(f.read_all(), b"keep");
    }

    #[test]
    fn write_at_grows_file() {
        let fs = SimFs::new();
        let f = fs.open_or_create("f");
        f.write_at(3, b"xy");
        assert_eq!(f.read_all(), vec![0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn read_at_is_a_ranged_short_counting_read() {
        let fs = SimFs::new();
        let f = fs.open_or_create("f");
        f.append(b"0123456789");
        // Inside the file: the whole buffer is filled.
        let mut buf = [b'.'; 4];
        assert_eq!(f.read_at(3, &mut buf), 4);
        assert_eq!(&buf, b"3456");
        // Straddling EOF: a short count, and the rest of `buf` untouched.
        let mut buf = [b'.'; 4];
        assert_eq!(f.read_at(8, &mut buf), 2);
        assert_eq!(&buf, b"89..");
        // At and wholly past EOF: nothing.
        let mut buf = [b'.'; 4];
        assert_eq!(f.read_at(10, &mut buf), 0);
        assert_eq!(f.read_at(1000, &mut buf), 0);
        assert_eq!(&buf, b"....");
        assert_eq!(f.read_at(0, &mut []), 0);
    }

    #[test]
    fn unsynced_truncate_keeps_the_durable_tail_and_no_mark_past_the_cut() {
        let fs = SimFs::new();
        let f = fs.open_or_create("f");
        let old: Vec<u8> = (0..5 * BLOCK_BYTES as u8).collect();
        f.append(&old);
        f.sync_all();
        f.write_at(BLOCK_BYTES, b"dirty");
        f.write_at(3 * BLOCK_BYTES, b"dirty");
        assert_eq!(f.dirty_blocks(), vec![1, 3]);
        // A cut inside block 1: that block keeps its mark, the marks past
        // the cut go, and every crash resurrects the durable tail.
        f.truncate(BLOCK_BYTES + 9);
        assert_eq!(f.dirty_blocks(), vec![1]);
        assert_eq!(f.durable_snapshot(), old);
        for seed in 0..8 {
            let img = f.crash_image(seed);
            assert_eq!(img.len(), old.len(), "an unsynced truncation is not durable");
            assert_eq!(img[BLOCK_BYTES + 9..], old[BLOCK_BYTES + 9..]);
        }
        // Growing back over the dropped marks re-marks them.
        f.append(&[b'n'; BLOCK_BYTES]);
        assert_eq!(f.dirty_blocks(), vec![1, 2]);
        // fsync makes the shorter file durable: length first, then blocks.
        f.sync_all();
        assert_eq!(f.len(), 2 * BLOCK_BYTES + 9);
        assert_eq!(f.durable_snapshot(), f.read_all());
        // Cutting a clean file dirties nothing, wherever the cut falls.
        f.truncate(BLOCK_BYTES + 1);
        f.truncate(BLOCK_BYTES);
        assert!(f.dirty_blocks().is_empty());
        assert_eq!(f.crash_image(1), f.durable_snapshot());
        f.sync_all();
        assert_eq!(f.durable_snapshot(), &old[..BLOCK_BYTES]);
    }

    #[test]
    fn same_handle_for_same_path() {
        let fs = SimFs::new();
        assert_eq!(fs.open("shared").unwrap_err(), OsError::NotFound("shared".into()));
        let f1 = fs.open_or_create("shared");
        let f2 = fs.open("shared").unwrap();
        f1.append(b"x");
        assert_eq!(f2.read_all(), b"x");
    }

    #[test]
    fn sync_promotes_cache_to_durable() {
        let fs = SimFs::new();
        let f = fs.open_or_create("db");
        f.append(b"record one; ");
        assert_eq!(f.durable_snapshot(), b"", "nothing durable before fsync");
        assert!(!f.dirty_blocks().is_empty());
        f.sync_all();
        assert_eq!(f.durable_snapshot(), b"record one; ");
        assert!(f.dirty_blocks().is_empty());
        f.append(b"record two");
        assert_eq!(f.durable_snapshot(), b"record one; ", "appends are cached until synced");
    }

    #[test]
    fn crash_keeps_durable_image_and_some_flush_subset() {
        let fs = SimFs::new();
        let f = fs.open_or_create("db");
        let synced: Vec<u8> = vec![b's'; 3 * BLOCK_BYTES];
        f.append(&synced);
        f.sync_all();
        let unsynced: Vec<u8> = vec![b'u'; 4 * BLOCK_BYTES];
        f.append(&unsynced);
        let cached = f.read_all();
        for seed in 0..32u64 {
            let img = f.crash_image(seed);
            assert_eq!(&img[..synced.len()], &synced[..], "durable prefix always survives");
            assert!(img.len() <= cached.len());
            // Every surviving block is bit-for-bit a cached block.
            for b in 3..img.len().div_ceil(BLOCK_BYTES) {
                let s = b * BLOCK_BYTES;
                let e = ((b + 1) * BLOCK_BYTES).min(img.len());
                let block = &img[s..e];
                assert!(
                    block == &cached[s..e] || block.iter().all(|&x| x == 0),
                    "block {b} is neither cached content nor a dropped hole"
                );
            }
            assert_eq!(img, f.crash_image(seed), "crash image is pure per seed");
        }
        // Different seeds keep different subsets (32 coins × 4 blocks: the
        // chance of all agreeing is negligible for this fixed model).
        let distinct: std::collections::HashSet<Vec<u8>> =
            (0..32u64).map(|s| f.crash_image(s)).collect();
        assert!(distinct.len() > 1, "the kept subset must depend on the seed");
        // Applying the crash collapses both images onto the chosen one.
        let expect = f.crash_image(9);
        fs.crash(9);
        assert_eq!(f.read_all(), expect);
        assert_eq!(f.durable_snapshot(), expect);
        assert!(f.dirty_blocks().is_empty());
    }

    #[test]
    fn pipe_buffers_are_volatile_across_crash() {
        let p = SimPipe::new(16);
        p.write(b"in flight");
        p.crash();
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipe_roundtrip() {
        let p = SimPipe::new(16);
        p.write(b"hello");
        assert_eq!(p.try_read(5).unwrap(), b"hello");
        assert_eq!(p.try_read(5), None);
    }

    #[test]
    fn pipe_blocks_writer_at_capacity() {
        let p = SimPipe::new(4);
        p.write(b"1234");
        std::thread::scope(|s| {
            let p2 = p.clone();
            s.spawn(move || p2.write(b"56"));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(p.buffered(), 4, "writer should be blocked at capacity");
            assert_eq!(p.try_read(4).unwrap(), b"1234");
        });
        // The scope joined the writer: the read made room for its bytes.
        assert_eq!(p.try_read(4).unwrap(), b"56");
    }

    #[test]
    fn unread_restores_order() {
        let p = SimPipe::new(16);
        p.write(b"abcdef");
        let first = p.try_read(3).unwrap();
        assert_eq!(first, b"abc");
        p.unread(&first);
        assert_eq!(p.try_read(6).unwrap(), b"abcdef");
    }

    #[test]
    fn concurrent_pipe_producers_and_consumer_conserve_bytes() {
        let p = SimPipe::new(32);
        let total: usize = 4 * 256;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..256 {
                        p.write(&[7u8]);
                    }
                });
            }
            let p = p.clone();
            s.spawn(move || {
                let mut got = 0;
                while got < total {
                    match p.try_read(64) {
                        Some(bytes) => got += bytes.len(),
                        None => std::thread::yield_now(),
                    }
                }
                assert_eq!(got, total);
            });
        });
    }
}
