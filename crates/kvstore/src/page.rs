//! The checkpoint page layer: a bounded buffer pool of fixed-size pages
//! over a simos file, plus the double-buffered checkpoint file format.
//!
//! Checkpoints are the store's second durability channel (the first is
//! the redo log): a shard snapshot is serialized, paginated through the
//! pool, flushed page-by-page (each write-back crossing the
//! [`KV_POOL_FLUSH`] crash point), and committed by an fsync. Validity is
//! decided by a checksum trailer, so a crash torn anywhere inside the
//! flush leaves a checkpoint that recovery *rejects* — it falls back to
//! the other buffer of the pair and the full WAL replay.
//!
//! A checkpoint costs what it writes: the encoder sizes the image once
//! and checksums each line as it writes it, a pool write that covers a
//! whole page does not read that page first, and a reader checksums only
//! the image it tries ([`checkpoint_image`] parses the frame alone).

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;
use txfix_stm::chaos::Fnv64;
use txfix_xcall::{crashpoint, SimFile};

/// Bytes per buffer-pool page — a small multiple of the simos block size
/// (32), so one page write dirties a deterministic set of blocks.
pub const PAGE_BYTES: usize = 64;

/// Crash point crossed before every dirty-page write-back (flush and
/// eviction alike): the window where a torn checkpoint is manufactured.
pub const KV_POOL_FLUSH: &str = "kv_pool_flush";

/// Cumulative buffer-pool counters — pure functions of the access
/// sequence, so they are safe to put in deterministic artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page accesses served from a resident frame.
    pub hits: u64,
    /// Page accesses that had to load from the file.
    pub misses: u64,
    /// Frames recycled by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back (flush and eviction write-backs).
    pub flushed_pages: u64,
}

struct Frame {
    page_no: usize,
    data: [u8; PAGE_BYTES],
    dirty: bool,
    referenced: bool,
}

/// A bounded page cache over one simos file: clock eviction, dirty
/// tracking, and an explicit [`flush`](BufferPool::flush) that makes the
/// file durable.
pub struct BufferPool {
    file: Arc<SimFile>,
    capacity: usize,
    frames: Vec<Frame>,
    hand: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool of at most `capacity` resident pages over `file`.
    pub fn new(file: Arc<SimFile>, capacity: usize) -> BufferPool {
        assert!(capacity >= 1, "a buffer pool needs at least one frame");
        BufferPool { file, capacity, frames: Vec::new(), hand: 0, stats: PoolStats::default() }
    }

    /// The underlying file.
    pub fn file(&self) -> &Arc<SimFile> {
        &self.file
    }

    /// Counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn write_back(file: &SimFile, frame: &mut Frame, stats: &mut PoolStats) {
        crashpoint::crash_point(KV_POOL_FLUSH);
        file.write_at(frame.page_no * PAGE_BYTES, &frame.data);
        frame.dirty = false;
        stats.flushed_pages += 1;
    }

    /// Index of the frame holding `page_no`, faulting it in (and possibly
    /// evicting) if absent. A miss is one ranged read, which leaves what
    /// lies past the end of the file zero-filled — or none, if the caller
    /// will `overwrite` the whole page; that still counts as a miss, so
    /// the counters stay a function of the access sequence alone.
    fn frame_of(&mut self, page_no: usize, overwrite: bool) -> usize {
        if let Some(i) = self.frames.iter().position(|f| f.page_no == page_no) {
            self.stats.hits += 1;
            self.frames[i].referenced = true;
            return i;
        }
        self.stats.misses += 1;
        let mut data = [0; PAGE_BYTES];
        if !overwrite {
            self.file.read_at(page_no * PAGE_BYTES, &mut data);
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame { page_no, data, dirty: false, referenced: true });
            return self.frames.len() - 1;
        }
        // Clock: sweep, clearing reference bits, until an unreferenced
        // frame comes around; write it back if dirty (no fsync — an
        // eviction write-back is not yet durable).
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[i].referenced {
                self.frames[i].referenced = false;
                continue;
            }
            if self.frames[i].dirty {
                Self::write_back(&self.file, &mut self.frames[i], &mut self.stats);
            }
            self.stats.evictions += 1;
            self.frames[i] = Frame { page_no, data, dirty: false, referenced: true };
            return i;
        }
    }

    /// Read `len` bytes starting at `offset` through the pool.
    pub fn read_at(&mut self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < offset + len {
            let page_no = pos / PAGE_BYTES;
            let in_page = pos % PAGE_BYTES;
            let take = (PAGE_BYTES - in_page).min(offset + len - pos);
            let i = self.frame_of(page_no, false);
            out.extend_from_slice(&self.frames[i].data[in_page..in_page + take]);
            pos += take;
        }
        out
    }

    /// Write `bytes` at `offset` through the pool (buffered: reaches the
    /// file only on eviction or [`flush`](BufferPool::flush)). A page the
    /// write covers whole is not read from the file first.
    pub fn write_at(&mut self, offset: usize, bytes: &[u8]) {
        let mut pos = 0;
        while pos < bytes.len() {
            let abs = offset + pos;
            let page_no = abs / PAGE_BYTES;
            let in_page = abs % PAGE_BYTES;
            let take = (PAGE_BYTES - in_page).min(bytes.len() - pos);
            let i = self.frame_of(page_no, take == PAGE_BYTES);
            self.frames[i].data[in_page..in_page + take].copy_from_slice(&bytes[pos..pos + take]);
            self.frames[i].dirty = true;
            pos += take;
        }
    }

    /// Write back every dirty frame in page order, then fsync the file.
    /// Each write-back crosses [`KV_POOL_FLUSH`]; a crash armed there
    /// leaves a torn, checksum-invalid checkpoint.
    pub fn flush(&mut self) {
        let mut order: Vec<usize> = (0..self.frames.len()).collect();
        order.sort_by_key(|&i| self.frames[i].page_no);
        for i in order {
            if self.frames[i].dirty {
                Self::write_back(&self.file, &mut self.frames[i], &mut self.stats);
            }
        }
        self.file.sync_all();
    }

    /// Drop every cached frame (dirty ones included — the caller is
    /// abandoning buffered writes, e.g. after recovery chose the other
    /// checkpoint buffer).
    pub fn discard(&mut self) {
        self.frames.clear();
        self.hand = 0;
    }
}

/// A decoded, checksum-valid checkpoint image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic checkpoint generation; the valid buffer with the
    /// highest epoch wins at recovery.
    pub epoch: u64,
    /// One past the highest txid the snapshot covers.
    pub next_txid: u64,
    /// The snapshot itself.
    pub map: BTreeMap<String, String>,
}

/// Serialize a snapshot, given as its entries in key order, to the
/// on-disk checkpoint format:
///
/// ```text
/// KVCP <epoch> <next_txid> <payload_len> ;\n
/// S <key> <value> ;\n        (payload, one line per entry)
/// KVEND <epoch> <fnv64-hex> ;\n
/// ```
///
/// The one encoder: the store streams borrowed index entries through it
/// without first building a [`Checkpoint`]. A first pass over `entries`
/// sums the payload's length, so the image is allocated once; the second
/// writes each line and feeds it to the checksum in the same loop.
pub fn encode_checkpoint_entries<'a>(
    epoch: u64,
    next_txid: u64,
    entries: impl Iterator<Item = (&'a str, &'a str)> + Clone,
) -> Vec<u8> {
    let len: usize = entries.clone().map(|(k, v)| k.len() + v.len() + "S   ;\n".len()).sum();
    // Header and trailer fit in 128 bytes: four `u64`s, a 16-digit
    // checksum and 20 bytes of framing.
    let mut out = String::with_capacity(128 + len);
    let mut sum = Fnv64::EMPTY;
    writeln!(out, "KVCP {epoch} {next_txid} {len} ;").unwrap();
    for (k, v) in entries {
        let start = out.len();
        out.extend(["S ", k, " ", v, " ;\n"]);
        sum.write(&out.as_bytes()[start..]);
    }
    writeln!(out, "KVEND {epoch} {:016x} ;", sum.finish()).unwrap();
    out.into_bytes()
}

/// [`encode_checkpoint_entries`] over a decoded [`Checkpoint`].
pub fn encode_checkpoint(cp: &Checkpoint) -> Vec<u8> {
    let entries = cp.map.iter().map(|(k, v)| (k.as_str(), v.as_str()));
    encode_checkpoint_entries(cp.epoch, cp.next_txid, entries)
}

/// One `S` line: its key and value, or `None` if it is malformed.
type Entry<'a> = Option<(&'a str, &'a str)>;

/// A checkpoint image whose header and trailer parse and agree, and whose
/// entries are still unparsed text borrowed from the image. Its checksum
/// is checked only as its entries are read, so a reader choosing between
/// two images hashes only the one it tries.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointImage<'a> {
    /// As [`Checkpoint::epoch`].
    pub epoch: u64,
    /// As [`Checkpoint::next_txid`].
    pub next_txid: u64,
    payload: &'a str,
    /// The trailer's checksum of `payload`.
    sum: u64,
}

impl<'a> CheckpointImage<'a> {
    /// The one parser of `S` lines: the entries in image order, `None` for
    /// a malformed line (a checksum proves the bytes are the ones written,
    /// not that the writer wrote well-formed lines).
    pub fn entries(&self) -> impl Iterator<Item = Entry<'a>> {
        lines(self.payload, |_| {})
    }

    /// Every entry, in image order, if every line is well formed and the
    /// checksum holds: one pass, hashing each byte as it splits it.
    pub(crate) fn checked_entries(&self) -> Option<Vec<(&'a str, &'a str)>> {
        let mut sum = Fnv64::EMPTY;
        let entries = lines(self.payload, |b| sum.write(&[b])).collect::<Option<Vec<_>>>()?;
        (sum.finish() == self.sum).then_some(entries)
    }
}

/// `payload`'s lines as `str::lines` splits them, each an entry if it is
/// exactly `S key value ;`: one loop per line, which hands `each` its bytes.
fn lines<'a>(mut rest: &'a str, mut each: impl FnMut(u8)) -> impl Iterator<Item = Entry<'a>> {
    std::iter::from_fn(move || {
        let bytes = Some(rest.as_bytes()).filter(|bytes| !bytes.is_empty())?;
        let mut spaces = 0;
        let end = bytes.iter().position(|&b| {
            each(b);
            spaces += usize::from(b == b' ');
            b == b'\n'
        });
        let (line, tail) = rest.split_at(end.unwrap_or(rest.len()));
        rest = tail.get(1..).unwrap_or("");
        let line = end.and_then(|_| line.strip_suffix('\r')).unwrap_or(line);
        let entry = || line.strip_prefix("S ")?.strip_suffix(" ;")?.split_once(' ');
        Some(entry().filter(|_| spaces == 3))
    })
}

/// Parse a checkpoint image's header and trailer, without checking its
/// checksum or parsing its entries. `None` for anything torn there:
/// unparseable header or trailer, epoch mismatch between them, or short
/// payload. The one parser of the frame; a torn payload is caught by the
/// checksum, as [`decode_checkpoint`] reads the entries.
pub fn checkpoint_image(bytes: &[u8]) -> Option<CheckpointImage<'_>> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (header, rest) = text.split_once('\n')?;
    let (epoch, header) = header.strip_prefix("KVCP ")?.strip_suffix(" ;")?.split_once(' ')?;
    let (next_txid, len) = header.split_once(' ')?;
    let (epoch, next_txid) = (epoch.parse().ok()?, next_txid.parse().ok()?);
    let (payload, tail) = rest.split_at_checked(len.parse().ok()?)?;
    let trailer = tail.lines().next()?.strip_prefix("KVEND ")?.strip_suffix(" ;")?;
    let (end_epoch, sum) = trailer.split_once(' ')?;
    let (end_epoch, sum) = (end_epoch.parse::<u64>().ok()?, u64::from_str_radix(sum, 16).ok()?);
    (end_epoch == epoch).then_some(CheckpointImage { epoch, next_txid, payload, sum })
}

/// Decode and validate a checkpoint image: [`checkpoint_image`], then its
/// entries and checksum in one pass. `None` if any rejects it.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    let image = checkpoint_image(bytes)?;
    let map = image.checked_entries()?.into_iter().map(|(k, v)| (k.into(), v.into())).collect();
    Some(Checkpoint { epoch: image.epoch, next_txid: image.next_txid, map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_xcall::SimFs;

    #[test]
    fn pool_round_trips_and_counts_hits() {
        let fs = SimFs::new();
        let f = fs.open_or_create("p");
        let mut pool = BufferPool::new(f, 2);
        pool.write_at(10, b"hello");
        assert_eq!(pool.read_at(10, 5), b"hello");
        assert_eq!(pool.stats().misses, 1);
        assert!(pool.stats().hits >= 1);
        // Not yet on the file.
        assert!(pool.file().read_all().is_empty());
        pool.flush();
        assert_eq!(&pool.file().read_all()[10..15], b"hello");
        assert_eq!(pool.file().durable_snapshot(), pool.file().read_all());
    }

    #[test]
    fn clock_eviction_writes_back_dirty_frames() {
        let fs = SimFs::new();
        let f = fs.open_or_create("p");
        let mut pool = BufferPool::new(f, 2);
        pool.write_at(0, b"aa"); // page 0, dirty
        pool.write_at(PAGE_BYTES, b"bb"); // page 1, dirty
                                          // Faulting page 2 must evict one of them, writing it back.
        pool.read_at(2 * PAGE_BYTES, 1);
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().flushed_pages, 1);
        // The evicted page's contents are readable through the pool again.
        assert_eq!(pool.read_at(0, 2), b"aa");
        assert_eq!(pool.read_at(PAGE_BYTES, 2), b"bb");
    }

    #[test]
    fn ragged_image_round_trips_through_a_small_pool_with_pinned_counts() {
        let fs = SimFs::new();
        let f = fs.open_or_create("p");
        // 10 whole pages + 17 bytes, no zero byte, through 4 frames: the
        // shape of a shard checkpoint followed by its recovery read.
        let image: Vec<u8> = (0..10 * PAGE_BYTES + 17).map(|i| (i % 251) as u8 + 1).collect();
        let mut pool = BufferPool::new(f, 4);
        pool.write_at(0, &image);
        pool.flush();
        pool.discard();
        assert_eq!(pool.read_at(0, image.len()), image);
        // Pure functions of the access sequence, and BENCH_kv.json carries
        // them: 11 write misses (7 evicting a dirty frame, 4 left for the
        // flush), then 11 cold read misses (7 clean evictions).
        assert_eq!(
            pool.stats(),
            PoolStats { hits: 0, misses: 22, evictions: 14, flushed_pages: 11 }
        );
        // Write-back is whole pages; the short last page and anything
        // past the end of the file read back zero-filled.
        assert_eq!(pool.file().len(), 11 * PAGE_BYTES);
        assert_eq!(pool.read_at(image.len(), PAGE_BYTES), [0u8; PAGE_BYTES]);
        assert_eq!(pool.file().durable_snapshot(), pool.file().read_all());
    }

    #[test]
    fn a_partial_write_keeps_the_page_and_a_whole_one_replaces_it() {
        let fs = SimFs::new();
        let f = fs.open_or_create("p");
        let old: Vec<u8> = (0..2 * PAGE_BYTES).map(|i| i as u8 | 1).collect();
        f.append(&old);
        f.sync_all();
        let mut pool = BufferPool::new(f, 1);
        // Page 0 keeps the bytes around the three written; page 1 is the
        // new bytes only. Both faults are misses, and the second evicts
        // (and writes back) the first, as a read-first write would.
        pool.write_at(3, b"xyz");
        pool.write_at(PAGE_BYTES, &[b'n'; PAGE_BYTES]);
        pool.flush();
        let mut want = old;
        want[3..6].copy_from_slice(b"xyz");
        want[PAGE_BYTES..].fill(b'n');
        assert_eq!(pool.file().read_all(), want);
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 2, evictions: 1, flushed_pages: 2 });
    }

    #[test]
    fn checkpoint_encoding_round_trips_and_rejects_tears() {
        let cp = Checkpoint {
            epoch: 7,
            next_txid: 42,
            map: BTreeMap::from([
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
            ]),
        };
        let bytes = encode_checkpoint(&cp);
        assert_eq!(bytes, b"KVCP 7 42 16 ;\nS a 1 ;\nS b 2 ;\nKVEND 7 49c94d0cf8990a9d ;\n");
        assert_eq!(decode_checkpoint(&bytes), Some(cp.clone()));
        // Any single corrupted byte in the payload fails the checksum.
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= 0x40;
            assert_ne!(decode_checkpoint(&torn), Some(cp.clone()), "byte {i}");
        }
        // A truncated image never validates — except for dropping only
        // the final newline, which leaves the trailer line complete.
        for cut in 0..bytes.len() - 1 {
            assert_eq!(decode_checkpoint(&bytes[..cut]), None, "cut {cut}");
        }
        assert_eq!(decode_checkpoint(&bytes[..bytes.len() - 1]), Some(cp.clone()));
        // The empty checkpoint round-trips too.
        let empty = Checkpoint { epoch: 1, next_txid: 1, map: BTreeMap::new() };
        assert_eq!(decode_checkpoint(&encode_checkpoint(&empty)), Some(empty));
    }
}
