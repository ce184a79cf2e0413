//! Apache-II: the `ap_buffered_log_writer` atomicity violation (paper
//! §5.4.3, Figure 4).
//!
//! The buffered log writer keeps an in-memory buffer and an `outputCount`
//! cursor with **no synchronization at all**: two threads can read the
//! same cursor, write their records over each other and publish a cursor
//! that loses bytes — "producing either garbage in the log or buffer
//! overflow".
//!
//! - Developers' fix: a lock per log device (`buffered_log` structure),
//!   acquired on entry — plus code elsewhere to create and manage those
//!   locks.
//! - TM fix (Recipe 2): one atomic block around the buffer manipulation,
//!   with the flush performed as a deferred x-call; five lines, local to
//!   the function, same per-log concurrency as the fine-grained locks.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use txfix_stm::trace::TracedCell;
use txfix_stm::{TVar, Txn, TxnBuilder};
use txfix_txlock::TxMutex;
use txfix_xcall::{SimFile, SimFs, XFile};

/// Common interface over the three log-writer implementations.
pub trait LogWriter: Send + Sync + fmt::Debug {
    /// Append one record (the equivalent of `ap_buffered_log_writer`).
    fn write_record(&self, record: &[u8]);
    /// Flush whatever is buffered to the backing file.
    fn flush(&self);
    /// The backing file.
    fn file(&self) -> &Arc<SimFile>;
    /// Variant name for reports.
    fn variant_name(&self) -> &'static str;
}

/// The shipped, racy writer.
pub struct BuggyBufferedLog {
    buf: Vec<AtomicU8>,
    /// `buf->outcnt` — a plain, unsynchronized cursor. Traced so the
    /// dynamic analyzers and the deterministic scheduler both observe the
    /// racy accesses.
    output_count: TracedCell,
    /// Version stamp of the buffer contents, bumped once per record write —
    /// the traced face of the equally unsynchronized `buf->outbuf` bytes.
    buf_stamp: TracedCell,
    file: Arc<SimFile>,
    /// Spin iterations inserted in the racy window so tests expose the
    /// interleaving reliably (0 in benchmarks).
    racy_window_spins: u32,
}

impl fmt::Debug for BuggyBufferedLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuggyBufferedLog")
            .field("capacity", &self.buf.len())
            .field("output_count", &self.output_count.peek())
            .finish()
    }
}

impl BuggyBufferedLog {
    /// Create a writer with the given buffer capacity.
    pub fn new(fs: &SimFs, path: &str, capacity: usize, racy_window_spins: u32) -> Self {
        BuggyBufferedLog {
            buf: (0..capacity).map(|_| AtomicU8::new(0)).collect(),
            output_count: TracedCell::new("apache2.log_cursor", 0),
            buf_stamp: TracedCell::new("apache2.log_buf", 0),
            file: fs.open_or_create(path),
            racy_window_spins,
        }
    }

    fn flush_range(&self, len: usize) {
        let snapshot: Vec<u8> =
            self.buf[..len.min(self.buf.len())].iter().map(|b| b.load(Ordering::Relaxed)).collect();
        self.file.append(&snapshot);
        self.output_count.store(0);
    }
}

impl LogWriter for BuggyBufferedLog {
    fn write_record(&self, record: &[u8]) {
        // if (len + buf->outcnt > LOG_BUFSIZE) flush(buf);
        let mut cnt = self.output_count.load() as usize;
        if cnt + record.len() > self.buf.len() {
            self.flush_range(cnt);
            cnt = 0;
        }
        // The racy window: another thread can read the same cursor now.
        for _ in 0..self.racy_window_spins {
            std::hint::spin_loop();
        }
        if self.racy_window_spins > 0 {
            // On a single-core host spinning alone rarely gets preempted
            // mid-window; hand the timeslice over so the interleaving the
            // window models actually occurs.
            std::thread::yield_now();
        }
        // memcpy(&buf->outbuf[buf->outcnt], str, len);
        for (i, &b) in record.iter().enumerate() {
            if cnt + i < self.buf.len() {
                self.buf[cnt + i].store(b, Ordering::Relaxed);
            }
        }
        self.buf_stamp.store(self.buf_stamp.peek() + 1);
        // buf->outcnt += len;  — as a plain, non-atomic-increment store.
        self.output_count.store(((cnt + record.len()).min(self.buf.len())) as u64);
    }

    fn flush(&self) {
        let cnt = self.output_count.load() as usize;
        self.flush_range(cnt);
    }

    fn file(&self) -> &Arc<SimFile> {
        &self.file
    }

    fn variant_name(&self) -> &'static str {
        "buffered log (buggy)"
    }
}

/// The developers' fix: one lock per log device around the whole writer.
pub struct LockedBufferedLog {
    state: TxMutex<(Vec<u8>, Arc<SimFile>)>,
    file: Arc<SimFile>,
    capacity: usize,
}

impl fmt::Debug for LockedBufferedLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedBufferedLog").field("capacity", &self.capacity).finish()
    }
}

impl LockedBufferedLog {
    /// Create a writer with the given buffer capacity.
    pub fn new(fs: &SimFs, path: &str, capacity: usize) -> Self {
        let file = fs.open_or_create(path);
        LockedBufferedLog {
            state: TxMutex::new("buffered_log.lock", (Vec::with_capacity(capacity), file.clone())),
            file,
            capacity,
        }
    }
}

impl LogWriter for LockedBufferedLog {
    fn write_record(&self, record: &[u8]) {
        let mut g = self.state.lock().expect("per-log lock cannot cycle");
        if g.0.len() + record.len() > self.capacity {
            let (buf, file) = &mut *g;
            file.append(buf);
            buf.clear();
        }
        g.0.extend_from_slice(record);
    }

    fn flush(&self) {
        let mut g = self.state.lock().expect("per-log lock cannot cycle");
        let (buf, file) = &mut *g;
        file.append(buf);
        buf.clear();
    }

    fn file(&self) -> &Arc<SimFile> {
        &self.file
    }

    fn variant_name(&self) -> &'static str {
        "buffered log (developer fix: per-log lock)"
    }
}

/// The TM fix (Recipe 2): a single atomic block; the flush is a deferred
/// x-call applied at commit.
pub struct TmBufferedLog {
    buf: TVar<Vec<u8>>,
    xfile: XFile,
    capacity: usize,
    txn: TxnBuilder,
}

impl fmt::Debug for TmBufferedLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmBufferedLog").field("capacity", &self.capacity).finish()
    }
}

impl TmBufferedLog {
    /// Create a writer with the given buffer capacity.
    pub fn new(fs: &SimFs, path: &str, capacity: usize) -> Self {
        TmBufferedLog {
            buf: TVar::new(Vec::with_capacity(capacity)),
            xfile: XFile::open_or_create(fs, path),
            capacity,
            txn: Txn::build().site("apache_ii_log"),
        }
    }
}

impl LogWriter for TmBufferedLog {
    fn write_record(&self, record: &[u8]) {
        self.txn
            .try_run(|txn| {
                let mut buf = self.buf.read(txn)?;
                if buf.len() + record.len() > self.capacity {
                    self.xfile.x_append(txn, &buf)?;
                    buf.clear();
                }
                buf.extend_from_slice(record);
                self.buf.write(txn, buf)
            })
            .expect("log transaction cannot fail terminally");
    }

    fn flush(&self) {
        self.txn
            .try_run(|txn| {
                let buf = self.buf.read(txn)?;
                self.xfile.x_append(txn, &buf)?;
                self.buf.write(txn, Vec::new())
            })
            .expect("log flush transaction cannot fail terminally");
    }

    fn file(&self) -> &Arc<SimFile> {
        self.xfile.file()
    }

    fn variant_name(&self) -> &'static str {
        "buffered log (TM fix: recipe 2 + xcall)"
    }
}

/// Result of checking a log file for corruption.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogValidation {
    /// Well-formed records found.
    pub valid_records: usize,
    /// Malformed byte spans (interleaved/overwritten records).
    pub corrupted_spans: usize,
    /// Bytes in the file.
    pub total_bytes: usize,
}

impl LogValidation {
    /// Whether the log shows any corruption or record loss relative to
    /// `expected_records`.
    pub fn is_violation(&self, expected_records: usize) -> bool {
        self.corrupted_spans > 0 || self.valid_records != expected_records
    }
}

/// Parse a log of `<tNN:seqNNNNNN>` records and count corruption.
pub fn validate_log(data: &[u8]) -> LogValidation {
    let mut v = LogValidation { total_bytes: data.len(), ..Default::default() };
    let mut i = 0;
    while i < data.len() {
        if data[i] == b'<' {
            if let Some(end) = data[i..].iter().position(|&b| b == b'>') {
                let span = &data[i..i + end + 1];
                // A record never contains another '<'.
                if span[1..span.len() - 1].iter().all(|&b| b != b'<')
                    && span.len() == crate::apache::buffered_log::RECORD_LEN
                {
                    v.valid_records += 1;
                    i += end + 1;
                    continue;
                }
            }
            v.corrupted_spans += 1;
            i += 1;
        } else {
            // Bytes outside any record framing.
            v.corrupted_spans += 1;
            // Skip the whole garbage run so one overwrite counts once.
            while i < data.len() && data[i] != b'<' {
                i += 1;
            }
        }
    }
    v
}

/// Length of the fixed-size framed record produced by [`make_record`]:
/// `<tNN:seqNNNNNN>` is 15 bytes.
pub const RECORD_LEN: usize = 15;

/// Produce the fixed-size test record `<tNN:seqNNNNNN>`.
pub fn make_record(thread: usize, seq: u64) -> Vec<u8> {
    let s = format!("<t{:02}:seq{:06}>", thread % 100, seq % 1_000_000);
    debug_assert_eq!(s.len(), RECORD_LEN);
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hammer(log: &dyn LogWriter, threads: usize, records_per_thread: u64) {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..records_per_thread {
                        log.write_record(&make_record(t, i));
                    }
                });
            }
        });
        log.flush();
    }

    #[test]
    fn single_threaded_buggy_log_is_clean() {
        let fs = SimFs::new();
        let log = BuggyBufferedLog::new(&fs, "log", 256, 0);
        hammer(&log, 1, 100);
        let v = validate_log(&log.file().read_all());
        assert!(!v.is_violation(100), "{v:?}");
    }

    #[test]
    fn concurrent_buggy_log_corrupts() {
        let fs = SimFs::new();
        let log = BuggyBufferedLog::new(&fs, "log", 256, 2_000);
        hammer(&log, 4, 300);
        let v = validate_log(&log.file().read_all());
        assert!(v.is_violation(4 * 300), "expected corruption, got {v:?}");
    }

    #[test]
    fn locked_log_is_exact_under_contention() {
        let fs = SimFs::new();
        let log = LockedBufferedLog::new(&fs, "log", 256);
        hammer(&log, 4, 300);
        let v = validate_log(&log.file().read_all());
        assert_eq!(v.corrupted_spans, 0, "{v:?}");
        assert_eq!(v.valid_records, 1200);
    }

    #[test]
    fn tm_log_is_exact_under_contention() {
        let fs = SimFs::new();
        let log = TmBufferedLog::new(&fs, "log", 256);
        hammer(&log, 4, 300);
        let v = validate_log(&log.file().read_all());
        assert_eq!(v.corrupted_spans, 0, "{v:?}");
        assert_eq!(v.valid_records, 1200);
    }

    #[test]
    fn validator_flags_interleaved_bytes() {
        let mut data = make_record(1, 1);
        data.extend_from_slice(b"garbage");
        data.extend_from_slice(&make_record(1, 2));
        let v = validate_log(&data);
        assert_eq!(v.valid_records, 2);
        assert_eq!(v.corrupted_spans, 1);
        assert!(v.is_violation(2));
    }

    #[test]
    fn validator_accepts_clean_stream() {
        let mut data = Vec::new();
        for i in 0..10 {
            data.extend_from_slice(&make_record(0, i));
        }
        let v = validate_log(&data);
        assert_eq!(v.valid_records, 10);
        assert!(!v.is_violation(10));
    }
}
