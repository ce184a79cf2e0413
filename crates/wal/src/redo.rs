//! The redo log: commit-marker protocol and recovery replay.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use txfix_stm::{StmResult, Txn};
use txfix_xcall::{SimFile, SimFs, XFile, XOp};

/// The log's one commit protocol, as a value. Exists only so the
/// out-of-workspace `benchmark/` crate, which passes it to [`Wal::open`],
/// still compiles; the `benchmark` housekeeping change deletes it together
/// with that argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalVariant {
    /// Records are synced *before* the commit marker is appended, so a
    /// durable marker implies durable records.
    Fixed,
}

/// The crash point planted between the commit-marker append and the final
/// sync — the exact window where the `wal_commit_before_fsync` canary
/// loses atomicity.
pub const AFTER_COMMIT_WRITE: &str = "wal_after_commit_write";

/// Whether `b` may appear in a WAL token: `[A-Za-z0-9_]`.
fn token_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'A'..=b'Z' | b'_' | b'a'..=b'z')
}

/// Whether `s` is a legal WAL token (`[A-Za-z0-9_]+`). Layers that store
/// user-facing keys/values in the log (the kvstore) validate against this
/// before accepting an operation.
pub fn is_token(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(token_byte)
}

/// One logical redo record inside a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Set `key` to `value`.
    Put(String, String),
    /// Remove `key`.
    Delete(String),
}

/// A write-ahead redo log over a transactional file.
pub struct Wal {
    file: XFile,
}

impl Wal {
    /// Open (or create) the log at `path`. The [`WalVariant`] is ignored
    /// (see its docs).
    pub fn open(fs: &SimFs, path: &str, _: WalVariant) -> Wal {
        Wal { file: XFile::open_or_create(fs, path) }
    }

    /// The transactional handle to the log file.
    pub fn file(&self) -> &XFile {
        &self.file
    }

    /// Queue one logical transaction — `P txid k v ;` / `D txid k ;`
    /// records, a sync, the `C txid ;` commit marker, a sync — as deferred
    /// operations of `txn`. If `txn` aborts, nothing reaches the log; if it
    /// commits, the appends and fsyncs are applied in order.
    ///
    /// Keys and values must be WAL tokens (`[A-Za-z0-9_]+`).
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts/preemption as [`Abort`](txfix_stm::Abort).
    pub fn x_log_ops(&self, txn: &mut Txn, txid: u64, ops: &[WalOp]) -> StmResult<()> {
        // The lines, formatted into a buffer each thread reuses; the log
        // file copies them into its own.
        thread_local!(static LINES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) });
        LINES.with_borrow_mut(|lines| {
            lines.clear();
            for op in ops {
                // Writing into a `Vec` cannot fail.
                let _ = match op {
                    WalOp::Put(k, v) => writeln!(lines, "P {txid} {k} {v} ;"),
                    WalOp::Delete(k) => writeln!(lines, "D {txid} {k} ;"),
                };
            }
            debug_assert!(records(lines).all(|r| r.is_some()), "invalid WAL token in {ops:?}");
            let records_end = lines.len();
            let _ = writeln!(lines, "C {txid} ;");
            let (records, marker) = lines.split_at(records_end);
            let records = records.split_inclusive(|&b| b == b'\n').map(XOp::Append);
            // The first sync is the protocol's load-bearing one: records
            // must be durable before the commit marker exists anywhere.
            let commit =
                [XOp::Sync, XOp::Append(marker), XOp::CrashPoint(AFTER_COMMIT_WRITE), XOp::Sync];
            // Canary: the FIRST reference-WAL bug (SNIPPETS §2) — drop that
            // sync, so a crash before the last one can persist the marker
            // without its records and recovery replays a torn transaction.
            #[cfg(feature = "canary-wal")]
            let commit = commit.into_iter().skip(usize::from(txfix_stm::canary::fire(
                txfix_stm::canary::Canary::WalCommitBeforeFsync,
            )));
            // One batch: the log's isolation lock is entered once.
            self.file.x_queue(txn, records.chain(commit))
        })
    }
}

/// One well-formed log line after its txid, borrowing its tokens from the
/// log image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record<'a> {
    /// `P <txid> <key> <value> ;`
    Put(&'a str, &'a str),
    /// `D <txid> <key> ;`
    Delete(&'a str),
    /// `C <txid> ;`
    Commit,
}

/// The one parser of the log format: every non-empty line of `bytes`, in
/// log order, as its txid and record — `None` for a line that is not a
/// well-formed record (a crash hole, a torn tail). [`recover`] and the KV
/// store's reopen both read the log through it, in one pass over the bytes.
pub fn records(bytes: &[u8]) -> impl Iterator<Item = Option<(u64, Record<'_>)>> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        rest = &rest[rest.iter().position(|&b| b != b'\n')?..];
        let parsed = parse_record(rest);
        let line_end = || rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        rest = parsed.map_or_else(|| &rest[line_end()..], |(.., after)| after);
        Some(parsed.map(|(txid, record, _)| (txid, record)))
    })
}

/// The record `bytes` start with, if it ends their first line, and what
/// follows it: the kind, the txid, each token (ASCII token bytes), ` ;`.
fn parse_record(bytes: &[u8]) -> Option<(u64, Record<'_>, &[u8])> {
    let [kind, b' ', rest @ ..] = bytes else { return None };
    let rest = rest.strip_prefix(b"+").unwrap_or(rest);
    let (digits, mut rest) = rest.split_at(rest.iter().take_while(|b| b.is_ascii_digit()).count());
    let txid =
        digits.iter().try_fold(0u64, |n, &d| n.checked_mul(10)?.checked_add((d - b'0').into()));
    let mut token = || {
        let tail = rest.strip_prefix(b" ")?;
        let token;
        (token, rest) = tail.split_at(tail.iter().take_while(|&&b| token_byte(b)).count());
        std::str::from_utf8(token).ok().filter(|t| !t.is_empty())
    };
    let record = match kind {
        b'P' => Record::Put(token()?, token()?),
        b'D' => Record::Delete(token()?),
        b'C' => Record::Commit,
        _ => return None,
    };
    let after = rest.strip_prefix(b" ;").filter(|after| after.first().is_none_or(|&b| b == b'\n'));
    Some((txid.filter(|_| !digits.is_empty())?, record, after?))
}

/// What recovery reconstructed from a (possibly crash-torn) log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Transaction ids with a durable, well-formed commit marker.
    pub committed: BTreeSet<u64>,
    /// Every well-formed record (puts *and* deletes) per transaction id,
    /// in log order, including transactions without a commit marker —
    /// replaying the committed ones in txid order rebuilds the map.
    pub ops: BTreeMap<u64, Vec<WalOp>>,
    /// Non-empty lines that failed to parse — crash holes, torn tails.
    pub skipped_lines: usize,
    /// One past the highest txid seen in any well-formed record.
    pub next_txid: u64,
}

/// Read the log's current (post-crash) contents: which transactions
/// committed and every well-formed record, skipping unparseable lines.
pub fn recover(file: &SimFile) -> Recovery {
    let bytes = file.read_all();
    let mut rec = Recovery { next_txid: 1, ..Recovery::default() };
    for record in records(&bytes) {
        let Some((txid, record)) = record else {
            rec.skipped_lines += 1;
            continue;
        };
        rec.next_txid = rec.next_txid.max(txid + 1);
        let op = match record {
            Record::Put(k, v) => WalOp::Put(k.to_owned(), v.to_owned()),
            Record::Delete(k) => WalOp::Delete(k.to_owned()),
            Record::Commit => {
                rec.committed.insert(txid);
                continue;
            }
        };
        rec.ops.entry(txid).or_default().push(op);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_stm::{atomic, TxnError};

    fn puts(pairs: &[(&str, &str)]) -> Vec<WalOp> {
        pairs.iter().map(|(k, v)| WalOp::Put((*k).to_owned(), (*v).to_owned())).collect()
    }

    fn log_one(wal: &Wal, txid: u64, pairs: &[(&str, &str)]) {
        atomic(|txn| wal.x_log_ops(txn, txid, &puts(pairs)));
    }

    #[test]
    fn committed_transactions_replay_in_txid_order() {
        let fs = SimFs::new();
        let wal = Wal::open(&fs, "wal", WalVariant::Fixed);
        log_one(&wal, 1, &[("k", "old"), ("a", "a1")]);
        log_one(&wal, 2, &[("k", "new")]);
        let rec = recover(wal.file().file());
        assert_eq!(rec.committed, BTreeSet::from([1, 2]));
        assert_eq!(rec.ops[&1], puts(&[("k", "old"), ("a", "a1")]));
        assert_eq!(rec.ops[&2], puts(&[("k", "new")]));
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.next_txid, 3);
    }

    #[test]
    fn deletes_replay_in_txid_order_and_uncommitted_deletes_are_ignored() {
        let fs = SimFs::new();
        let wal = Wal::open(&fs, "wal", WalVariant::Fixed);
        log_one(&wal, 1, &[("a", "a1"), ("b", "b1")]);
        let batch = [WalOp::Delete("a".to_owned()), WalOp::Put("c".to_owned(), "c2".to_owned())];
        atomic(|txn| wal.x_log_ops(txn, 2, &batch));
        // Uncommitted delete of `b`, as a crash mid-protocol would leave.
        wal.file().file().append(b"D 3 b ;\n");
        let rec = recover(wal.file().file());
        assert_eq!(rec.committed, BTreeSet::from([1, 2]));
        assert_eq!(rec.ops[&2], batch);
        assert_eq!(rec.ops[&3], [WalOp::Delete("b".to_owned())]);
        assert_eq!(rec.next_txid, 4);
    }

    #[test]
    fn records_without_commit_marker_are_not_applied() {
        let fs = SimFs::new();
        let wal = Wal::open(&fs, "wal", WalVariant::Fixed);
        log_one(&wal, 1, &[("a", "a1")]);
        // Hand-write an uncommitted record, as a crash mid-protocol would
        // leave behind.
        wal.file().file().append(b"P 2 b b2 ;\n");
        let rec = recover(wal.file().file());
        assert_eq!(rec.committed, BTreeSet::from([1]));
        assert_eq!(rec.ops[&2], puts(&[("b", "b2")]));
    }

    #[test]
    fn cancelled_txns_leave_no_trace() {
        let fs = SimFs::new();
        let wal = Wal::open(&fs, "wal", WalVariant::Fixed);
        log_one(&wal, 1, &[("a", "a1")]);
        let res = Txn::build().try_run(|txn| {
            wal.x_log_ops(txn, 2, &puts(&[("a", "poison")]))?;
            txn.cancel::<()>()
        });
        assert!(matches!(res, Err(TxnError::Cancelled)), "{res:?}");
        let rec = recover(wal.file().file());
        assert_eq!(rec.committed, BTreeSet::from([1]));
        assert!(!rec.ops.contains_key(&2), "no record bytes at all");
    }

    #[test]
    fn torn_and_garbage_lines_are_skipped_not_misparsed() {
        let fs = SimFs::new();
        let f = fs.open_or_create("wal");
        f.append(b"P 1 a a1 ;\nC 1 ;\n");
        f.append(b"P 2 b b2"); // torn tail: no terminator, no newline
        let rec = recover(&f);
        assert_eq!(rec.committed, BTreeSet::from([1]));
        assert_eq!(rec.ops.len(), 1);
        assert_eq!(rec.skipped_lines, 1);
        // A crash hole (zero bytes) can never be a valid record either.
        let g = fs.open_or_create("wal2");
        g.append(b"C 9 ;\n");
        g.append(&[0u8; 16]);
        g.append(b"\nP 9 x x9 ;\n");
        let rec = recover(&g);
        assert_eq!(rec.committed, BTreeSet::from([9]));
        assert_eq!(rec.skipped_lines, 1);
    }
}
