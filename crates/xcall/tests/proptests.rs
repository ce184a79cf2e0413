//! Property tests for the transactional I/O layer: deferred and
//! compensated operations must be exact inverses under arbitrary
//! commit/abort sequences.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use txfix_stm::atomic;
use txfix_xcall::{SimFs, SimPipe, XFile, XPipe};

#[derive(Clone, Debug)]
enum FileOp {
    Append(Vec<u8>),
    WriteAt(usize, Vec<u8>),
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..16).prop_map(FileOp::Append),
        (0usize..32, proptest::collection::vec(any::<u8>(), 1..8))
            .prop_map(|(o, b)| FileOp::WriteAt(o, b)),
    ]
}

fn apply_direct(state: &mut Vec<u8>, op: &FileOp) {
    match op {
        FileOp::Append(b) => state.extend_from_slice(b),
        FileOp::WriteAt(off, b) => {
            if state.len() < off + b.len() {
                state.resize(off + b.len(), 0);
            }
            state[*off..off + b.len()].copy_from_slice(b);
        }
    }
}

proptest! {
    /// Committed transactions apply their ops exactly once and in order;
    /// aborted attempts leave no trace — for any sequence of transactions
    /// each carrying any batch of operations, with arbitrary first-attempt
    /// aborts interleaved.
    #[test]
    fn file_history_matches_committed_prefix(
        txns in proptest::collection::vec(
            (proptest::collection::vec(file_op(), 0..6), any::<bool>()),
            0..10,
        ),
    ) {
        let fs = SimFs::new();
        let xf = XFile::open_or_create(&fs, "prop");
        let mut expect: Vec<u8> = Vec::new();

        for (ops, abort_first) in &txns {
            for op in ops {
                apply_direct(&mut expect, op);
            }
            let attempts = AtomicUsize::new(0);
            atomic(|txn| {
                let n = attempts.fetch_add(1, Ordering::SeqCst);
                for op in ops {
                    match op {
                        FileOp::Append(b) => xf.x_append(txn, b)?,
                        FileOp::WriteAt(o, b) => xf.x_write_at(txn, *o, b)?,
                    }
                }
                if *abort_first && n == 0 {
                    return txn.restart();
                }
                Ok(())
            });
        }
        prop_assert_eq!(xf.file().read_all(), expect);
    }

    /// The transactional view (`x_read_all`) equals committed content with
    /// the transaction's own pending ops applied.
    #[test]
    fn read_your_writes_view(
        committed in proptest::collection::vec(any::<u8>(), 0..24),
        pending in proptest::collection::vec(file_op(), 0..6),
    ) {
        let fs = SimFs::new();
        let xf = XFile::open_or_create(&fs, "view");
        xf.file().append(&committed);

        let mut expect = committed.clone();
        for op in &pending {
            apply_direct(&mut expect, op);
        }

        let view = atomic(|txn| {
            for op in &pending {
                match op {
                    FileOp::Append(b) => xf.x_append(txn, b)?,
                    FileOp::WriteAt(o, b) => xf.x_write_at(txn, *o, b)?,
                }
            }
            xf.x_read_all(txn)
        });
        prop_assert_eq!(view, expect);
    }

    /// Pipe reads are compensated exactly: aborting after consuming any
    /// prefix restores the stream byte-for-byte.
    #[test]
    fn pipe_compensation_is_exact(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        chunks in proptest::collection::vec(1usize..16, 1..6),
    ) {
        let pipe = SimPipe::new(256);
        pipe.write(&payload);
        let xp = XPipe::new(pipe.clone());

        // First attempt: consume a few chunks, then abort.
        let first = AtomicUsize::new(0);
        let drained = atomic(|txn| {
            let n = first.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                for &c in &chunks {
                    let _ = xp.x_try_read(txn, c)?;
                }
                return txn.restart();
            }
            // Second attempt: drain everything.
            let mut all = Vec::new();
            while let Some(mut b) = xp.x_try_read(txn, 16)? {
                all.append(&mut b);
            }
            Ok(all)
        });
        prop_assert_eq!(drained, payload);
        prop_assert_eq!(pipe.buffered(), 0);
    }

    /// Deferred pipe writes from a committed transaction arrive complete
    /// and in program order.
    #[test]
    fn deferred_pipe_writes_preserve_order(
        messages in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..8), 1..6),
    ) {
        let pipe = SimPipe::new(256);
        let xp = XPipe::new(pipe.clone());
        atomic(|txn| {
            for m in &messages {
                xp.x_write(txn, m)?;
            }
            Ok(())
        });
        let expect: Vec<u8> = messages.concat();
        let got = pipe.read(expect.len(), Duration::from_millis(200)).unwrap();
        prop_assert_eq!(got, expect);
    }
}
