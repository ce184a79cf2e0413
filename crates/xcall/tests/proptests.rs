//! Property tests for the transactional I/O layer: deferred and
//! compensated operations must be exact inverses under arbitrary
//! commit/abort sequences.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use txfix_stm::atomic;
use txfix_xcall::{SimFs, SimPipe, XFile, XPipe};

#[derive(Clone, Debug)]
enum FileOp {
    Append(Vec<u8>),
    Sync,
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..16).prop_map(FileOp::Append),
        Just(FileOp::Sync),
    ]
}

/// Apply `op` to the expected `(cached, durable)` images.
fn apply_direct((cached, durable): &mut (Vec<u8>, Vec<u8>), op: &FileOp) {
    match op {
        FileOp::Append(b) => cached.extend_from_slice(b),
        FileOp::Sync => durable.clone_from(cached),
    }
}

proptest! {
    /// Committed transactions apply their ops exactly once and in order,
    /// each sync making durable exactly the appends queued before it;
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
        let mut expect = (Vec::new(), Vec::new());

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
                        FileOp::Sync => xf.x_sync(txn)?,
                    }
                }
                if *abort_first && n == 0 {
                    return txn.restart();
                }
                Ok(())
            });
        }
        prop_assert_eq!((xf.file().read_all(), xf.file().durable_snapshot()), expect);
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
        let got = pipe.try_read(expect.len()).unwrap();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(pipe.buffered(), 0);
    }
}
