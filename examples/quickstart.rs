//! Quickstart: the transactional-memory toolbox in five minutes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks through the substrate the paper's fixes are built from: atomic
//! regions over `TVar`s, blocking `retry`, revocable locks with deadlock
//! preemption, and transactional (deferred) file I/O.

use std::sync::Arc;
use txfix::stm::{atomic, TVar};
use txfix::tmsync::guard;
use txfix::txlock::TxMutex;
use txfix::xcall::{SimFs, XFile};

fn main() {
    // 1. Atomic regions: multi-variable invariants without picking a lock.
    let checking = TVar::new(100i64);
    let savings = TVar::new(0i64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (c, v) = (checking.clone(), savings.clone());
            s.spawn(move || {
                for _ in 0..250 {
                    atomic(|txn| {
                        let x = c.read(txn)?;
                        let y = v.read(txn)?;
                        c.write(txn, x - 1)?;
                        v.write(txn, y + 1)
                    });
                }
            });
        }
    });
    assert_eq!(checking.load() + savings.load(), 100);
    println!("1. bank invariant conserved: {} + {} = 100", checking.load(), savings.load());

    // 2. retry: block until another transaction changes what you read.
    let stock = TVar::new(0u32);
    std::thread::scope(|s| {
        let stock2 = stock.clone();
        s.spawn(move || {
            let got = atomic(|txn| {
                let n = stock2.read(txn)?;
                guard(txn, n > 0)?; // aborts and sleeps until `stock` changes
                stock2.write(txn, n - 1)?;
                Ok(n)
            });
            println!("2. consumer woke up and took one of {got} items");
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        stock.store(3); // wakes the retry
    });
    assert_eq!(stock.load(), 2);

    // 3. Revocable locks: acquired inside a transaction, released
    //    automatically if it aborts — deadlock becomes a retry, not a hang.
    let a = Arc::new(TxMutex::new("demo.a", 0u64));
    let b = Arc::new(TxMutex::new("demo.b", 0u64));
    std::thread::scope(|s| {
        for t in 0..2usize {
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..100 {
                    // Opposite acquisition orders — the classic AB-BA bug —
                    // but preemption resolves every collision.
                    txfix::recipes::preemptible(|txn| {
                        let (first, second) = if t == 0 { (&a, &b) } else { (&b, &a) };
                        first.lock_tx(txn)?;
                        second.lock_tx(txn)?;
                        first.with_held(|v| *v += 1);
                        second.with_held(|v| *v += 1);
                        Ok(())
                    })
                    .expect("preemptible section");
                }
            });
        }
    });
    println!("3. AB-BA storm survived: a = {}, b = {}", *a.lock().unwrap(), *b.lock().unwrap());

    // 4. Transactional I/O: file writes are deferred to commit, so an
    //    aborted transaction leaves no trace in the file.
    let fs = SimFs::new();
    let log = XFile::open_or_create(&fs, "quickstart.log");
    let log2 = log.clone();
    let mut first_attempt = true;
    atomic(move |txn| {
        log2.x_append(txn, b"attempt!\n")?;
        if first_attempt {
            first_attempt = false;
            return txn.restart(); // discard the buffered append, run again
        }
        Ok(())
    });
    assert_eq!(log.file().read_all(), b"attempt!\n");
    println!("4. exactly one committed append despite the aborted attempt");
}
