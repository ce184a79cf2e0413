//! Deferred reclamation on real threads: readers dereference a `TVar`'s
//! committed value without a lock while writers swap it out, so a value
//! freed too early is a use after free that only real threads (and, to
//! see it for certain, AddressSanitizer) show. Readers check a heap
//! payload's invariant inside `read_with`'s closure while writers commit
//! and store; short-lived threads reuse their slots and hand their
//! leftovers on; and every retired value is freed exactly once.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use txfix_stm::{atomic, reclaim, TVar};

const DEADLINE: Duration = Duration::from_secs(20);

/// The two tests run one at a time: a window held open in one would pin
/// every value the other retires.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A heap payload with an invariant: `items[i] == items[0] + i`. Its
/// `Drop` zeroes the items first, so a reader that sees a dropped payload
/// sees the invariant broken even where freed memory is not poisoned.
struct Payload {
    items: Vec<u64>,
}

const ITEMS: usize = 64;

impl Payload {
    fn new(seed: u64) -> Payload {
        Payload { items: (0..ITEMS as u64).map(|i| seed * 1000 + i).collect() }
    }

    fn whole(&self) -> bool {
        self.items.len() == ITEMS && self.items.iter().zip(self.items[0]..).all(|(&x, i)| x == i)
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.items.iter_mut().for_each(|x| *x = 0);
    }
}

#[test]
fn readers_see_whole_payloads_while_writers_commit_and_store() {
    let _serial = one_at_a_time();
    let vars: Vec<TVar<Payload>> = (0..4).map(|i| TVar::new(Payload::new(i + 1))).collect();
    let broken = AtomicUsize::new(0);
    let reads = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let (vars, stop) = (&vars, &stop);
            s.spawn(move || {
                let mut seed = 10 + w;
                while !stop.load(Ordering::Relaxed) {
                    seed += 2;
                    let (a, b) = (&vars[(seed % 4) as usize], &vars[((seed + 1) % 4) as usize]);
                    atomic(|txn| {
                        a.write(txn, Payload::new(seed))?;
                        b.write(txn, Payload::new(seed + 1))
                    });
                    vars[(seed % 4) as usize].store(Payload::new(seed + 7));
                }
            });
        }
        for r in 0..2usize {
            let (vars, broken, reads) = (&vars, &broken, &reads);
            s.spawn(move || {
                for i in 0..20_000usize {
                    let v = &vars[(i + r) % 4];
                    let whole = atomic(|txn| v.read_with(txn, Payload::whole));
                    let loaded = v.load_arc().whole();
                    if !whole || !loaded {
                        broken.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        while reads.load(Ordering::Relaxed) < 40_000 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(broken.into_inner(), 0, "a reader saw a payload that was being freed");
}

/// A payload that counts its own drops.
struct Counted(Arc<AtomicU32>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Every payload made, by id, with its drop count.
#[derive(Default)]
struct Ledger(Mutex<Vec<Arc<AtomicU32>>>);

impl Ledger {
    fn payload(&self) -> Counted {
        let drops = Arc::new(AtomicU32::new(0));
        self.0.lock().unwrap().push(drops.clone());
        Counted(drops)
    }

    /// Drop counts in the order the payloads were made.
    fn drops(&self) -> Vec<u32> {
        self.0.lock().unwrap().iter().map(|d| d.load(Ordering::SeqCst)).collect()
    }

    /// How many payloads were made and how many of them were dropped.
    fn made_and_dropped(&self) -> (usize, usize) {
        let drops = self.drops();
        (drops.len(), drops.iter().filter(|&&d| d > 0).count())
    }
}

/// 200 short-lived threads, four at a time, each commits and stores a few
/// values while a reader holds a window open: none of their retired values
/// can be freed while it does, so each thread hands its leftovers to the
/// global list when it exits, and the next threads reuse the slots. Once
/// the reader leaves, commits on this thread drain the list: every value
/// any thread made is dropped exactly once (an aborted attempt's buffered
/// value at once, a retired one by a pass, a current one with its `TVar`).
#[test]
fn short_lived_threads_reuse_slots_and_hand_off_their_leftovers() {
    const THREADS: usize = 200;
    const WRITES: usize = 3;
    let _serial = one_at_a_time();
    let ledger = Arc::new(Ledger::default());
    let vars: Vec<TVar<Counted>> = (0..4).map(|_| TVar::new(ledger.payload())).collect();

    let (in_f, reader_in_f) = channel();
    let (release, released) = channel::<()>();
    let reader = std::thread::spawn({
        let v = vars[0].clone();
        move || {
            atomic(|txn| {
                v.read_with(txn, |_| {
                    in_f.send(()).unwrap();
                    released.recv_timeout(DEADLINE).is_ok()
                })
            })
        }
    });
    reader_in_f.recv_timeout(DEADLINE).expect("the reader never entered f");

    let slots_before = reclaim::slots();
    for batch in 0..THREADS / 4 {
        // `join`, not a scope: a thread hands its leftovers over in a
        // thread-local destructor, which runs after a scope counts the
        // thread done but before `join` returns.
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (vars, ledger) = (vars.clone(), ledger.clone());
                std::thread::spawn(move || {
                    for k in 0..WRITES {
                        let v = &vars[(batch + t + k) % 4];
                        if k % 2 == 0 {
                            atomic(|txn| v.write(txn, ledger.payload()));
                        } else {
                            v.store(ledger.payload());
                        }
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().expect("a short-lived thread panicked"));
    }
    let grown = reclaim::slots() - slots_before;
    assert!(grown < 16, "{THREADS} short-lived threads made {grown} new slots");
    assert_eq!(ledger.drops()[0], 0, "the value a reader is inside was freed");
    let retired = THREADS * WRITES;
    assert!(
        reclaim::orphans() >= retired,
        "{} orphans for {retired} values retired by exited threads",
        reclaim::orphans()
    );

    release.send(()).unwrap();
    assert!(reader.join().unwrap(), "the reader was not released");
    let other = TVar::new(0u64);
    let current = vars.len();
    let unfreed = || {
        let (made, dropped) = ledger.made_and_dropped();
        made - current - dropped
    };
    let deadline = Instant::now() + DEADLINE;
    while unfreed() > 0 && Instant::now() < deadline {
        atomic(|txn| other.modify(txn, |x| x + 1));
    }
    assert_eq!(unfreed(), 0, "retired values left unfreed after quiescence");
    drop(vars);
    for (id, drops) in ledger.drops().into_iter().enumerate() {
        assert_eq!(drops, 1, "payload {id} was dropped {drops} times");
    }
}
