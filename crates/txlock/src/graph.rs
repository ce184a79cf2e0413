//! The global wait-for graph.
//!
//! Nodes are threads and locks; an edge `thread → lock` means the thread is
//! blocked acquiring the lock, and `lock → thread` means the thread owns
//! the lock. A cycle through these edges is a deadlock. The graph also
//! tracks which threads are currently executing an abortable transaction,
//! so the detector can resolve a deadlock by *preempting* a transaction
//! (paper Recipe 3) instead of reporting an unrecoverable error.
//!
//! Only *blocked* acquisitions touch the graph: lock ownership is read on
//! demand from the lock objects themselves (via [`OwnerQuery`]), and a
//! transaction joins the abortable set the first time one of its
//! acquisitions blocks (every member of a wait-for cycle is blocked, so
//! victim selection misses none; `enlist_preemptible`, which picks a
//! priority up front, is the one eager registration). Uncontended
//! lock/unlock, plain or transactional, stays free of global state —
//! essential for the Recipe 3 benchmarks, whose whole point is that the
//! common path keeps plain-lock performance.

use crate::thread_id::ThreadToken;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Weak;
use txfix_stm::KillHandle;

/// Identity of a lock registered with the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct LockId(pub(crate) u64);

/// How the detector reads a lock's current owner on demand.
pub(crate) trait OwnerQuery: Send + Sync {
    fn current_owner(&self) -> Option<ThreadToken>;
    fn lock_name(&self) -> &str;
}

#[derive(Default)]
struct GraphState {
    locks: HashMap<LockId, Weak<dyn OwnerQuery>>,
    waits_for: HashMap<ThreadToken, LockId>,
    /// Threads currently inside an abortable transaction that acquires
    /// revocable locks, keyed by thread.
    txns: HashMap<ThreadToken, TxnEntry>,
}

struct TxnEntry {
    kill: KillHandle,
    /// Lower value = preferred victim (paper: preempt the low-priority or
    /// infrequently run thread).
    priority: i32,
}

/// What the detector decided about a blocked acquisition.
#[derive(Debug)]
pub(crate) enum CycleResolution {
    /// No cycle; keep waiting.
    NoCycle,
    /// A cycle exists and the *calling* thread is the chosen victim: it
    /// must abort its transaction (releasing its revocable locks).
    SelfVictim,
    /// A cycle exists and another thread was killed; keep waiting — its
    /// abort will release the lock we need. The token is diagnostic (and
    /// asserted on in tests).
    OtherVictim(#[allow(dead_code)] ThreadToken),
    /// A cycle exists and no participant can be aborted: a true deadlock.
    Unresolvable(Vec<String>),
}

static GRAPH: Mutex<Option<GraphState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut GraphState) -> R) -> R {
    let mut g = GRAPH.lock();
    f(g.get_or_insert_with(GraphState::default))
}

pub(crate) fn register_lock(id: LockId, lock: Weak<dyn OwnerQuery>) {
    with_state(|s| {
        s.locks.insert(id, lock);
    });
}

pub(crate) fn unregister_lock(id: LockId) {
    with_state(|s| {
        s.locks.remove(&id);
    });
}

pub(crate) fn clear_wait(t: ThreadToken) {
    with_state(|s| {
        s.waits_for.remove(&t);
    });
}

/// Declare that `t` runs an abortable transaction holding or awaiting
/// revocable locks; `priority` orders victim selection (lower aborts
/// first). Keeps an existing registration (and its priority). Returns
/// `true` if a new registration was created.
pub(crate) fn register_txn_thread_if_new(t: ThreadToken, kill: KillHandle, priority: i32) -> bool {
    with_state(|s| match s.txns.entry(t) {
        std::collections::hash_map::Entry::Occupied(_) => false,
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(TxnEntry { kill, priority });
            true
        }
    })
}

/// Remove `t`'s transaction registration (on commit or abort).
pub(crate) fn unregister_txn_thread(t: ThreadToken) {
    with_state(|s| {
        s.txns.remove(&t);
    });
}

/// Record that `t` blocks on `lock`, then look for a deadlock cycle and
/// resolve it if possible.
pub(crate) fn block_and_check(t: ThreadToken, lock: LockId) -> CycleResolution {
    with_state(|s| {
        s.waits_for.insert(t, lock);
        let Some(cycle_threads) = find_cycle(s, t, lock) else {
            return CycleResolution::NoCycle;
        };

        // Victim selection: the abortable transaction with the lowest
        // priority among cycle participants; prefer self on ties so the
        // thread that *can* abort does so promptly (Recipe 3 semantics).
        let mut victim: Option<(ThreadToken, i32)> = None;
        for &ct in &cycle_threads {
            if let Some(e) = s.txns.get(&ct) {
                let better = match victim {
                    None => true,
                    Some((vt, vp)) => e.priority < vp || (e.priority == vp && ct == t && vt != t),
                };
                if better {
                    victim = Some((ct, e.priority));
                }
            }
        }

        match victim {
            Some((vt, _)) if vt == t => {
                s.waits_for.remove(&t);
                CycleResolution::SelfVictim
            }
            Some((vt, _)) => {
                if let Some(e) = s.txns.get(&vt) {
                    e.kill.kill();
                }
                CycleResolution::OtherVictim(vt)
            }
            None => {
                let desc = describe_cycle(s, &cycle_threads);
                s.waits_for.remove(&t);
                CycleResolution::Unresolvable(desc)
            }
        }
    })
}

fn owner_of(s: &GraphState, lock: LockId) -> Option<ThreadToken> {
    s.locks.get(&lock)?.upgrade()?.current_owner()
}

/// Threads forming the cycle that passes through (`start` → `first_lock`),
/// if one exists.
fn find_cycle(s: &GraphState, start: ThreadToken, first_lock: LockId) -> Option<Vec<ThreadToken>> {
    let mut path = vec![start];
    let mut lock = first_lock;
    // Bounded walk: each step moves to a distinct thread.
    for _ in 0..s.waits_for.len() + 2 {
        let owner = owner_of(s, lock)?;
        if owner == start {
            return Some(path);
        }
        if path.contains(&owner) {
            // A cycle exists but does not pass through `start`; not ours to
            // resolve (the threads in it will detect it themselves).
            return None;
        }
        path.push(owner);
        lock = *s.waits_for.get(&owner)?;
    }
    None
}

fn describe_cycle(s: &GraphState, threads: &[ThreadToken]) -> Vec<String> {
    threads
        .iter()
        .map(|t| {
            let name = s
                .waits_for
                .get(t)
                .and_then(|l| s.locks.get(l))
                .and_then(Weak::upgrade)
                .map(|l| l.lock_name().to_owned())
                .unwrap_or_else(|| "?".to_owned());
            format!("{t} -> lock \"{name}\"")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct MockLock {
        name: String,
        owner: PlMutex<Option<ThreadToken>>,
    }

    impl OwnerQuery for MockLock {
        fn current_owner(&self) -> Option<ThreadToken> {
            *self.owner.lock()
        }
        fn lock_name(&self) -> &str {
            &self.name
        }
    }

    static NEXT_TEST_LOCK: AtomicU64 = AtomicU64::new(u64::MAX / 2);

    fn mock(name: &str, owner: Option<ThreadToken>) -> (LockId, Arc<MockLock>) {
        let id = LockId(NEXT_TEST_LOCK.fetch_add(1, Ordering::Relaxed));
        let l = Arc::new(MockLock { name: name.to_owned(), owner: PlMutex::new(owner) });
        let weak: Weak<dyn OwnerQuery> = Arc::downgrade(&l) as Weak<dyn OwnerQuery>;
        register_lock(id, weak);
        (id, l)
    }

    fn t(n: u64) -> ThreadToken {
        ThreadToken::from_raw(n).expect("test tokens are non-zero")
    }

    fn cleanup(ids: &[LockId], threads: &[ThreadToken]) {
        for id in ids {
            unregister_lock(*id);
        }
        for th in threads {
            clear_wait(*th);
            unregister_txn_thread(*th);
        }
    }

    #[test]
    fn no_cycle_on_simple_block() {
        let a = t(9_000_001);
        let me = t(9_000_002);
        let (l1, _k1) = mock("l1", Some(a));
        match block_and_check(me, l1) {
            CycleResolution::NoCycle => {}
            other => panic!("unexpected {other:?}"),
        }
        cleanup(&[l1], &[me, a]);
    }

    #[test]
    fn two_thread_cycle_is_unresolvable_without_txns() {
        let a = t(9_100_001);
        let b = t(9_100_002);
        let (la, _ka) = mock("la", Some(a));
        let (lb, _kb) = mock("lb", Some(b));
        with_state(|s| {
            s.waits_for.insert(b, la);
        });
        match block_and_check(a, lb) {
            CycleResolution::Unresolvable(desc) => {
                assert_eq!(desc.len(), 2);
                assert!(desc.iter().any(|d| d.contains("la") || d.contains("lb")));
            }
            other => panic!("unexpected {other:?}"),
        }
        cleanup(&[la, lb], &[a, b]);
    }

    #[test]
    fn transactional_participant_is_chosen_as_victim() {
        let a = t(9_200_001);
        let b = t(9_200_002);
        let (la, _ka) = mock("la", Some(a));
        let (lb, _kb) = mock("lb", Some(b));
        with_state(|s| {
            s.waits_for.insert(b, la);
        });
        let kill = txfix_stm::atomic(|txn| Ok(txn.kill_handle()));
        register_txn_thread_if_new(b, kill.clone(), 0);
        match block_and_check(a, lb) {
            CycleResolution::OtherVictim(v) => {
                assert_eq!(v, b);
                assert!(kill.is_killed());
            }
            other => panic!("unexpected {other:?}"),
        }
        cleanup(&[la, lb], &[a, b]);
    }

    #[test]
    fn self_victim_when_caller_is_the_abortable_txn() {
        let a = t(9_300_001);
        let b = t(9_300_002);
        let (la, _ka) = mock("la", Some(a));
        let (lb, _kb) = mock("lb", Some(b));
        with_state(|s| {
            s.waits_for.insert(b, la);
        });
        let kill = txfix_stm::atomic(|txn| Ok(txn.kill_handle()));
        register_txn_thread_if_new(a, kill, 0);
        match block_and_check(a, lb) {
            CycleResolution::SelfVictim => {}
            other => panic!("unexpected {other:?}"),
        }
        cleanup(&[la, lb], &[a, b]);
    }

    #[test]
    fn lower_priority_txn_is_preferred_victim() {
        let a = t(9_400_001);
        let b = t(9_400_002);
        let (la, _ka) = mock("la", Some(a));
        let (lb, _kb) = mock("lb", Some(b));
        with_state(|s| {
            s.waits_for.insert(b, la);
        });
        let kill_a = txfix_stm::atomic(|txn| Ok(txn.kill_handle()));
        let kill_b = txfix_stm::atomic(|txn| Ok(txn.kill_handle()));
        register_txn_thread_if_new(a, kill_a.clone(), 5);
        register_txn_thread_if_new(b, kill_b.clone(), 1);
        match block_and_check(a, lb) {
            CycleResolution::OtherVictim(v) => {
                assert_eq!(v, b, "lower-priority txn should be the victim");
                assert!(kill_b.is_killed());
                assert!(!kill_a.is_killed());
            }
            other => panic!("unexpected {other:?}"),
        }
        cleanup(&[la, lb], &[a, b]);
    }

    #[test]
    fn dropped_lock_breaks_the_walk() {
        let a = t(9_500_001);
        let me = t(9_500_002);
        let (l1, keeper) = mock("l1", Some(a));
        drop(keeper); // weak ref dies → owner unknown → no cycle
        match block_and_check(me, l1) {
            CycleResolution::NoCycle => {}
            other => panic!("unexpected {other:?}"),
        }
        cleanup(&[l1], &[me, a]);
    }

    #[test]
    fn uncontended_transactional_acquire_never_touches_the_graph() {
        let m = Arc::new(crate::TxMutex::new("graph_free", 0u32));
        let m2 = m.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let held = GRAPH.lock();
        let worker = std::thread::spawn(move || {
            (0..1000).for_each(|_| txfix_stm::atomic(|txn| m2.with_tx(txn, |v| *v += 1)));
            done_tx.send(()).unwrap();
        });
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(20));
        drop(held);
        worker.join().unwrap();
        finished.expect("a fast-path lock_tx blocked on the wait-for graph's mutex");
        assert_eq!(*m.lock().unwrap(), 1000);
    }
}
