//! The TM-fixed object stores.
//!
//! [`StmStore`] is the Recipe 1 fix: `setSlotLock`, scope locks and the
//! ownership protocol are *deleted* and every slot access becomes an
//! atomic region ("deprecating the notion of ownership, and thus
//! eliminating the complex revocation protocol", §5.4.1). It runs on the
//! native STM, so it pays the runtime's real per-access validation cost;
//! [`HwModelStore`] models the same fix on hardware TM.
//!
//! [`PreemptStore`] is the Recipe 3 fix: the locks stay (as revocable
//! [`TxMutex`]es), the common path is untouched lock/unlock, and only the
//! deadlock-prone cross-object site runs inside a preemptible transaction.

use super::store::ObjectStore;
use std::fmt;
use txfix_core::preemptible;
use txfix_stm::{TVar, Txn, TxnBuilder};
use txfix_txlock::TxMutex;

/// Recipe 1: all synchronization replaced by atomic regions.
pub struct StmStore {
    objects: Vec<Vec<TVar<i64>>>,
    txn: TxnBuilder,
}

impl fmt::Debug for StmStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StmStore").field("objects", &self.objects.len()).finish()
    }
}

impl StmStore {
    /// Create a store of `objects` objects with `slots` slots each.
    pub fn new(objects: usize, slots: usize) -> StmStore {
        StmStore {
            objects: (0..objects).map(|_| (0..slots).map(|_| TVar::new(0)).collect()).collect(),
            txn: Txn::build().site("spidermonkey_stm"),
        }
    }
}

impl ObjectStore for StmStore {
    fn set_slot(&self, _thread: usize, obj: usize, slot: usize, value: i64) {
        let v = &self.objects[obj][slot];
        self.txn.try_run(|txn| v.write(txn, value)).expect("slot write cannot fail");
    }

    fn get_slot(&self, _thread: usize, obj: usize, slot: usize) -> i64 {
        let v = &self.objects[obj][slot];
        self.txn.try_run(|txn| v.read(txn)).expect("slot read cannot fail").0
    }

    fn move_slot(&self, _thread: usize, src: usize, dst: usize, slot: usize) -> bool {
        let s = &self.objects[src][slot];
        let d = &self.objects[dst][slot];
        self.txn
            .try_run(|txn| {
                let v = s.read(txn)?;
                if v != 0 {
                    s.write(txn, 0)?;
                    d.write(txn, v)?;
                }
                Ok(())
            })
            .expect("move cannot fail");
        true
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn variant_name(&self) -> &'static str {
        "tm-replace (recipe 1)"
    }
}

/// The hardware-TM datapoint of §5.4.1: the same Recipe 1 fix, with the
/// hardware modelled as tracking conflicts for free. Slot accesses are
/// plain atomic loads/stores (single-location transactions a real HTM
/// retires at cache speed) and the cross-object move is a short critical
/// section standing in for a two-line hardware transaction. This is
/// Table 4's only modelled row: every other TM figure is a native run.
pub struct HwModelStore {
    objects: Vec<Vec<std::sync::atomic::AtomicI64>>,
    move_lock: parking_lot::Mutex<()>,
}

impl fmt::Debug for HwModelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HwModelStore").field("objects", &self.objects.len()).finish()
    }
}

impl HwModelStore {
    /// Create a store of `objects` objects with `slots` slots each.
    pub fn new(objects: usize, slots: usize) -> HwModelStore {
        use std::sync::atomic::AtomicI64;
        HwModelStore {
            objects: (0..objects)
                .map(|_| (0..slots).map(|_| AtomicI64::new(0)).collect())
                .collect(),
            move_lock: parking_lot::Mutex::new(()),
        }
    }
}

/// Per-access begin/commit cost of a hardware transaction: a full fence,
/// standing in for the register-checkpoint/commit work (tens of cycles,
/// per the LogTM-SE literature).
#[inline]
fn hw_txn_cost() {
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
}

impl ObjectStore for HwModelStore {
    fn set_slot(&self, _thread: usize, obj: usize, slot: usize, value: i64) {
        hw_txn_cost();
        self.objects[obj][slot].store(value, std::sync::atomic::Ordering::Release);
    }

    fn get_slot(&self, _thread: usize, obj: usize, slot: usize) -> i64 {
        hw_txn_cost();
        self.objects[obj][slot].load(std::sync::atomic::Ordering::Acquire)
    }

    fn move_slot(&self, _thread: usize, src: usize, dst: usize, slot: usize) -> bool {
        use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
        let _g = self.move_lock.lock();
        let v = self.objects[src][slot].swap(0, AcqRel);
        if v != 0 {
            self.objects[dst][slot].store(v, Release);
        } else {
            // keep dst as-is
            let _ = self.objects[dst][slot].load(Acquire);
        }
        true
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn variant_name(&self) -> &'static str {
        "tm-replace (hardware model)"
    }
}

/// Recipe 3: keep per-object locks, make them revocable, and run only the
/// deadlock-prone cross-object operation inside a preemptible transaction.
pub struct PreemptStore {
    set_slot_lock: TxMutex<()>,
    objects: Vec<TxMutex<Vec<i64>>>,
}

impl fmt::Debug for PreemptStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreemptStore").field("objects", &self.objects.len()).finish()
    }
}

impl PreemptStore {
    /// Create a store of `objects` objects with `slots` slots each.
    pub fn new(objects: usize, slots: usize) -> PreemptStore {
        PreemptStore {
            set_slot_lock: TxMutex::new("sm.setSlotLock", ()),
            objects: (0..objects)
                .map(|i| {
                    // Leak a tiny name string once per object; object stores are
                    // created a handful of times per process (benchmark setup).
                    let name: &'static str = Box::leak(format!("sm.scope[{i}]").into_boxed_str());
                    TxMutex::new(name, vec![0; slots])
                })
                .collect(),
        }
    }
}

impl ObjectStore for PreemptStore {
    fn set_slot(&self, _thread: usize, obj: usize, slot: usize, value: i64) {
        // Common path: plain (non-transactional) lock, as before the fix.
        let mut g = self.objects[obj].lock().expect("single-lock path cannot cycle");
        g[slot] = value;
    }

    fn get_slot(&self, _thread: usize, obj: usize, slot: usize) -> i64 {
        let g = self.objects[obj].lock().expect("single-lock path cannot cycle");
        g[slot]
    }

    fn move_slot(&self, _thread: usize, src: usize, dst: usize, slot: usize) -> bool {
        // The one deadlock-prone site, wrapped per Recipe 3: locks acquired
        // revocably inside an abortable transaction; a cycle preempts us,
        // releases the locks, backs off and retries.
        preemptible(|txn| {
            // Acquisition phase: every lock_tx is an abort point and may
            // preempt us (releasing what we hold).
            self.set_slot_lock.lock_tx(txn)?;
            self.objects[src].lock_tx(txn)?;
            self.objects[dst].lock_tx(txn)?;
            // Mutation phase: all locks held, no abort points — safe even
            // though lock-protected data is not isolated by the STM.
            let v = self.objects[src].with_held(|s| {
                let v = s[slot];
                s[slot] = 0;
                v
            });
            if v != 0 {
                self.objects[dst].with_held(|d| d[slot] = v);
            }
            Ok(())
        })
        .expect("preemptible move cannot fail terminally");
        true
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn variant_name(&self) -> &'static str {
        "tm-preempt (recipe 3)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ObjectStore) {
        store.set_slot(0, 0, 0, 11);
        assert_eq!(store.get_slot(0, 0, 0), 11);
        assert!(store.move_slot(0, 0, 1, 0));
        assert_eq!(store.get_slot(0, 1, 0), 11);
        assert_eq!(store.get_slot(0, 0, 0), 0);
    }

    #[test]
    fn stm_store_basics() {
        exercise(&StmStore::new(2, 2));
    }

    #[test]
    fn preempt_store_basics() {
        exercise(&PreemptStore::new(2, 2));
    }

    #[test]
    fn concurrent_movers_never_deadlock_or_lose_values() {
        // Two threads move a token back and forth between the same pair of
        // objects in opposite directions: the classic cycle. Preemption
        // must resolve every collision.
        let store = PreemptStore::new(2, 1);
        store.set_slot(0, 0, 0, 1);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let store = &store;
                s.spawn(move || {
                    for _ in 0..200 {
                        store.move_slot(t, t, 1 - t, 0);
                    }
                });
            }
        });
        let total = store.get_slot(0, 0, 0) + store.get_slot(0, 1, 0);
        assert_eq!(total, 1, "token duplicated or lost");
    }

    #[test]
    fn hw_model_store_basics_and_conservation() {
        exercise(&HwModelStore::new(2, 2));
        let store = HwModelStore::new(2, 1);
        store.set_slot(0, 0, 0, 1);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let store = &store;
                s.spawn(move || {
                    for _ in 0..300 {
                        store.move_slot(t, t, 1 - t, 0);
                    }
                });
            }
        });
        let total = store.get_slot(0, 0, 0) + store.get_slot(0, 1, 0);
        assert_eq!(total, 1, "token duplicated or lost in the hardware model");
    }

    #[test]
    fn stm_store_conserves_token_under_contention() {
        let store = StmStore::new(2, 1);
        store.set_slot(0, 0, 0, 1);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let store = &store;
                s.spawn(move || {
                    for _ in 0..300 {
                        store.move_slot(t, t, 1 - t, 0);
                    }
                });
            }
        });
        let total = store.get_slot(0, 0, 0) + store.get_slot(0, 1, 0);
        assert_eq!(total, 1);
    }
}
