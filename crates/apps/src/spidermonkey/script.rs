//! The SunSpider stand-in: a multi-threaded script workload over an
//! [`ObjectStore`].
//!
//! Paper §5.4.1 runs four threads executing the same SunSpider script:
//! "even if scripts do not share data, we are still able to exercise the
//! multithreaded code path because all threads run within the same
//! runtime". Accordingly the workload is dominated by thread-local object
//! accesses (where the ownership fast path shines and software-TM barriers
//! hurt), with occasional cross-object moves through the shared runtime
//! (the deadlock-prone path).

use super::store::ObjectStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptParams {
    /// Interpreter threads (the paper uses 4).
    pub threads: usize,
    /// Thread-local objects per thread.
    pub objects_per_thread: usize,
    /// Slots per object.
    pub slots: usize,
    /// Objects shared by all threads (the "runtime" objects).
    pub shared_objects: usize,
    /// Script operations per thread.
    pub iterations: u64,
    /// One cross-object move per this many local operations.
    pub cross_object_period: u64,
    /// Non-synchronization interpreter work per operation, in nanoseconds
    /// (busy-wait). Benchmarks set this so the synchronization fraction of
    /// the workload matches a property-access-heavy interpreter loop.
    pub compute_ns: u64,
}

impl Default for ScriptParams {
    fn default() -> Self {
        ScriptParams {
            threads: 4,
            objects_per_thread: 8,
            slots: 8,
            shared_objects: 4,
            iterations: 20_000,
            cross_object_period: 64,
            compute_ns: 0,
        }
    }
}

fn busy_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

impl ScriptParams {
    /// Total objects the store must provide for these parameters.
    pub fn total_objects(&self) -> usize {
        self.threads * self.objects_per_thread + self.shared_objects
    }

    /// Index of thread `t`'s `i`-th local object.
    pub fn local_object(&self, t: usize, i: usize) -> usize {
        t * self.objects_per_thread + (i % self.objects_per_thread)
    }

    /// Index of the `i`-th shared object.
    pub fn shared_object(&self, i: usize) -> usize {
        self.threads * self.objects_per_thread + (i % self.shared_objects)
    }
}

/// Outcome of a workload run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Total operations completed across threads.
    pub total_ops: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Throughput.
    pub ops_per_sec: f64,
    /// Cross-object moves abandoned (deadlock timeouts in the buggy
    /// ownership variant; always 0 for correct variants).
    pub abandoned: u64,
}

/// Run the script workload and measure throughput.
pub fn run_script_workload(store: &dyn ObjectStore, p: &ScriptParams) -> WorkloadResult {
    assert!(
        store.object_count() >= p.total_objects(),
        "store has {} objects but params need {}",
        store.object_count(),
        p.total_objects()
    );
    let abandoned = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..p.threads {
            let abandoned = &abandoned;
            s.spawn(move || {
                let mut acc: i64 = t as i64 + 1;
                for i in 0..p.iterations {
                    let obj = p.local_object(t, i as usize);
                    let slot = (i as usize) % p.slots;
                    // get / compute / set: the interpreter's inner loop.
                    let v = store.get_slot(t, obj, slot);
                    acc = acc.wrapping_mul(31).wrapping_add(v ^ i as i64);
                    busy_ns(p.compute_ns);
                    store.set_slot(t, obj, slot, acc & 0xffff);
                    if i % p.cross_object_period == p.cross_object_period - 1 {
                        // Touch the shared runtime: the contended path.
                        let shared = p.shared_object((i / p.cross_object_period) as usize + t);
                        if !store.move_slot(t, obj, shared, slot) {
                            abandoned.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // End of the script: release any thread-affine state so
                // late claimants are not stranded.
                store.quiesce(t);
            });
        }
    });
    let elapsed = start.elapsed();
    let total_ops = p.threads as u64 * p.iterations;
    WorkloadResult {
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        abandoned: abandoned.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spidermonkey::{OwnershipMode, OwnershipStore, PreemptStore, StmStore};

    fn small() -> ScriptParams {
        ScriptParams { threads: 2, iterations: 2_000, ..Default::default() }
    }

    #[test]
    fn params_index_math() {
        let p = ScriptParams::default();
        assert_eq!(p.total_objects(), 4 * 8 + 4);
        assert_eq!(p.local_object(1, 0), 8);
        assert!(p.shared_object(3) >= 32);
        assert!(p.shared_object(999) < p.total_objects());
    }

    #[test]
    fn workload_runs_on_dev_fix_without_abandonment() {
        let p = small();
        let store = OwnershipStore::new(OwnershipMode::DevFix, p.total_objects(), p.slots);
        let r = run_script_workload(&store, &p);
        assert_eq!(r.total_ops, 4_000);
        assert_eq!(r.abandoned, 0);
        assert!(r.ops_per_sec > 0.0);
    }

    #[test]
    fn workload_runs_on_tm_stores() {
        let p = small();
        let stm = StmStore::new(p.total_objects(), p.slots);
        assert_eq!(run_script_workload(&stm, &p).abandoned, 0);
        let pre = PreemptStore::new(p.total_objects(), p.slots);
        assert_eq!(run_script_workload(&pre, &p).abandoned, 0);
    }
}
