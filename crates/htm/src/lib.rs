//! # txfix-htm: a best-effort hardware TM model with hybrid fallback
//!
//! The paper's §5.4.1 runs the SpiderMonkey Recipe 1 fix on a simulated
//! LogTM-SE hardware TM. We have no TM hardware; this crate models the
//! part of it that changes control flow, on top of `txfix-stm`:
//!
//! - hardware transactions are native STM transactions with **bounded
//!   capacity**: a transaction reading or writing more distinct locations
//!   than the configured bound aborts with a capacity overflow, like any
//!   best-effort HTM;
//! - a [`FallbackPolicy`] decides what happens after repeated hardware
//!   failures: retry in software TM (the hybrid-TM design the paper cites
//!   [10, 13, 29]) or serialize under the global lock.
//!
//! No per-access cost is modelled: the hardware path costs what the
//! native STM costs. The Table 4 HTM row comes from `HwModelStore` in
//! `txfix-apps`, not from this crate.

#![warn(missing_docs)]

use txfix_stm::{StmResult, Txn, TxnError, TxnReport};

/// Capacity parameters of the modelled hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HtmConfig {
    /// Maximum distinct locations a hardware transaction may read
    /// (e.g. L1-sized read signatures).
    pub read_capacity: usize,
    /// Maximum distinct locations it may write.
    pub write_capacity: usize,
    /// Hardware attempts before engaging the fallback policy (covers
    /// transient conflict aborts as well as capacity overflows).
    pub max_hw_attempts: u64,
    /// What to do when hardware gives up.
    pub fallback: FallbackPolicy,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            read_capacity: 1024,
            write_capacity: 256,
            max_hw_attempts: 4,
            fallback: FallbackPolicy::SoftwareTm,
        }
    }
}

impl HtmConfig {
    /// Default configuration.
    pub fn new() -> HtmConfig {
        HtmConfig::default()
    }

    /// Set the read/write capacity bounds.
    pub fn capacity(mut self, reads: usize, writes: usize) -> Self {
        self.read_capacity = reads;
        self.write_capacity = writes;
        self
    }

    /// Set the number of hardware attempts before fallback.
    pub fn max_hw_attempts(mut self, n: u64) -> Self {
        self.max_hw_attempts = n.max(1);
        self
    }

    /// Set the fallback policy.
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }
}

/// Software path taken when the hardware gives up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Re-run as an unbounded software transaction — the hybrid-TM design.
    SoftwareTm,
    /// Re-run serialized under the global lock (irrevocable), like an STM
    /// that falls back to a single global lock.
    GlobalLock,
    /// Surface the failure to the caller.
    Fail,
}

/// How a [`hybrid_atomic`] call ultimately committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPath {
    /// Committed on the modelled hardware.
    Hardware,
    /// Fell back to software TM.
    SoftwareFallback,
    /// Fell back to global-lock serialization.
    GlobalLockFallback,
}

/// Outcome details of a hybrid transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridReport {
    /// Which path committed.
    pub path: CommitPath,
    /// Hardware attempts performed (0 if the body never ran in hardware).
    pub hw_attempts: u64,
    /// Report of the committing execution.
    pub inner: TxnReport,
}

/// Execute `body` as a hardware transaction, falling back per
/// `config.fallback` when capacity or contention defeats the hardware.
///
/// # Errors
///
/// - [`TxnError::Capacity`]/[`TxnError::RetryLimit`] with
///   [`FallbackPolicy::Fail`];
/// - [`TxnError::Cancelled`] if the body cancels on any path.
///
/// # Examples
///
/// ```
/// use txfix_htm::{hybrid_atomic, CommitPath, HtmConfig};
/// use txfix_stm::TVar;
///
/// let v = TVar::new(0u32);
/// let (_, report) = hybrid_atomic(&HtmConfig::new(), |txn| v.modify(txn, |x| x + 1)).unwrap();
/// assert_eq!(report.path, CommitPath::Hardware);
/// assert_eq!(v.load(), 1);
/// ```
pub fn hybrid_atomic<T>(
    config: &HtmConfig,
    mut body: impl FnMut(&mut Txn) -> StmResult<T>,
) -> Result<(T, HybridReport), TxnError> {
    let hw = Txn::build()
        .site("htm_hw")
        .capacity(config.read_capacity, config.write_capacity)
        .max_attempts(config.max_hw_attempts);

    let hw_attempts;
    match hw.try_run(&mut body) {
        Ok((v, inner)) => {
            return Ok((
                v,
                HybridReport { path: CommitPath::Hardware, hw_attempts: inner.attempts, inner },
            ))
        }
        Err(TxnError::Cancelled) => return Err(TxnError::Cancelled),
        Err(TxnError::Capacity { attempts, .. }) => hw_attempts = attempts,
        Err(TxnError::RetryLimit { attempts }) => hw_attempts = attempts,
    }

    match config.fallback {
        FallbackPolicy::Fail => {
            // Re-run once more in hardware so the caller sees the real
            // terminal failure kind (capacity vs. retry limit).
            match hw.clone().max_attempts(1).try_run(&mut body) {
                Ok((v, inner)) => {
                    Ok((v, HybridReport { path: CommitPath::Hardware, hw_attempts, inner }))
                }
                Err(e) => Err(e),
            }
        }
        FallbackPolicy::SoftwareTm => {
            let (v, inner) = Txn::build().site("htm_sw_fallback").try_run(&mut body)?;
            Ok((v, HybridReport { path: CommitPath::SoftwareFallback, hw_attempts, inner }))
        }
        FallbackPolicy::GlobalLock => {
            let (v, inner) = Txn::build().site("htm_lock_fallback").relaxed().try_run(|txn| {
                txn.become_irrevocable()?;
                body(txn)
            })?;
            Ok((v, HybridReport { path: CommitPath::GlobalLockFallback, hw_attempts, inner }))
        }
    }
}

/// Convenience: hybrid transaction with the default configuration,
/// panicking on cancellation (mirrors [`txfix_stm::atomic`]).
pub fn htm_atomic<T>(body: impl FnMut(&mut Txn) -> StmResult<T>) -> T {
    hybrid_atomic(&HtmConfig::default(), body)
        .expect("default hybrid transaction cannot fail terminally")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use txfix_stm::TVar;

    #[test]
    fn small_transaction_commits_in_hardware() {
        let v = TVar::new(1u32);
        let (out, report) =
            hybrid_atomic(&HtmConfig::new(), |txn| v.modify(txn, |x| x * 3).map(|_| 3)).unwrap();
        assert_eq!(out, 3);
        assert_eq!(report.path, CommitPath::Hardware);
        assert_eq!(v.load(), 3);
    }

    #[test]
    fn capacity_overflow_falls_back_to_software() {
        let vars: Vec<TVar<u32>> = (0..32u32).map(TVar::new).collect();
        let cfg = HtmConfig::new().capacity(8, 8);
        let (sum, report) = hybrid_atomic(&cfg, |txn| {
            let mut s = 0;
            for v in &vars {
                s += v.read(txn)?;
            }
            Ok(s)
        })
        .unwrap();
        assert_eq!(sum, (0..32).sum::<u32>());
        assert_eq!(report.path, CommitPath::SoftwareFallback);
        assert!(report.hw_attempts >= 1);
    }

    #[test]
    fn capacity_overflow_with_global_lock_fallback() {
        let vars: Vec<TVar<u32>> = (0..32).map(|_| TVar::new(1)).collect();
        let cfg = HtmConfig::new().capacity(4, 4).fallback(FallbackPolicy::GlobalLock);
        let (sum, report) = hybrid_atomic(&cfg, |txn| {
            let mut s = 0;
            for v in &vars {
                s += v.read(txn)?;
            }
            Ok(s)
        })
        .unwrap();
        assert_eq!(sum, 32);
        assert_eq!(report.path, CommitPath::GlobalLockFallback);
        assert!(report.inner.committed_irrevocably);
    }

    #[test]
    fn fail_policy_surfaces_capacity_error() {
        let vars: Vec<TVar<u32>> = (0..32).map(|_| TVar::new(1)).collect();
        let cfg = HtmConfig::new().capacity(4, 4).fallback(FallbackPolicy::Fail);
        let r = hybrid_atomic(&cfg, |txn| {
            for v in &vars {
                v.read(txn)?;
            }
            Ok(())
        });
        assert!(matches!(r, Err(TxnError::Capacity { .. })), "got {r:?}");
    }

    #[test]
    fn hybrid_counter_is_exact_under_contention() {
        let v = TVar::new(0u64);
        let cfg = HtmConfig::new().capacity(64, 64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..250 {
                        hybrid_atomic(&cfg, |txn| v.modify(txn, |x| x + 1)).unwrap();
                    }
                });
            }
        });
        assert_eq!(v.load(), 1000);
    }

    #[test]
    fn htm_atomic_convenience_works() {
        let v = TVar::new(0u32);
        htm_atomic(|txn| v.write(txn, 9));
        assert_eq!(v.load(), 9);
    }

    #[test]
    fn config_builder_roundtrip() {
        let c = HtmConfig::new()
            .capacity(10, 20)
            .max_hw_attempts(7)
            .fallback(FallbackPolicy::GlobalLock);
        assert_eq!(c.read_capacity, 10);
        assert_eq!(c.write_capacity, 20);
        assert_eq!(c.max_hw_attempts, 7);
        assert_eq!(c.fallback, FallbackPolicy::GlobalLock);
    }
}
