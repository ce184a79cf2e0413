//! A miniature of Mozilla SpiderMonkey's multi-threaded object layer.
//!
//! SpiderMonkey avoided per-object locks with an *ownership* (title
//! locking) protocol: the first thread to touch an object becomes its
//! exclusive owner and thereafter accesses it with no synchronization; a
//! second thread must *claim* the object, blocking until the owner
//! relinquishes at a safe point. Claiming while holding the global
//! `setSlotLock` is the Mozilla-I deadlock (paper §5.4.1, Figure 2).
//!
//! The module provides five interchangeable object stores:
//!
//! | store | corresponds to |
//! |---|---|
//! | [`OwnershipStore`] (buggy mode) | the shipped, deadlock-prone protocol |
//! | [`OwnershipStore`] (dev-fix mode) | developers' fix: drop ownership before blocking |
//! | [`StmStore`] | TM fix via Recipe 1 (locks → atomic regions) on the native STM |
//! | [`HwModelStore`] | the same fix on hardware TM — a model, there being no HTM to run |
//! | [`PreemptStore`] | TM fix via Recipe 3 (revocable locks + preemptible claim path) |
//!
//! plus a script-interpreter workload ([`run_script_workload`]) standing in for
//! SunSpider.

mod ownership;
mod script;
mod store;
mod tm;

pub use ownership::{OwnershipMode, OwnershipStore};
pub use script::{run_script_workload, ScriptParams, WorkloadResult};
pub use store::ObjectStore;
pub use tm::{HwModelStore, PreemptStore, StmStore};
