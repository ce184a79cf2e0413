//! Model-checking support: the seeded picker for deterministic-scheduler
//! runs and the BTreeMap-oracle history checker behind the differential
//! tests.
//!
//! Every committed op carries the shard history version at its
//! serialization point ([`crate::OpStats::version`]): writes bump the
//! version inside their transaction, reads observe it in theirs. Sorting
//! a shard's events by `(version, reads-after-the-write)` therefore
//! reconstructs *the* serialization order the STM (or the dev lock)
//! actually produced, and replaying that order against a sequential
//! `BTreeMap` decides linearizability with zero search.

use std::collections::BTreeMap;

use txfix_stm::chaos::splitmix64;
use txfix_stm::sched::{Pick, Picker};

use crate::Rows;

/// A picker driving scheduling decisions from a splitmix64 stream: same
/// seed, same schedule, machine-independent.
pub fn seeded_picker(seed: u64) -> Picker {
    let mut state = splitmix64(seed ^ 0x05EE_D0F5_C4ED);
    Box::new(move |choices| {
        state = splitmix64(state);
        Pick::Choose((state % choices.len() as u64) as usize)
    })
}

/// One op of a recorded history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelOp {
    /// `get(key)`.
    Get(String),
    /// `put(key, value)`.
    Put(String, String),
    /// `delete(key)`.
    Delete(String),
    /// `scan(shard)`.
    Scan,
}

/// What the store replied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelResult {
    /// Get's mapping / put's or delete's displaced value.
    Value(Option<String>),
    /// Scan's snapshot.
    Snapshot(Rows),
}

/// One committed op as the harness recorded it.
#[derive(Clone, Debug)]
pub struct Event {
    /// Shard the op ran on.
    pub shard: usize,
    /// Shard history version at the op's serialization point.
    pub version: u64,
    /// The op.
    pub op: ModelOp,
    /// The store's reply.
    pub result: ModelResult,
}

/// Replay `events` against a sequential oracle, shard by shard, in the
/// serialization order their versions encode. Returns the number of
/// events checked, or the first divergence.
///
/// The check is strict: write versions on a shard must be exactly
/// `1..=n` with no gaps (every version the store handed out must appear
/// in the history), every displaced value must match the oracle, and
/// every read must see exactly the oracle state of its version.
pub fn check_history(events: &[Event]) -> Result<usize, String> {
    use ModelResult::{Snapshot, Value};
    let mut by_shard: BTreeMap<usize, Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_shard.entry(e.shard).or_default().push(e);
    }
    let mut checked = 0;
    for (shard, mut evs) in by_shard {
        // Writes first within a version: the write that produced version
        // v serializes before every read that observed v.
        let is_read = |e: &Event| matches!(e.op, ModelOp::Get(_) | ModelOp::Scan);
        evs.sort_by_key(|e| (e.version, is_read(e)));
        let mut oracle: BTreeMap<String, String> = BTreeMap::new();
        let mut version = 0u64;
        for e in evs {
            if is_read(e) && e.version != version {
                return Err(format!(
                    "shard {shard}: read {:?} observed version {} during version {version}",
                    e.op, e.version
                ));
            }
            if !is_read(e) && e.version != version + 1 {
                return Err(format!(
                    "shard {shard}: write version {} after version {version} (lost or \
                     duplicated write)",
                    e.version
                ));
            }
            version = e.version;
            let (what, want) = match &e.op {
                ModelOp::Put(k, v) => {
                    ("displaced value diverged", Value(oracle.insert(k.clone(), v.clone())))
                }
                ModelOp::Delete(k) => ("displaced value diverged", Value(oracle.remove(k))),
                ModelOp::Get(k) => ("stale or phantom read", Value(oracle.get(k).cloned())),
                ModelOp::Scan => (
                    "torn scan",
                    Snapshot(oracle.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()),
                ),
            };
            if e.result != want {
                return Err(format!(
                    "shard {shard} version {v}: {what}: op {op:?} returned {got:?}, oracle says \
                     {want:?}",
                    v = e.version,
                    op = e.op,
                    got = e.result,
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(shard: usize, version: u64, k: &str, v: &str, displaced: Option<&str>) -> Event {
        Event {
            shard,
            version,
            op: ModelOp::Put(k.into(), v.into()),
            result: ModelResult::Value(displaced.map(String::from)),
        }
    }

    fn r(shard: usize, version: u64, k: &str, saw: Option<&str>) -> Event {
        Event {
            shard,
            version,
            op: ModelOp::Get(k.into()),
            result: ModelResult::Value(saw.map(String::from)),
        }
    }

    #[test]
    fn a_consistent_history_checks_out_regardless_of_arrival_order() {
        let events = vec![
            r(0, 2, "a", Some("2")),
            w(0, 2, "a", "2", Some("1")),
            w(0, 1, "a", "1", None),
            r(0, 0, "a", None),
            w(1, 1, "z", "9", None),
        ];
        assert_eq!(check_history(&events), Ok(5));
    }

    #[test]
    fn divergences_are_named() {
        // A stale read: saw version 1's value while claiming version 2.
        let events =
            vec![w(0, 1, "a", "1", None), w(0, 2, "a", "2", Some("1")), r(0, 2, "a", Some("1"))];
        assert!(check_history(&events).unwrap_err().contains("stale or phantom read"));
        // A lost update: version 2 never appears.
        let events = vec![w(0, 1, "a", "1", None), w(0, 3, "a", "3", Some("1"))];
        assert!(check_history(&events).unwrap_err().contains("lost or duplicated"));
        // A torn scan.
        let events = vec![
            w(0, 1, "a", "1", None),
            Event {
                shard: 0,
                version: 1,
                op: ModelOp::Scan,
                result: ModelResult::Snapshot(Rows::default()),
            },
        ];
        assert!(check_history(&events).unwrap_err().contains("torn scan"));
    }
}
