//! Executable interpretation of summary IR: turn a [`ScenarioSummary`]
//! into a [`ScheduledRun`] the DFS explorer can drive.
//!
//! The static summaries (`txfix_static::ir`) are declarative models; the
//! explorer (`txfix_explore`) drives *hand-written* scheduled scenarios.
//! Fix inference needs to verify summaries it has just rewritten — for
//! which no hand-written reproduction exists — so this module closes the
//! gap by *executing* a summary against the real runtime primitives:
//!
//! - every shared location becomes a [`TVar<u64>`] starting at 0;
//! - every lock named in some region's `serialized_with` becomes a
//!   [`SerialMutex`] in one shared [`SerialDomain`] (Recipe 4); every
//!   other lock becomes a [`TxMutex`];
//! - condition variables become [`LockCondvar`]s, waits run the
//!   standard predicate loop (`while pred == 0 { wait }`) so a spent
//!   notification re-blocks the waiter — exactly the lost-wakeup shape;
//! - atomic regions run as real transactions: plain [`atomic`],
//!   [`preemptible`] when the region acquires locks (Recipe 3), or
//!   [`serial_atomic`] when serialized (Recipe 4); in-region waits
//!   become transactional [`guard`] retries.
//!
//! Values encode the bug oracles. A write after a read of the same
//! location stores `read + 1` (an intended increment); the check then
//! requires the final value to equal the number of committed increments,
//! so a lost update is observable. Writes to invariant-group members
//! reuse one target value per (path, read) so group members must agree
//! at the end, and adjacent in-path reads of two group members must see
//! equal values — a torn pair is observable. Deadlocks surface through
//! the runtime itself: a lock-order cycle panics with
//! [`DeadlockError`](txfix_txlock::DeadlockError), a lost wakeup blocks
//! every thread and the scheduler reports the deadlock.
//!
//! Modeling limits (documented in `DESIGN.md` §10): locations hold one
//! `u64`; a path should not write the same group member twice between
//! reads of that group; a lock that is both serialized against a region
//! and acquired *inside* another region, and a wait whose monitor is a
//! serialized lock, are rejected with a panic rather than silently
//! mis-modeled.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use txfix_core::recipe::preemptible;
use txfix_corpus::{Outcome, ScheduledRun};
use txfix_static::{Op, ScenarioSummary};
use txfix_stm::{atomic, StmResult, TVar, Txn};
use txfix_tmsync::{guard, serial_atomic, SerialDomain, SerialMutex, SerialMutexGuard};
use txfix_txlock::{LockCondvar, TxMutex, TxMutexGuard};

/// Virtual-time bound for condvar waits; under the deterministic
/// scheduler a waiter parks until notified, so this never elapses.
const LONG_WAIT: Duration = Duration::from_secs(600);

/// The instantiated shared state for one run of a summary.
struct World {
    /// Shared locations (data accesses and wait predicates).
    locs: BTreeMap<String, TVar<u64>>,
    /// Plain revocable mutexes (everything not serialized against).
    plain: BTreeMap<String, Arc<TxMutex<()>>>,
    /// Locks some region is serialized against (Recipe 4).
    serial: BTreeMap<String, Arc<SerialMutex<()>>>,
    /// The one serialization domain shared by all serial locks.
    domain: Arc<SerialDomain>,
    /// Condition variables.
    cvs: BTreeMap<String, Arc<LockCondvar>>,
    /// Invariant groups, in declaration order.
    groups: Vec<Vec<String>>,
    /// Location -> index into `groups`.
    group_of: BTreeMap<String, usize>,
    /// Committed intended increments per location.
    counts: Mutex<BTreeMap<String, u64>>,
    /// Locations that ever received a blind (unread) write; their final
    /// value is schedule-dependent, so the increment check skips them.
    blind: Mutex<BTreeSet<String>>,
    /// Torn-read violations observed during execution.
    torn: Mutex<Vec<String>>,
}

impl World {
    fn loc(&self, name: &str) -> &TVar<u64> {
        self.locs.get(name).expect("location instantiated")
    }

    fn commit(&self, eff: Effects) {
        let mut counts = self.counts.lock().unwrap();
        for loc in eff.incs {
            *counts.entry(loc).or_insert(0) += 1;
        }
        drop(counts);
        self.blind.lock().unwrap().extend(eff.blind);
        self.torn.lock().unwrap().extend(eff.torn);
    }
}

/// Per-path interpreter state, cloned at every transaction attempt so
/// aborted attempts leave no residue.
#[derive(Clone, Default)]
struct PathState {
    /// Last value read (or increment-written) per location.
    regs: BTreeMap<String, u64>,
    /// Per group: value of the last member read (resets the target).
    group_base: BTreeMap<usize, u64>,
    /// Per group: the value every member write reuses until the next
    /// member read, and whether those writes count as increments.
    group_target: BTreeMap<usize, (u64, bool)>,
    /// Per group: the previous member read, for the adjacent-read
    /// torn-pair check. Cleared by self-writes and region boundaries.
    last_group_read: BTreeMap<usize, (String, u64)>,
}

/// Effects buffered during a transaction attempt, applied on commit.
#[derive(Clone, Default)]
struct Effects {
    incs: Vec<String>,
    blind: Vec<String>,
    torn: Vec<String>,
}

/// The value a blind (unread) write stores: distinct per path, so torn
/// invariant groups are distinguishable from consistent ones.
fn blind_const(path_idx: usize) -> u64 {
    (path_idx as u64 + 1) * 1_000_000
}

/// Record a read of `loc` observing `v`.
fn note_read(world: &World, st: &mut PathState, loc: &str, v: u64, eff: &mut Effects) {
    st.regs.insert(loc.to_string(), v);
    if let Some(&g) = world.group_of.get(loc) {
        if let Some((prev_loc, prev_v)) = st.last_group_read.get(&g) {
            if prev_loc != loc && *prev_v != v {
                eff.torn.push(format!("torn read: {prev_loc}={prev_v} then {loc}={v}"));
            }
        }
        st.last_group_read.insert(g, (loc.to_string(), v));
        st.group_base.insert(g, v);
        st.group_target.remove(&g);
    }
}

/// Compute (and record) the value a write of `loc` stores.
fn note_write(
    world: &World,
    st: &mut PathState,
    path_idx: usize,
    loc: &str,
    eff: &mut Effects,
) -> u64 {
    let (value, increment) = if let Some(&g) = world.group_of.get(loc) {
        st.last_group_read.remove(&g);
        if let Some(&(t, inc)) = st.group_target.get(&g) {
            (t, inc)
        } else if let Some(&base) = st.group_base.get(&g) {
            let t = base + 1;
            st.group_target.insert(g, (t, true));
            (t, true)
        } else {
            let t = blind_const(path_idx);
            st.group_target.insert(g, (t, false));
            (t, false)
        }
    } else if let Some(&prev) = st.regs.get(loc) {
        (prev + 1, true)
    } else {
        (blind_const(path_idx), false)
    };
    if increment {
        st.regs.insert(loc.to_string(), value);
        eff.incs.push(loc.to_string());
    } else {
        eff.blind.push(loc.to_string());
    }
    value
}

/// Index of the `AtomicEnd` matching the `AtomicBegin` at `begin`.
fn matching_end(ops: &[Op], begin: usize) -> usize {
    let mut depth = 0usize;
    for (i, op) in ops.iter().enumerate().skip(begin) {
        match op {
            Op::AtomicBegin { .. } => depth += 1,
            Op::AtomicEnd => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    unreachable!("validated summaries have balanced atomic regions")
}

/// Execute one op inside a transaction. Nested region boundaries are
/// flattened into the enclosing transaction by the caller.
fn exec_in_txn(
    world: &World,
    path_idx: usize,
    op: &Op,
    txn: &mut Txn,
    st: &mut PathState,
    eff: &mut Effects,
) -> StmResult<()> {
    match op {
        Op::Acquire { lock, .. } => {
            let Some(m) = world.plain.get(lock) else {
                panic!("lock {lock:?} is serialized against a region and cannot also be acquired inside one");
            };
            m.lock_tx(txn)?;
        }
        // Transactional locks are held to commit; the release is the
        // commit itself.
        Op::Release { .. } => {}
        Op::Read { loc, .. } => {
            let v = world.loc(loc).read(txn)?;
            note_read(world, st, loc, v, eff);
        }
        Op::Write { loc, .. } => {
            let v = note_write(world, st, path_idx, loc, eff);
            world.loc(loc).write(txn, v)?;
        }
        Op::Rmw { loc } => {
            let tv = world.loc(loc);
            let v = tv.read(txn)? + 1;
            tv.write(txn, v)?;
            st.regs.insert(loc.clone(), v);
            eff.incs.push(loc.clone());
        }
        Op::Wait { predicate, .. } => {
            // Transactional retry in place of the condvar sleep
            // (Recipe 3's wait replacement).
            let v = world.loc(predicate).read(txn)?;
            guard(txn, v != 0)?;
        }
        // A notify inside a region is a plain wakeup; the predicate
        // state it announces is published by the commit.
        Op::Notify { cv } => world.cvs[cv].notify_all(),
        Op::AtomicBegin { .. } | Op::AtomicEnd => {
            unreachable!("nested region boundaries are flattened by the caller")
        }
    }
    Ok(())
}

/// Execute one atomic region (`ops` excludes the enclosing begin/end) as
/// a real transaction of the flavor the summary asks for.
fn run_region(
    world: &World,
    path_idx: usize,
    ops: &[Op],
    serialized: &[String],
    st: &mut PathState,
) {
    // Flatten nested regions: one transaction covers the whole span.
    let flat: Vec<&Op> =
        ops.iter().filter(|op| !matches!(op, Op::AtomicBegin { .. } | Op::AtomicEnd)).collect();
    let acquires_locks = flat.iter().any(|op| matches!(op, Op::Acquire { .. }));
    let body = |txn: &mut Txn| -> StmResult<(PathState, Effects)> {
        let mut local = st.clone();
        local.last_group_read.clear();
        let mut eff = Effects::default();
        for op in &flat {
            exec_in_txn(world, path_idx, op, txn, &mut local, &mut eff)?;
        }
        local.last_group_read.clear();
        Ok((local, eff))
    };
    let (next, eff) = if !serialized.is_empty() {
        serial_atomic(&world.domain, body)
    } else if acquires_locks {
        preemptible(body).expect("preemptible region failed terminally")
    } else {
        atomic(body)
    };
    *st = next;
    world.commit(eff);
}

/// Execute one path of the summary against the world.
fn run_path(world: &World, path_idx: usize, ops: &[Op]) {
    let mut st = PathState::default();
    let mut plain_guards: BTreeMap<String, TxMutexGuard<'_, ()>> = BTreeMap::new();
    let mut serial_guards: BTreeMap<String, SerialMutexGuard<'_, ()>> = BTreeMap::new();
    let mut i = 0;
    while i < ops.len() {
        match &ops[i] {
            Op::AtomicBegin { serialized_with } => {
                let end = matching_end(ops, i);
                run_region(world, path_idx, &ops[i + 1..end], serialized_with, &mut st);
                i = end;
            }
            Op::Acquire { lock, .. } => {
                if let Some(m) = world.plain.get(lock) {
                    let g = m.lock().unwrap_or_else(|e| panic!("{e}"));
                    plain_guards.insert(lock.clone(), g);
                } else {
                    serial_guards.insert(lock.clone(), world.serial[lock].lock());
                }
            }
            Op::Release { lock } => {
                if plain_guards.remove(lock).is_none() {
                    serial_guards.remove(lock).expect("release of held lock");
                }
            }
            Op::Read { loc, .. } => {
                let v = world.loc(loc).load();
                let mut eff = Effects::default();
                note_read(world, &mut st, loc, v, &mut eff);
                world.commit(eff);
            }
            Op::Write { loc, .. } => {
                let mut eff = Effects::default();
                let v = note_write(world, &mut st, path_idx, loc, &mut eff);
                world.loc(loc).store(v);
                world.commit(eff);
            }
            Op::Rmw { loc } => {
                let tv = world.loc(loc);
                let v = atomic(|txn| {
                    let v = tv.read(txn)? + 1;
                    tv.write(txn, v)?;
                    Ok(v)
                });
                st.regs.insert(loc.clone(), v);
                world.commit(Effects { incs: vec![loc.clone()], ..Default::default() });
            }
            Op::Wait { cv, monitor, predicate } => {
                let cvar = &world.cvs[cv];
                let pred = world.loc(predicate);
                let mut g = plain_guards.remove(monitor).unwrap_or_else(|| {
                    panic!("wait on {cv:?}: monitor {monitor:?} must be a held plain lock")
                });
                // Standard monitor discipline: re-test the predicate
                // after every wakeup, so a notification that arrived
                // before the state it announces re-blocks the waiter.
                while pred.load() == 0 {
                    let (g2, _) = cvar.wait_timeout(g, LONG_WAIT).unwrap_or_else(|e| panic!("{e}"));
                    g = g2;
                }
                plain_guards.insert(monitor.clone(), g);
            }
            Op::Notify { cv } => world.cvs[cv].notify_all(),
            Op::AtomicEnd => unreachable!("validated summaries have balanced atomic regions"),
        }
        i += 1;
    }
}

/// Instantiate the world a summary runs against.
fn build_world(summary: &ScenarioSummary) -> Arc<World> {
    let mut loc_names: BTreeSet<String> = BTreeSet::new();
    let mut serial_names: BTreeSet<String> = BTreeSet::new();
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    let mut cv_names: BTreeSet<String> = BTreeSet::new();
    for p in &summary.paths {
        for op in &p.ops {
            if let Some(loc) = op.loc() {
                loc_names.insert(loc.to_string());
            }
            match op {
                Op::Acquire { lock, .. } => {
                    lock_names.insert(lock.clone());
                }
                Op::AtomicBegin { serialized_with } => {
                    serial_names.extend(serialized_with.iter().cloned());
                }
                Op::Wait { cv, monitor, predicate } => {
                    cv_names.insert(cv.clone());
                    lock_names.insert(monitor.clone());
                    loc_names.insert(predicate.clone());
                }
                Op::Notify { cv } => {
                    cv_names.insert(cv.clone());
                }
                _ => {}
            }
        }
    }
    let domain = SerialDomain::new();
    let mut group_of = BTreeMap::new();
    for (i, group) in summary.groups.iter().enumerate() {
        for loc in group {
            group_of.entry(loc.clone()).or_insert(i);
        }
    }
    Arc::new(World {
        locs: loc_names.into_iter().map(|n| (n, TVar::new(0u64))).collect(),
        plain: lock_names
            .iter()
            .filter(|n| !serial_names.contains(*n))
            .map(|n| (n.clone(), Arc::new(TxMutex::new(n, ()))))
            .collect(),
        serial: serial_names
            .iter()
            .map(|n| (n.clone(), Arc::new(SerialMutex::new(domain.clone(), ()))))
            .collect(),
        domain,
        cvs: cv_names.into_iter().map(|n| (n, Arc::new(LockCondvar::new()))).collect(),
        groups: summary.groups.clone(),
        group_of,
        counts: Mutex::new(BTreeMap::new()),
        blind: Mutex::new(BTreeSet::new()),
        torn: Mutex::new(Vec::new()),
    })
}

/// Build a [`ScheduledRun`] executing `summary`: one scheduler slot per
/// path, plus an invariant check encoding the lost-update, torn-group
/// and torn-read oracles.
///
/// # Panics
///
/// If the summary fails [`ScenarioSummary::validate`], or uses a shape
/// outside the model (see the module docs).
pub fn build_run(summary: &ScenarioSummary) -> ScheduledRun {
    summary.validate().expect("summary validates");
    let world = build_world(summary);
    let threads: Vec<Box<dyn FnOnce() + Send>> = summary
        .paths
        .iter()
        .enumerate()
        .map(|(idx, path)| {
            let world = world.clone();
            let ops = path.ops.clone();
            Box::new(move || run_path(&world, idx, &ops)) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let check = Box::new(move || {
        let counts = world.counts.lock().unwrap();
        let blind = world.blind.lock().unwrap();
        for (loc, &n) in counts.iter() {
            if blind.contains(loc) {
                continue;
            }
            let v = world.loc(loc).load();
            if v != n {
                return Outcome::BugObserved(format!(
                    "lost update: {loc} = {v} after {n} increments"
                ));
            }
        }
        for group in &world.groups {
            let vals: Vec<u64> = group.iter().map(|l| world.loc(l).load()).collect();
            if vals.windows(2).any(|w| w[0] != w[1]) {
                let rendered: Vec<String> =
                    group.iter().zip(&vals).map(|(l, v)| format!("{l}={v}")).collect();
                return Outcome::BugObserved(format!("invariant torn: {}", rendered.join(", ")));
            }
        }
        if let Some(t) = world.torn.lock().unwrap().first() {
            return Outcome::BugObserved(t.clone());
        }
        Outcome::Correct
    });
    ScheduledRun { threads, check }
}
