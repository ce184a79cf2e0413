//! The conflict-serializability checker.
//!
//! Atomicity violations are interleavings that no serial order of the
//! program's intended atomic units can explain. The checker groups the
//! trace's accesses into **regions** — the units the code visibly intended
//! to be atomic:
//!
//! - a committed transaction (all its accesses take effect at the commit
//!   event, so the region is instantaneous);
//! - a lock critical-section cluster: a maximal span during which a thread
//!   continuously holds at least one lock;
//! - a maximal run of *plain* (non-atomic) unsynchronized accesses by one
//!   thread — plain accesses imply the programmer assumed exclusivity, so
//!   consecutive ones form one intended unit, broken by any synchronization
//!   the thread performs;
//! - a hardware-atomic access outside any lock is its own single-access
//!   region: the programmer explicitly chose word-level atomicity, so no
//!   larger unit is implied.
//!
//! It then builds the classic conflict graph — an edge `R1 → R2` whenever
//! an access of `R1` precedes a conflicting access of `R2` in the trace
//! (different threads, same object, at least one write) — and reports every
//! cycle as an atomicity violation: the regions interleaved in a way
//! serial execution cannot produce. Same-thread edges are omitted; program
//! order always points forward in trace time, so they can never complete a
//! cycle.

use std::collections::{HashMap, HashSet};
use txfix_stm::trace::{AccessKind, EventKind, TraceEvent};

/// One non-serializable interleaving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Diagnostic names of the objects whose conflicts form the cycle.
    pub objects: Vec<String>,
    /// Recorder ids of the threads whose regions participate.
    pub threads: Vec<u64>,
}

struct Access {
    object: u64,
    name: String,
    writes: bool,
    /// Trace position: the access event's index (commit index for
    /// transactional accesses).
    seq: usize,
    region: usize,
}

struct Region {
    thread: u64,
}

#[derive(Default)]
struct Builder {
    regions: Vec<Region>,
    accesses: Vec<Access>,
    /// Open lock-cluster region per thread, with the held-lock depth.
    cluster: HashMap<u64, (usize, usize)>,
    /// Open plain-run region per thread.
    plain_run: HashMap<u64, usize>,
}

impl Builder {
    fn new_region(&mut self, thread: u64) -> usize {
        self.regions.push(Region { thread });
        self.regions.len() - 1
    }

    /// Any synchronization by `thread` ends its open plain run.
    fn break_plain_run(&mut self, thread: u64) {
        self.plain_run.remove(&thread);
    }

    fn push_access(&mut self, region: usize, object: u64, name: &str, writes: bool, seq: usize) {
        self.accesses.push(Access { object, name: name.to_owned(), writes, seq, region });
    }
}

/// Find non-serializable region interleavings in `events`.
pub fn violations(events: &[TraceEvent]) -> Vec<Violation> {
    let mut b = Builder::default();
    let mut pending: HashMap<u64, Vec<(u64, AccessKind)>> = HashMap::new();

    for (seq, ev) in events.iter().enumerate() {
        let t = ev.thread;
        match &ev.kind {
            EventKind::LockAcquired { .. } => {
                b.break_plain_run(t);
                match b.cluster.get_mut(&t) {
                    Some((_, depth)) => *depth += 1,
                    None => {
                        let r = b.new_region(t);
                        b.cluster.insert(t, (r, 1));
                    }
                }
            }
            EventKind::LockReleased { .. } => {
                if let Some((_, depth)) = b.cluster.get_mut(&t) {
                    *depth -= 1;
                    if *depth == 0 {
                        b.cluster.remove(&t);
                    }
                }
            }
            EventKind::TxnAccess { serial, var, kind } => {
                pending.entry(*serial).or_default().push((*var, *kind));
            }
            EventKind::TxnAbort { serial } => {
                pending.remove(serial);
            }
            EventKind::TxnCommit { serial } => {
                b.break_plain_run(t);
                if let Some(accesses) = pending.remove(serial) {
                    let r = b.new_region(t);
                    for (var, kind) in accesses {
                        b.push_access(r, var, &format!("tvar#{var}"), kind.writes(), seq);
                    }
                }
            }
            EventKind::SharedAccess { object, name, kind, atomic } => {
                let region = if let Some(&(r, _)) = b.cluster.get(&t) {
                    r
                } else if *atomic {
                    b.break_plain_run(t);
                    b.new_region(t)
                } else {
                    match b.plain_run.get(&t) {
                        Some(&r) => r,
                        None => {
                            let r = b.new_region(t);
                            b.plain_run.insert(t, r);
                            r
                        }
                    }
                };
                b.push_access(region, *object, name, kind.writes(), seq);
            }
            EventKind::LockAttempt { .. }
            | EventKind::TxnBegin { .. }
            | EventKind::CvWait { .. }
            | EventKind::CvNotify { .. }
            | EventKind::RetryNotify => {}
        }
    }

    cycles(&b)
}

fn cycles(b: &Builder) -> Vec<Violation> {
    // Conflict edges, derived per object from trace order.
    let mut by_object: HashMap<u64, Vec<&Access>> = HashMap::new();
    for a in &b.accesses {
        by_object.entry(a.object).or_default().push(a);
    }
    let mut edges: HashMap<usize, HashSet<usize>> = HashMap::new();
    let mut edge_objects: HashMap<(usize, usize), u64> = HashMap::new();
    for accesses in by_object.values() {
        for (i, a) in accesses.iter().enumerate() {
            for c in accesses.iter().skip(i + 1) {
                let conflict = (a.writes || c.writes)
                    && a.region != c.region
                    && b.regions[a.region].thread != b.regions[c.region].thread;
                if conflict && a.seq <= c.seq {
                    edges.entry(a.region).or_default().insert(c.region);
                    // An edge is labelled by its oldest object, so the
                    // report does not follow hash-map iteration order.
                    let o = edge_objects.entry((a.region, c.region)).or_insert(a.object);
                    *o = (*o).min(a.object);
                }
            }
        }
    }

    // Tarjan-free SCC via Kosaraju would do; with the small region graphs
    // here, iterative DFS-based strongly-connected detection suffices.
    let sccs = strongly_connected(b.regions.len(), &edges);
    let mut out = Vec::new();
    let mut seen: HashSet<Vec<String>> = HashSet::new();
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let in_scc: HashSet<usize> = scc.iter().copied().collect();
        let mut objects: Vec<String> = Vec::new();
        for a in &b.accesses {
            if in_scc.contains(&a.region) && !objects.contains(&a.name) {
                // Only objects actually carrying a conflict edge inside the
                // cycle matter for the report.
                let on_cycle = edge_objects.iter().any(|(&(x, y), &o)| {
                    o == a.object && in_scc.contains(&x) && in_scc.contains(&y)
                });
                if on_cycle {
                    objects.push(a.name.clone());
                }
            }
        }
        objects.sort();
        objects.dedup();
        let mut threads: Vec<u64> = scc.iter().map(|&r| b.regions[r].thread).collect();
        threads.sort_unstable();
        threads.dedup();
        if seen.insert(objects.clone()) {
            out.push(Violation { objects, threads });
        }
    }
    out
}

/// Strongly connected components (iterative Kosaraju).
fn strongly_connected(n: usize, edges: &HashMap<usize, HashSet<usize>>) -> Vec<Vec<usize>> {
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack = vec![(start, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                order.push(node);
                continue;
            }
            if visited[node] {
                continue;
            }
            visited[node] = true;
            stack.push((node, true));
            if let Some(next) = edges.get(&node) {
                stack.extend(next.iter().filter(|&&m| !visited[m]).map(|&m| (m, false)));
            }
        }
    }

    let mut reverse: HashMap<usize, Vec<usize>> = HashMap::new();
    for (&from, tos) in edges {
        for &to in tos {
            reverse.entry(to).or_default().push(from);
        }
    }
    let mut assigned = vec![false; n];
    let mut sccs = Vec::new();
    for &root in order.iter().rev() {
        if assigned[root] {
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if assigned[node] {
                continue;
            }
            assigned[node] = true;
            component.push(node);
            if let Some(prev) = reverse.get(&node) {
                stack.extend(prev.iter().filter(|&&m| !assigned[m]));
            }
        }
        sccs.push(component);
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { thread, kind }
    }

    fn plain(thread: u64, object: u64, kind: AccessKind) -> TraceEvent {
        ev(
            thread,
            EventKind::SharedAccess { object, name: format!("obj#{object}"), kind, atomic: false },
        )
    }

    #[test]
    fn lost_update_between_plain_runs_is_a_cycle() {
        // T1: R(x) .. W(x) interleaved with T2: R(x) .. W(x).
        let v = violations(&[
            plain(1, 7, AccessKind::Read),
            plain(2, 7, AccessKind::Read),
            plain(1, 7, AccessKind::Write),
            plain(2, 7, AccessKind::Write),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].objects, vec!["obj#7".to_string()]);
        assert_eq!(v[0].threads, vec![1, 2]);
    }

    #[test]
    fn serial_plain_runs_are_clean() {
        let v = violations(&[
            plain(1, 7, AccessKind::Read),
            plain(1, 7, AccessKind::Write),
            plain(2, 7, AccessKind::Read),
            plain(2, 7, AccessKind::Write),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unprotected_run_interleaving_a_critical_section_is_a_cycle() {
        // T1 reads and writes x with no lock; T2's critical section does the
        // same in between.
        let v = violations(&[
            plain(1, 7, AccessKind::Read),
            ev(2, EventKind::LockAcquired { lock: 1, name: "m".into() }),
            plain(2, 7, AccessKind::Read),
            plain(2, 7, AccessKind::Write),
            ev(2, EventKind::LockReleased { lock: 1 }),
            plain(1, 7, AccessKind::Write),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn mutually_excluded_critical_sections_are_clean() {
        let v = violations(&[
            ev(1, EventKind::LockAcquired { lock: 1, name: "m".into() }),
            plain(1, 7, AccessKind::Read),
            plain(1, 7, AccessKind::Write),
            ev(1, EventKind::LockReleased { lock: 1 }),
            ev(2, EventKind::LockAcquired { lock: 1, name: "m".into() }),
            plain(2, 7, AccessKind::Read),
            plain(2, 7, AccessKind::Write),
            ev(2, EventKind::LockReleased { lock: 1 }),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn committed_transactions_are_instantaneous_and_clean() {
        let v = violations(&[
            ev(1, EventKind::TxnBegin { serial: 1 }),
            ev(1, EventKind::TxnAccess { serial: 1, var: 7, kind: AccessKind::Read }),
            ev(2, EventKind::TxnBegin { serial: 2 }),
            ev(2, EventKind::TxnAccess { serial: 2, var: 7, kind: AccessKind::Read }),
            ev(1, EventKind::TxnAccess { serial: 1, var: 7, kind: AccessKind::Write }),
            ev(2, EventKind::TxnAccess { serial: 2, var: 7, kind: AccessKind::Write }),
            ev(1, EventKind::TxnCommit { serial: 1 }),
            ev(2, EventKind::TxnCommit { serial: 2 }),
        ]);
        assert!(v.is_empty(), "transactions serialize at commit: {v:?}");
    }

    #[test]
    fn atomic_singletons_form_no_cycle() {
        let atomic = |thread: u64, kind: AccessKind| {
            ev(thread, EventKind::SharedAccess { object: 9, name: "a".into(), kind, atomic: true })
        };
        let v = violations(&[
            atomic(1, AccessKind::Rmw),
            atomic(2, AccessKind::Rmw),
            atomic(1, AccessKind::Rmw),
            atomic(2, AccessKind::Rmw),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
