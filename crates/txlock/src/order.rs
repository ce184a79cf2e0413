//! The one lock-order graph.
//!
//! Paper §3.1: "adding a new lock requires considering whether it can
//! introduce deadlock with all existing locks". [`LockOrder`] is that
//! consideration as a data structure: the "held `a` while attempting `b`"
//! edges, each flagged *firm* when some witness acquired `b`
//! non-revocably. A cycle through firm edges is a potential deadlock. An
//! edge witnessed only by revocable acquisitions never closes one: a
//! deadlock through it is resolved by preempting the transaction (paper
//! Recipe 3).
//!
//! Three feeders fill it from their own vantage points: the live
//! validator ([`lockdep`](crate::lockdep)), the trace replay in
//! `txfix-analyze` and the static pass over path summaries in
//! `txfix-static`. They share this container and its cycle search only.

use std::collections::{BTreeMap, BTreeSet};

/// Observed lock-acquisition orders over locks named by `K`.
#[derive(Clone, Debug)]
pub struct LockOrder<K> {
    /// `(held, attempted)` → firm.
    edges: BTreeMap<(K, K), bool>,
}

impl<K> Default for LockOrder<K> {
    fn default() -> Self {
        LockOrder { edges: BTreeMap::new() }
    }
}

impl<K: Ord + Clone> LockOrder<K> {
    /// Record an attempt on `lock` by a thread holding `held`: one edge
    /// per held lock other than `lock` itself. A `firm` attempt marks its
    /// edges firm for good; a revocable one never clears the flag.
    pub fn attempt(&mut self, held: &[K], lock: &K, firm: bool) {
        for h in held.iter().filter(|h| *h != lock) {
            *self.edges.entry((h.clone(), lock.clone())).or_default() |= firm;
        }
    }

    /// Every recorded `(held, attempted)` edge, firm or not, in order.
    pub fn edges(&self) -> impl Iterator<Item = (&K, &K)> {
        self.edges.keys().map(|(a, b)| (a, b))
    }

    /// The strongly connected components of two or more locks over firm
    /// edges: each lock list sorted, the lists sorted.
    pub fn cycles(&self) -> Vec<Vec<K>> {
        let mut firm: BTreeMap<&K, Vec<&K>> = BTreeMap::new();
        for ((a, b), _) in self.edges.iter().filter(|(_, f)| **f) {
            firm.entry(a).or_default().push(b);
        }
        // The graphs are tiny (a handful of locks), so components come
        // from per-lock reachability rather than Tarjan.
        let reach: BTreeMap<&K, BTreeSet<&K>> = firm
            .keys()
            .map(|&from| {
                let mut seen = BTreeSet::new();
                let mut stack = vec![from];
                while let Some(n) = stack.pop() {
                    for &to in firm.get(n).into_iter().flatten() {
                        if seen.insert(to) {
                            stack.push(to);
                        }
                    }
                }
                (from, seen)
            })
            .collect();
        let mut out: Vec<Vec<K>> = Vec::new();
        for (&n, from_n) in &reach {
            if out.iter().any(|c| c.contains(n)) {
                continue;
            }
            let scc: Vec<K> = from_n
                .iter()
                .filter(|m| reach.get(**m).is_some_and(|r| r.contains(n)))
                .map(|m| (*m).clone())
                .collect();
            if scc.len() >= 2 {
                out.push(scc);
            }
        }
        out
    }

    /// The firm edges inside [`cycles`](LockOrder::cycles), each as a
    /// sorted pair, deduplicated and sorted.
    pub fn inversions(&self) -> Vec<(K, K)> {
        let cycles = self.cycles();
        let component = |k: &K| cycles.iter().position(|c| c.contains(k));
        let pairs: BTreeSet<(K, K)> = self
            .edges
            .iter()
            .filter(|((a, b), firm)| {
                **firm && component(a).is_some() && component(a) == component(b)
            })
            .map(|((a, b), _)| if a <= b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) })
            .collect();
        pairs.into_iter().collect()
    }
}
