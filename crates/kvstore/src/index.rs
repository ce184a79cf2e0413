//! A shard's index: one persistent ordered map of packed leaves.
//!
//! The index is a run of leaves in key order; a leaf is a [`Rows`] of at
//! most [`LEAF_MAX`] sorted entries behind an `Arc`, its keys and values
//! in one `String`. A leaf's bound is its first key, so no bound is
//! stored. `clone` copies the table and shares every leaf (one refcount
//! bump per leaf); `insert`/`remove` build the one leaf they touch anew,
//! copying its bytes in one pass — no refcount per entry, no allocation
//! per key — and leave every other leaf shared: a write costs the table
//! plus one leaf.
//!
//! Invariants: leaves are non-empty and sorted; a leaf's last key is `<`
//! the next leaf's first; no leaf exceeds `LEAF_MAX`; no two adjacent
//! leaves sum to `<= LEAF_MAX / 2`, which is what bounds the table a write
//! clones under delete-heavy load.

use std::sync::Arc;

use crate::Rows;

/// Entries per leaf before it splits in half.
const LEAF_MAX: usize = 64;

/// Entries per leaf [`Index::from_sorted`] packs: room for a quarter of
/// `LEAF_MAX` inserts before a rebuilt leaf splits.
const FILL: usize = LEAF_MAX * 3 / 4;

/// A shard's ordered index: a persistent map of packed leaves.
#[derive(Clone, Default)]
pub(crate) struct Index {
    leaves: Vec<Arc<Rows>>,
}

/// The first `i < n` for which `pred(i)` is false, as a forward scan eight
/// at a stride: binary search over the keys measured 1.8–2.7× slower at
/// these sizes (DESIGN §14).
fn scan(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut i = 0;
    while i + 8 <= n && pred(i + 7) {
        i += 8;
    }
    while i < n && pred(i) {
        i += 1;
    }
    i
}

/// `leaves`' rows in one `Rows`: both buffers sized first, then one copy
/// per leaf.
fn concat(leaves: &[Arc<Rows>]) -> Rows {
    let len = leaves.iter().map(|leaf| leaf.len()).sum();
    let mut rows = Rows::with_capacity(len, leaves.iter().map(|leaf| leaf.bytes()).sum());
    leaves.iter().for_each(|leaf| rows.extend_from(leaf, 0..leaf.len()));
    rows
}

impl Index {
    /// The index of `entries`, which must be in strictly increasing key
    /// order: leaves packed to a fixed fill, in one pass.
    pub(crate) fn from_sorted<'a>(entries: impl IntoIterator<Item = (&'a str, &'a str)>) -> Index {
        let (mut leaves, mut leaf) = (Vec::new(), Rows::with_capacity(FILL, 0));
        for (key, value) in entries {
            if leaf.len() == FILL {
                // Size the next leaf like the last one.
                let next = Rows::with_capacity(FILL, leaf.bytes());
                leaves.push(Arc::new(std::mem::replace(&mut leaf, next)));
            }
            leaf.push(key, value);
        }
        if !leaf.is_empty() {
            leaves.push(Arc::new(leaf));
        }
        Index { leaves }
    }

    /// Every entry, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.leaves.iter().flat_map(|leaf| leaf.iter())
    }

    /// Every entry, packed.
    pub(crate) fn rows(&self) -> Rows {
        concat(&self.leaves)
    }

    /// Where `key` is or would go: its leaf, the slot in it, and whether
    /// that slot holds `key`. `None` only for an index with no leaf.
    fn locate(&self, key: &str) -> Option<(usize, usize, bool)> {
        // The first leaf also takes every key below its first.
        let key = key.as_bytes();
        let li = scan(self.leaves.len().checked_sub(1)?, |l| self.leaves[l + 1].key(0) <= key);
        let leaf = &self.leaves[li];
        let at = scan(leaf.len(), |i| leaf.key(i) < key);
        Some((li, at, at < leaf.len() && leaf.key(at) == key))
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        let (li, at, found) = self.locate(key)?;
        found.then(|| self.leaves[li].row(at).1)
    }

    /// Map `key` to `value`, returning the displaced value.
    pub(crate) fn insert(&mut self, key: &str, value: &str) -> Option<String> {
        let Some((li, at, found)) = self.locate(key) else {
            self.leaves.push(Arc::new(Rows::from_iter([(key, value)])));
            return None;
        };
        let leaf = &self.leaves[li];
        let old = found.then(|| leaf.row(at).1.to_string());
        let mut new = Rows::with_capacity(leaf.len() + 1, leaf.bytes() + key.len() + value.len());
        new.extend_from(leaf, 0..at);
        new.push(key, value);
        new.extend_from(leaf, at + usize::from(found)..leaf.len());
        if new.len() <= LEAF_MAX {
            self.leaves[li] = Arc::new(new);
        } else {
            let halves = [0..new.len() / 2, new.len() / 2..new.len()].map(|half| {
                let mut leaf = Rows::default();
                leaf.extend_from(&new, half);
                Arc::new(leaf)
            });
            self.leaves.splice(li..=li, halves);
        }
        old
    }

    /// Unmap `key`, returning its value. A miss copies nothing.
    pub(crate) fn remove(&mut self, key: &str) -> Option<String> {
        let (li, at, true) = self.locate(key)? else { return None };
        let leaf = &self.leaves[li];
        let old = leaf.row(at).1.to_string();
        if leaf.len() == 1 {
            self.leaves.remove(li);
            return Some(old);
        }
        let mut new = Rows::with_capacity(leaf.len() - 1, leaf.bytes());
        new.extend_from(leaf, 0..at);
        new.extend_from(leaf, at + 1..leaf.len());
        self.leaves[li] = Arc::new(new);
        // One entry ago the leaf was above the threshold with either
        // neighbour, so one merge restores the invariant on both sides.
        let small = |l: usize| {
            self.leaves.get(l..l + 2).is_some_and(|p| p[0].len() + p[1].len() <= LEAF_MAX / 2)
        };
        if let Some(l) = (li.saturating_sub(1)..=li).find(|&l| small(l)) {
            let merged = concat(&self.leaves[l..l + 2]);
            self.leaves.splice(l..l + 2, [Arc::new(merged)]);
        }
        Some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(n: usize) -> String {
        format!("k{n:03}")
    }

    /// The invariants of the module docs.
    fn check(ix: &Index) {
        for (i, leaf) in ix.leaves.iter().enumerate() {
            assert!(!leaf.is_empty() && leaf.len() <= LEAF_MAX, "leaf {i}: {} entries", leaf.len());
            assert!((1..leaf.len()).all(|j| leaf.key(j - 1) < leaf.key(j)), "leaf {i} order");
            if let Some(next) = ix.leaves.get(i + 1) {
                assert!(leaf.key(leaf.len() - 1) < next.key(0), "leaf {i} reaches past the next");
                assert!(leaf.len() + next.len() > LEAF_MAX / 2, "leaf {i} should have merged");
            }
        }
    }

    fn same(ix: &Index, oracle: &BTreeMap<String, String>) -> bool {
        ix.iter().eq(oracle.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Fill past `4 * LEAF_MAX` entries, drain most, then the rest in key
        /// order (emptying the first leaf over and over), beside a `BTreeMap`.
        #[test]
        fn index_agrees_with_a_btreemap_and_keeps_its_invariants(
            ops in proptest::collection::vec((0u8..8, 0usize..384, 0usize..384), 1800),
        ) {
            let (mut ix, mut oracle, mut peak) = (Index::default(), BTreeMap::new(), 0);
            let drain = (0..384).map(|k| (1, k, k));
            for (i, (roll, k, probe)) in ops.into_iter().chain(drain).enumerate() {
                let (k, v) = (key(k), roll.to_string());
                if (roll > 0) == (i < 1000) {
                    prop_assert_eq!(ix.insert(&k, &v), oracle.insert(k, v));
                } else {
                    prop_assert_eq!(ix.remove(&k), oracle.remove(&k));
                }
                check(&ix);
                prop_assert_eq!(ix.get(&key(probe)), oracle.get(&key(probe)).map(String::as_str));
                prop_assert!(same(&ix, &oracle));
                peak = peak.max(oracle.len());
            }
            prop_assert!(peak > 4 * LEAF_MAX && ix.leaves.is_empty(), "peak {}", peak);
        }

        /// The in-order builder packs valid leaves that hold what inserting
        /// the same entries one by one does, and a scan of either is its
        /// entries collected.
        #[test]
        fn the_builder_equals_inserting_one_by_one(
            entries in proptest::collection::hash_map("[a-z]{1,4}", "[a-z]{0,3}", 0..400)
                .prop_map(|m| m.into_iter().collect::<BTreeMap<_, _>>()),
        ) {
            let pairs = || entries.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            let built = Index::from_sorted(pairs());
            let mut inserted = Index::default();
            pairs().for_each(|(k, v)| prop_assert_eq!(inserted.insert(k, v), None));
            check(&built);
            prop_assert!(same(&built, &entries) && same(&inserted, &entries));
            for ix in [&built, &inserted] {
                prop_assert_eq!(ix.rows(), ix.iter().collect::<Rows>());
            }
        }
    }

    /// The O(leaf) claim as counts: a clone shares every leaf, and one write
    /// unshares at most the leaf it touches and a neighbour.
    #[test]
    fn a_write_shares_every_leaf_it_does_not_touch() {
        let mut old = Index::default();
        (0..1024).for_each(|n| drop(old.insert(&key(n), "v")));
        let original = old.rows();
        let shared = |leaf: &Arc<Rows>| old.leaves.iter().any(|l| Arc::ptr_eq(leaf, l));
        for op in 0..3 {
            let mut new = old.clone();
            match op {
                0 => assert_eq!(new.insert("k250x", "new"), None),
                1 => assert_eq!(new.insert(&key(300), "over").as_deref(), Some("v")),
                _ => assert_eq!(new.remove("k400").as_deref(), Some("v")),
            }
            let kept = new.leaves.iter().filter(|leaf| shared(leaf)).count();
            assert!(kept >= old.leaves.len() - 2 && kept < new.leaves.len(), "op {op}: {kept}");
        }
        assert_eq!(old.rows(), original, "the snapshot moved");
    }
}
