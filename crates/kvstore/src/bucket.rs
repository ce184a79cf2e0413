//! The persistent ordered map behind one hash bucket of the index.
//!
//! A bucket is a table of `(lower bound, leaf)` in key order; a leaf is a
//! sorted run of at most [`LEAF_MAX`] entries behind an `Arc`. `clone`
//! copies the table and shares every leaf; `insert`/`remove` reach their
//! leaf through `Arc::make_mut`, so a shared leaf is copied once and an
//! unshared one edited in place: a write costs the table plus one leaf.
//!
//! Invariants: leaves are non-empty and sorted; every key is `>=` its
//! leaf's bound and `<` the next; the first bound is `""`; no leaf exceeds
//! `LEAF_MAX`; no two adjacent leaves sum to `<= LEAF_MAX / 2`, which is
//! what bounds the table a write clones under delete-heavy load.

use std::sync::Arc;

/// One key/value pair; versions of a bucket share the strings.
pub(crate) type Entry = (Arc<str>, Arc<str>);

/// Entries per leaf before it splits in half.
const LEAF_MAX: usize = 32;

/// One hash bucket of a shard's index: a persistent map of shared strings.
#[derive(Clone, Default)]
pub(crate) struct Bucket {
    leaves: Vec<(Arc<str>, Arc<Vec<Entry>>)>,
}

/// `xs.partition_point(pred)` as a forward scan, eight at a stride: binary
/// search over `Arc<str>` keys measured 1.8–2.7× slower at these sizes.
fn scan<T>(xs: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut i = 0;
    while i + 8 <= xs.len() && pred(&xs[i + 7]) {
        i += 8;
    }
    while i < xs.len() && pred(&xs[i]) {
        i += 1;
    }
    i
}

impl Bucket {
    pub(crate) fn len(&self) -> usize {
        self.leaves.iter().map(|(_, leaf)| leaf.len()).sum()
    }

    /// Every entry, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.leaves.iter().flat_map(|(_, leaf)| leaf.iter())
    }

    /// Where `key` is or would go: its leaf, the slot in it, and whether
    /// that slot holds `key`. `None` only for a bucket with no leaf.
    fn locate(&self, key: &str) -> Option<(usize, usize, bool)> {
        // The first bound is "" and admits every key.
        let li = scan(self.leaves.get(1..)?, |(bound, _)| **bound <= *key);
        let leaf = &self.leaves[li].1;
        let at = scan(leaf, |(k, _)| **k < *key);
        Some((li, at, leaf.get(at).is_some_and(|(k, _)| **k == *key)))
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Arc<str>> {
        let (li, at, found) = self.locate(key)?;
        found.then(|| &self.leaves[li].1[at].1)
    }

    /// Map `key` to `value`, returning the displaced value.
    pub(crate) fn insert(&mut self, key: Arc<str>, value: Arc<str>) -> Option<Arc<str>> {
        let Some((li, at, found)) = self.locate(&key) else {
            self.leaves.push(("".into(), Arc::new(vec![(key, value)])));
            return None;
        };
        let leaf = Arc::make_mut(&mut self.leaves[li].1);
        if found {
            return Some(std::mem::replace(&mut leaf[at].1, value));
        }
        leaf.insert(at, (key, value));
        if leaf.len() > LEAF_MAX {
            let right = leaf.split_off(leaf.len() / 2);
            self.leaves.insert(li + 1, (right[0].0.clone(), Arc::new(right)));
        }
        None
    }

    /// Unmap `key`, returning its value. A miss copies nothing.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Arc<str>> {
        let (li, at, true) = self.locate(key)? else { return None };
        let old = Arc::make_mut(&mut self.leaves[li].1).remove(at).1;
        let small = |l: usize| match self.leaves.get(l..l + 2) {
            Some([(_, a), (_, b)]) => a.len() + b.len() <= LEAF_MAX / 2,
            _ => false,
        };
        if self.leaves[li].1.is_empty() {
            // Drop the leaf; a new first leaf inherits the "" bound.
            let (bound, _) = self.leaves.remove(li);
            if let (0, Some(first)) = (li, self.leaves.first_mut()) {
                first.0 = bound;
            }
        } else if let Some(l) = (li.saturating_sub(1)..=li).find(|&l| small(l)) {
            // One entry ago the leaf was above the threshold with either
            // neighbour, so one merge restores the invariant on both sides.
            let (_, right) = self.leaves.remove(l + 1);
            Arc::make_mut(&mut self.leaves[l].1).extend(Arc::unwrap_or_clone(right));
        }
        Some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(n: usize) -> Arc<str> {
        format!("k{n:03}").into()
    }

    /// The invariants of the module docs.
    fn check(b: &Bucket) {
        assert!(b.leaves.first().is_none_or(|(bound, _)| bound.is_empty()));
        for (i, (bound, leaf)) in b.leaves.iter().enumerate() {
            assert!(!leaf.is_empty() && leaf.len() <= LEAF_MAX, "leaf {i}: {} entries", leaf.len());
            assert!(*bound <= leaf[0].0 && leaf.is_sorted_by(|a, b| a.0 < b.0), "leaf {i} order");
            if let Some((next, after)) = b.leaves.get(i + 1) {
                assert!(leaf[leaf.len() - 1].0 < *next, "leaf {i} reaches past the next bound");
                assert!(leaf.len() + after.len() > LEAF_MAX / 2, "leaf {i} should have merged");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Fill past `4 * LEAF_MAX` entries, drain most, then the rest in key
        /// order (emptying the first leaf over and over), beside a `BTreeMap`.
        #[test]
        fn bucket_agrees_with_a_btreemap_and_keeps_its_invariants(
            ops in proptest::collection::vec((0u8..8, 0usize..192, 0usize..192), 900),
        ) {
            let (mut b, mut oracle, mut peak) = (Bucket::default(), BTreeMap::new(), 0);
            let drain = (0..192).map(|k| (1, k, k));
            for (i, (roll, k, probe)) in ops.into_iter().chain(drain).enumerate() {
                let (k, v) = (key(k), Arc::<str>::from(roll.to_string()));
                if (roll > 0) == (i < 500) {
                    prop_assert_eq!(b.insert(k.clone(), v.clone()), oracle.insert(k, v));
                } else {
                    prop_assert_eq!(b.remove(&k), oracle.remove(&k));
                }
                check(&b);
                prop_assert_eq!(b.len(), oracle.len());
                prop_assert_eq!(b.get(&key(probe)), oracle.get(&key(probe)));
                prop_assert!(b.iter().map(|(k, v)| (k, v)).eq(oracle.iter()));
                peak = peak.max(b.len());
            }
            prop_assert!(peak > 4 * LEAF_MAX && b.leaves.is_empty(), "peak {}", peak);
        }
    }

    /// The O(leaf) claim as counts: a clone shares every leaf, and one write
    /// unshares at most the leaf it touches and a neighbour.
    #[test]
    fn a_write_shares_every_leaf_it_does_not_touch() {
        let mut old = Bucket::default();
        (0..512).for_each(|n| drop(old.insert(key(n), "v".into())));
        let original: Vec<Entry> = old.iter().cloned().collect();
        let untouched = &old.leaves[0].1[1].0;
        let refs = Arc::strong_count(untouched); // a flat map's clone would add one
        let shared = |leaf: &Arc<Vec<Entry>>| old.leaves.iter().any(|(_, l)| Arc::ptr_eq(leaf, l));
        for op in 0..3 {
            let mut new = old.clone();
            match op {
                0 => assert_eq!(new.insert("k250x".into(), "new".into()), None),
                1 => assert_eq!(new.insert(key(300), "over".into()).as_deref(), Some("v")),
                _ => assert_eq!(new.remove("k400").as_deref(), Some("v")),
            }
            let kept = new.leaves.iter().filter(|(_, leaf)| shared(leaf)).count();
            assert!(kept >= old.leaves.len() - 2 && kept < new.leaves.len(), "op {op}: {kept}");
            assert_eq!(Arc::strong_count(untouched), refs, "op {op} bumped an untouched entry");
        }
        assert!(old.len() == 512 && old.iter().eq(original.iter()), "the snapshot moved");
    }
}
