//! A shard's index: one persistent ordered map of packed leaves, held in
//! two levels.
//!
//! The index is a run of leaves in key order; a leaf is a [`Rows`] of at
//! most [`LEAF_MAX`] sorted entries behind an `Arc`, its keys and values
//! in one `String`. The leaves sit in chunks, each one allocation of at
//! most [`CHUNK_MAX`] leaf `Arc`s, and the root is the run of chunks. A
//! leaf's bound is its first key and a chunk's is its first leaf's, so no
//! bound is stored. `clone` copies the root and shares every chunk (one
//! refcount bump per chunk); `insert`/`remove` build the one leaf they
//! touch anew, copying its bytes in one pass — no refcount per entry, no
//! allocation per key — and the one chunk that holds it, and leave every
//! other chunk shared: a write costs the root, one chunk and one leaf, so
//! it bumps O(√n) refcounts for n leaves, not n.
//!
//! Invariants: leaves are non-empty and sorted; a leaf's last key is `<`
//! the next leaf's first; no leaf exceeds `LEAF_MAX`; no two adjacent
//! leaves, in one chunk or across a chunk boundary, sum to
//! `<= LEAF_MAX / 2`. Chunks are non-empty, hold at most `CHUNK_MAX`
//! leaves, and no two adjacent chunks sum to `<= CHUNK_MAX / 2` leaves.
//! The two "adjacent" rules are what bound the root and the chunk a write
//! copies under delete-heavy load.

use std::ops::Range;
use std::sync::Arc;

use crate::Rows;

/// Entries per leaf before it splits in half.
const LEAF_MAX: usize = 64;

/// Entries per leaf [`Index::from_sorted`] packs: room for a quarter of
/// `LEAF_MAX` inserts before a rebuilt leaf splits.
const FILL: usize = LEAF_MAX * 3 / 4;

/// Leaves per chunk before it splits in half. A put on a 2 048-entry
/// shard built in order copies a 4-entry root and a 12-leaf chunk: 16
/// `Arc`s for its 43 leaves.
const CHUNK_MAX: usize = 16;

/// Leaves per chunk [`Index::from_sorted`] packs, at `FILL`'s ratio.
const CHUNK_FILL: usize = CHUNK_MAX * 3 / 4;

type Leaf = Arc<Rows>;

/// A shard's ordered index: a persistent map of packed leaves in chunks.
#[derive(Clone, Default)]
pub(crate) struct Index {
    chunks: Vec<Arc<[Leaf]>>,
}

/// A leaf's place: its chunk and its slot in the chunk.
type Pos = (usize, usize);

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
fn concat<'a>(leaves: impl Iterator<Item = &'a Rows> + Clone) -> Rows {
    let len = leaves.clone().map(Rows::len).sum();
    let mut rows = Rows::with_capacity(len, leaves.clone().map(Rows::bytes).sum());
    leaves.for_each(|leaf| rows.extend_from(leaf, 0..leaf.len()));
    rows
}

impl Index {
    /// The index of `entries`, which must be in strictly increasing key
    /// order: leaves packed to a fixed fill, and chunks too, in one pass.
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
        Index { chunks: leaves.chunks(CHUNK_FILL).map(Arc::from).collect() }
    }

    /// Every leaf, in key order.
    fn leaves(&self) -> impl Iterator<Item = &Rows> + Clone {
        self.chunks.iter().flat_map(|chunk| chunk.iter().map(|leaf| &**leaf))
    }

    /// Every entry, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.leaves().flat_map(Rows::iter)
    }

    /// Every entry, packed.
    pub(crate) fn rows(&self) -> Rows {
        concat(self.leaves())
    }

    fn leaf(&self, (c, l): Pos) -> &Rows {
        &self.chunks[c][l]
    }

    /// Where `key` is or would go: its leaf, the slot in it, and whether
    /// that slot holds `key`. `None` only for an index with no leaf.
    fn locate(&self, key: &str) -> Option<(Pos, usize, bool)> {
        // The first chunk and leaf also take every key below their first.
        let key = key.as_bytes();
        let c = scan(self.chunks.len().checked_sub(1)?, |c| self.chunks[c + 1][0].key(0) <= key);
        let chunk = &self.chunks[c];
        let l = scan(chunk.len() - 1, |l| chunk[l + 1].key(0) <= key);
        let leaf = &chunk[l];
        let at = scan(leaf.len(), |i| leaf.key(i) < key);
        Some(((c, l), at, at < leaf.len() && leaf.key(at) == key))
    }

    /// Replace chunk `c`'s leaves `range` with `with`, rebuilding that one
    /// chunk, then restore the chunk invariants: drop it if empty, split it
    /// in half above `CHUNK_MAX`, or merge it with a neighbour when the two
    /// hold `<= CHUNK_MAX / 2` leaves. A write changes one chunk's leaf
    /// count by at most one, so one merge restores the rule on both sides.
    fn splice<const N: usize>(&mut self, c: usize, range: Range<usize>, with: [Leaf; N]) {
        let (head, tail) = (&self.chunks[c][..range.start], &self.chunks[c][range.end..]);
        let new: Arc<[Leaf]> =
            head.iter().cloned().chain(with).chain(tail.iter().cloned()).collect();
        if new.is_empty() {
            self.chunks.remove(c);
        } else if new.len() > CHUNK_MAX {
            let (low, high) = new.split_at(new.len() / 2);
            self.chunks.splice(c..=c, [low.into(), high.into()]);
        } else {
            self.chunks[c] = new;
            let small = |c: usize| {
                self.chunks.get(c..c + 2).is_some_and(|p| p[0].len() + p[1].len() <= CHUNK_MAX / 2)
            };
            if let Some(c) = (c.saturating_sub(1)..=c).find(|&c| small(c)) {
                let (low, high) = (self.chunks[c].iter(), self.chunks[c + 1].iter());
                self.chunks.splice(c..c + 2, [low.chain(high).cloned().collect()]);
            }
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        let (pos, at, found) = self.locate(key)?;
        found.then(|| self.leaf(pos).row(at).1)
    }

    /// Map `key` to `value`, returning the displaced value.
    pub(crate) fn insert(&mut self, key: &str, value: &str) -> Option<String> {
        let Some(((c, l), at, found)) = self.locate(key) else {
            self.chunks.push(Arc::new([Arc::new(Rows::from_iter([(key, value)]))]));
            return None;
        };
        let leaf = self.leaf((c, l));
        let old = found.then(|| leaf.row(at).1.to_string());
        let mut new = Rows::with_capacity(leaf.len() + 1, leaf.bytes() + key.len() + value.len());
        new.extend_from(leaf, 0..at);
        new.push(key, value);
        new.extend_from(leaf, at + usize::from(found)..leaf.len());
        if new.len() <= LEAF_MAX {
            self.splice(c, l..l + 1, [Arc::new(new)]);
        } else {
            let halves = [0..new.len() / 2, new.len() / 2..new.len()].map(|half| {
                let mut leaf = Rows::default();
                leaf.extend_from(&new, half);
                Arc::new(leaf)
            });
            self.splice(c, l..l + 1, halves);
        }
        old
    }

    /// Unmap `key`, returning its value. A miss copies nothing.
    pub(crate) fn remove(&mut self, key: &str) -> Option<String> {
        let (pos, at, true) = self.locate(key)? else { return None };
        let (c, l) = pos;
        let leaf = self.leaf(pos);
        let old = leaf.row(at).1.to_string();
        if leaf.len() == 1 {
            self.splice(c, l..l + 1, []);
            return Some(old);
        }
        let mut new = Rows::with_capacity(leaf.len() - 1, leaf.bytes());
        new.extend_from(leaf, 0..at);
        new.extend_from(leaf, at + 1..leaf.len());
        // One entry ago the leaf was above the threshold with either
        // neighbour, in its chunk or across a chunk boundary, so one merge
        // restores the invariant on both sides.
        let prev = match l {
            0 => c.checked_sub(1).map(|p| (p, self.chunks[p].len() - 1)),
            l => Some((c, l - 1)),
        };
        let next = match l + 1 {
            n if n < self.chunks[c].len() => Some((c, n)),
            _ => (c + 1 < self.chunks.len()).then_some((c + 1, 0)),
        };
        let small = |p: &Pos| self.leaf(*p).len() + new.len() <= LEAF_MAX / 2;
        let ((ac, al), (bc, bl), merged) = if let Some(p) = prev.filter(small) {
            (p, pos, concat([self.leaf(p), &new].into_iter()))
        } else if let Some(n) = next.filter(small) {
            (pos, n, concat([&new, self.leaf(n)].into_iter()))
        } else {
            self.splice(c, l..l + 1, [Arc::new(new)]);
            return Some(old);
        };
        if ac == bc {
            self.splice(ac, al..bl + 1, [Arc::new(merged)]);
        } else {
            // The first chunk keeps its leaf count, so only the second's
            // can merge.
            self.splice(ac, al..al + 1, [Arc::new(merged)]);
            self.splice(bc, 0..1, []);
        }
        Some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    /// Keys the model test draws from: enough that its fill passes three
    /// chunks.
    const KEYS: usize = 4096;

    fn key(n: usize) -> String {
        format!("k{n:04}")
    }

    /// The invariants of the module docs; the leaf rules run over the
    /// whole run of leaves, so they hold across chunk boundaries. A leaf
    /// `before` holds too was checked inside when it was built.
    fn check(ix: &Index, before: &Index) {
        for (c, chunk) in ix.chunks.iter().enumerate() {
            assert!(
                !chunk.is_empty() && chunk.len() <= CHUNK_MAX,
                "chunk {c}: {} leaves",
                chunk.len()
            );
            if let Some(next) = ix.chunks.get(c + 1) {
                assert!(chunk.len() + next.len() > CHUNK_MAX / 2, "chunk {c} should have merged");
            }
        }
        let checked: HashSet<*const Rows> = before.leaves().map(std::ptr::from_ref).collect();
        let leaves: Vec<&Rows> = ix.leaves().collect();
        for (i, &leaf) in leaves.iter().enumerate() {
            assert!(!leaf.is_empty() && leaf.len() <= LEAF_MAX, "leaf {i}: {} entries", leaf.len());
            let sorted = || (1..leaf.len()).all(|j| leaf.key(j - 1) < leaf.key(j));
            assert!(checked.contains(&std::ptr::from_ref(leaf)) || sorted(), "leaf {i} order");
            if let Some(next) = leaves.get(i + 1) {
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

        /// Fill past three chunks of half-full leaves, drain some, then the
        /// rest in key order (emptying the first leaf, and with it the
        /// first chunk, over and over), beside a `BTreeMap`. Every op checks
        /// the invariants, a probe and the entry count; every 16th compares
        /// every entry.
        #[test]
        fn index_agrees_with_a_btreemap_and_keeps_its_invariants(
            ops in proptest::collection::vec((0u8..8, 0..KEYS, 0..KEYS), 4000),
        ) {
            let (mut ix, mut oracle, mut peak) = (Index::default(), BTreeMap::new(), 0);
            for i in 0.. {
                let before = ix.clone();
                // The generated ops, then the rest of the keys in order.
                let (k, probe) = if let Some(&(roll, k, probe)) = ops.get(i) {
                    let (k, v) = (key(k), roll.to_string());
                    if (roll > 0) == (i < 3000) {
                        prop_assert_eq!(ix.insert(&k, &v), oracle.insert(k.clone(), v));
                    } else {
                        prop_assert_eq!(ix.remove(&k), oracle.remove(&k));
                    }
                    (k, key(probe))
                } else if let Some((k, v)) = oracle.pop_first() {
                    prop_assert_eq!(ix.remove(&k), Some(v));
                    (k.clone(), k)
                } else {
                    break;
                };
                check(&ix, &before);
                prop_assert_eq!(ix.get(&k), oracle.get(&k).map(String::as_str));
                prop_assert_eq!(ix.get(&probe), oracle.get(&probe).map(String::as_str));
                prop_assert_eq!(ix.leaves().map(Rows::len).sum::<usize>(), oracle.len());
                prop_assert!(i % 16 > 0 || same(&ix, &oracle));
                peak = peak.max(oracle.len());
            }
            let bound = 3 * CHUNK_MAX * LEAF_MAX / 2;
            prop_assert!(peak > bound && ix.chunks.is_empty(), "peak {} of {}", peak, bound);
        }

        /// The in-order builder packs valid leaves and chunks that hold what
        /// inserting the same entries one by one does, and a scan of either
        /// is its entries collected.
        #[test]
        fn the_builder_equals_inserting_one_by_one(
            entries in proptest::collection::hash_map("[a-z]{1,4}", "[a-z]{0,3}", 0..3000)
                .prop_map(|m| m.into_iter().collect::<BTreeMap<_, _>>()),
        ) {
            let pairs = || entries.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            let built = Index::from_sorted(pairs());
            let mut inserted = Index::default();
            pairs().for_each(|(k, v)| prop_assert_eq!(inserted.insert(k, v), None));
            check(&built, &Index::default());
            prop_assert!(same(&built, &entries) && same(&inserted, &entries));
            for ix in [&built, &inserted] {
                prop_assert_eq!(ix.rows(), ix.iter().collect::<Rows>());
            }
        }
    }

    /// The O(√n) claim as counts, on 2 048 entries built in order and
    /// inserted one by one: a clone shares every chunk, and one write
    /// unshares at most the chunk it touches and a neighbour. The `Arc`s it
    /// copies (the root's entries and the rebuilt chunk's leaves) are at
    /// most `2 * CHUNK_MAX` of the index's 43 or 64 leaves.
    #[test]
    fn a_write_copies_the_root_and_one_chunk() {
        let keys: Vec<String> = (0..2048).map(key).collect();
        let built = Index::from_sorted(keys.iter().map(|k| (k.as_str(), "v")));
        let mut inserted = Index::default();
        keys.iter().for_each(|k| drop(inserted.insert(k, "v")));
        for old in [built, inserted] {
            let original = old.rows();
            let shared = |chunk: &Arc<[Leaf]>| old.chunks.iter().any(|c| Arc::ptr_eq(c, chunk));
            for op in 0..3 {
                let mut new = old.clone();
                match op {
                    0 => assert_eq!(new.insert("k0250x", "new"), None),
                    1 => assert_eq!(new.insert(&key(700), "over").as_deref(), Some("v")),
                    _ => assert_eq!(new.remove("k1400").as_deref(), Some("v")),
                }
                let kept = new.chunks.iter().filter(|chunk| shared(chunk)).count();
                assert!(kept >= old.chunks.len() - 2 && kept < new.chunks.len(), "op {op}: {kept}");
                let rebuilt =
                    new.chunks.iter().filter(|chunk| !shared(chunk)).map(|chunk| chunk.len());
                let copied = new.chunks.len() + rebuilt.sum::<usize>();
                assert!(copied <= 2 * CHUNK_MAX, "op {op}: {copied} Arcs copied");
            }
            assert_eq!(old.rows(), original, "the snapshot moved");
        }
    }
}
