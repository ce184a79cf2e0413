//! `LockOrder` against a naive oracle on every graph over three locks.
//!
//! Each of the six ordered pairs is absent, revocable-only or firm, so
//! there are 3^6 = 729 graphs. For each, `cycles()` must equal the
//! components of two or more locks of the transitive closure over firm
//! edges, and `inversions()` the firm edges whose two ends reach each
//! other. This covers the shapes the three feeders used to test one by
//! one: a consistent order, a cycle carried only by revocable
//! acquisitions, and the three-lock rotation.

// The oracle indexes 3 x 3 adjacency matrices by lock number on purpose.
#![allow(clippy::needless_range_loop)]

use txfix_txlock::LockOrder;

const LOCKS: [&str; 3] = ["a", "b", "c"];

#[derive(Clone, Copy, PartialEq)]
enum Edge {
    Absent,
    Revocable,
    Firm,
}

/// Graph number `n` (base 3): one digit per ordered pair `(i, j)`, `i != j`.
fn graph(n: usize) -> [[Edge; 3]; 3] {
    let mut g = [[Edge::Absent; 3]; 3];
    let mut digits = n;
    for (i, row) in g.iter_mut().enumerate() {
        for (j, e) in row.iter_mut().enumerate() {
            if i != j {
                *e = [Edge::Absent, Edge::Revocable, Edge::Firm][digits % 3];
                digits /= 3;
            }
        }
    }
    g
}

/// Feed `g` through `attempt`. A firm edge is also witnessed revocably,
/// before or after the firm witness, so the flag must stick either way.
fn build(g: &[[Edge; 3]; 3], n: usize) -> LockOrder<&'static str> {
    let mut order = LockOrder::default();
    for i in 0..3 {
        for j in 0..3 {
            let (held, lock) = ([LOCKS[i]], LOCKS[j]);
            match g[i][j] {
                Edge::Absent => {}
                Edge::Revocable => order.attempt(&held, &lock, false),
                Edge::Firm if n.is_multiple_of(2) => {
                    order.attempt(&held, &lock, true);
                    order.attempt(&held, &lock, false);
                }
                Edge::Firm => {
                    order.attempt(&held, &lock, false);
                    order.attempt(&held, &lock, true);
                }
            }
        }
    }
    // A lock never orders against itself.
    order.attempt(&["a"], &"a", true);
    order
}

/// `reach[i][j]`: a path of one or more firm edges leads from `i` to `j`.
fn closure(g: &[[Edge; 3]; 3]) -> [[bool; 3]; 3] {
    let mut reach = [[false; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            reach[i][j] = g[i][j] == Edge::Firm;
        }
    }
    for k in 0..3 {
        for i in 0..3 {
            for j in 0..3 {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    reach
}

#[test]
fn every_three_lock_graph_matches_the_naive_closure() {
    let mut shapes = [0usize; 3]; // graphs with no cycle, one 2-cycle, one 3-cycle
    for n in 0..729 {
        let g = graph(n);
        let order = build(&g, n);
        let reach = closure(&g);

        let edges: Vec<(&str, &str)> = order.edges().map(|(a, b)| (*a, *b)).collect();
        let mut expected_edges = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                if g[i][j] != Edge::Absent {
                    expected_edges.push((LOCKS[i], LOCKS[j]));
                }
            }
        }
        assert_eq!(edges, expected_edges, "graph {n}: edges");

        let mut expected_cycles: Vec<Vec<&str>> = Vec::new();
        for i in 0..3 {
            let scc: Vec<&str> = (0..3)
                .filter(|&j| j == i || (reach[i][j] && reach[j][i]))
                .map(|j| LOCKS[j])
                .collect();
            if scc.len() >= 2 && !expected_cycles.contains(&scc) {
                expected_cycles.push(scc);
            }
        }
        expected_cycles.sort();
        assert_eq!(order.cycles(), expected_cycles, "graph {n}: cycles");

        let mut expected_inversions = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                let pair = (LOCKS[i.min(j)], LOCKS[i.max(j)]);
                if g[i][j] == Edge::Firm && reach[j][i] && !expected_inversions.contains(&pair) {
                    expected_inversions.push(pair);
                }
            }
        }
        expected_inversions.sort();
        assert_eq!(order.inversions(), expected_inversions, "graph {n}: inversions");

        shapes[expected_cycles.first().map_or(0, Vec::len).saturating_sub(1)] += 1;
    }
    // The enumeration reaches every shape: clean graphs (consistent or
    // revocable-only orders), two-lock inversions and three-lock cycles.
    assert!(shapes.iter().all(|&s| s > 0), "{shapes:?}");
}

#[test]
fn the_three_lock_rotation_is_one_cycle_with_three_inversions() {
    let mut order = LockOrder::default();
    for (held, lock) in [("a", "b"), ("b", "c"), ("c", "a")] {
        order.attempt(&[held], &lock, true);
    }
    assert_eq!(order.cycles(), vec![vec!["a", "b", "c"]]);
    assert_eq!(order.inversions(), vec![("a", "b"), ("a", "c"), ("b", "c")]);
}
