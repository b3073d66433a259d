//! Bit-identity pins for [`mpvl_sparse::min_degree`].
//!
//! The production ordering picks its pivots from a min-heap and rebuilds
//! each clique member's adjacency with at most one sorted merge. It must
//! return exactly the permutation of the straightforward quadratic
//! variant kept below as the reference: smallest current degree first,
//! ties to the smallest index. Every downstream fingerprint (the `L` pattern, the
//! factor values, the reduced models) depends on that permutation.

use mpvl_circuit::generators::{interconnect, package, InterconnectParams, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_sparse::{is_permutation, min_degree, CscMat};
use mpvl_testkit::prop::{check, vec_in};
use mpvl_testkit::{fnv1a, prop_assert, prop_assert_eq};

/// The quadratic reference: a linear pivot scan and per-neighbour sorted
/// inserts on the explicit elimination graph.
fn reference_min_degree(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut g: Vec<Vec<usize>> = adj.to_vec();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if !eliminated[v] && g[v].len() < best_deg {
                best = v;
                best_deg = g[v].len();
            }
        }
        let v = best;
        eliminated[v] = true;
        order.push(v);
        let nbrs: Vec<usize> = g[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        for &u in &nbrs {
            let set = &mut g[u];
            if let Ok(pos) = set.binary_search(&v) {
                set.remove(pos);
            }
            for &w in &nbrs {
                if w != u {
                    if let Err(pos) = set.binary_search(&w) {
                        set.insert(pos, w);
                    }
                }
            }
        }
        g[v].clear();
    }
    order
}

/// Sorted, duplicate-free, loop-free symmetric adjacency from an edge
/// list over `n` vertices (the shape `CscMat::adjacency` returns).
fn graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for (a, b) in edges {
        if a != b {
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

fn grid(rows: usize, cols: usize) -> Vec<Vec<usize>> {
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    graph(rows * cols, edges)
}

fn star(n: usize) -> Vec<Vec<usize>> {
    graph(n, (1..n).map(|i| (0, i)))
}

fn clique(n: usize) -> Vec<Vec<usize>> {
    graph(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))))
}

/// Disjoint union, relabelling `b`'s vertices after `a`'s.
fn union(a: Vec<Vec<usize>>, b: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let off = a.len();
    let mut out = a;
    out.extend(b.iter().map(|l| l.iter().map(|&u| u + off).collect()));
    out
}

fn assert_same_ordering(adj: &[Vec<usize>]) -> Result<(), String> {
    let new = min_degree(adj);
    prop_assert!(is_permutation(&new, adj.len()));
    prop_assert_eq!(new, reference_min_degree(adj));
    Ok(())
}

#[test]
fn heap_ordering_matches_the_quadratic_reference() {
    // kind picks the family; a, b size it; the edge list drives the
    // random graphs (endpoints are reduced modulo the vertex count).
    let strategy = (
        (0..6usize, 0..40usize, 0..40usize),
        vec_in((0..1000usize, 0..1000usize), 0..160),
    );
    check(
        "heap_ordering_matches_the_quadratic_reference",
        512,
        strategy,
        |((kind, a, b), edges)| {
            let random = |n: usize| {
                if n == 0 {
                    Vec::new()
                } else {
                    graph(n, edges.iter().map(|&(u, v)| (u % n, v % n)))
                }
            };
            let adj = match kind {
                0 => random(*a + *b),
                1 => grid(*a % 25, *b % 25),
                2 => star(*a + 1),
                3 => clique(*a % 20),
                4 => union(
                    union(random(*a), &grid(*b % 8, 5)),
                    &vec![Vec::new(); *b % 4],
                ),
                _ => vec![Vec::new(); *a],
            };
            assert_same_ordering(&adj)
        },
    );
}

#[test]
fn assembled_circuits_order_like_the_reference() {
    let mut systems = Vec::new();
    for (wires, reach) in [(3, 2), (8, 4)] {
        let ckt = interconnect(&InterconnectParams {
            wires,
            coupling_reach: reach,
            ..InterconnectParams::default()
        });
        systems.push(MnaSystem::assemble(&ckt).expect("assemble"));
    }
    let ckt = package(&PackageParams {
        pins: 10,
        signal_pins: vec![0, 5],
        sections: 4,
        ..PackageParams::default()
    });
    systems.push(MnaSystem::assemble_general(&ckt).expect("assemble"));
    for sys in &systems {
        // The pattern SyMPVL and the AC sweep factor: G + s₀C.
        let k: CscMat<f64> = sys.g.add_scaled(1.0, &sys.c, 1e9);
        assert_same_ordering(&k.adjacency()).unwrap();
        assert_same_ordering(&sys.g.adjacency()).unwrap();
    }
}

/// FNV-1a over the little-endian `u64` entries of the permutation,
/// captured from the quadratic implementation before the heap rewrite.
#[test]
fn grid_100x100_permutation_is_pinned() {
    let perm = min_degree(&grid(100, 100));
    let bytes: Vec<u8> = perm
        .iter()
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    assert_eq!(fnv1a(&bytes), 0xe361_0400_3e23_897d);
}
