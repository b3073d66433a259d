//! Bit-identity pins for [`mpvl_sparse::quotient_min_degree`].
//!
//! The production ordering picks its pivots from a lazy min-heap, marks
//! absorbed elements with stamps and buckets supervariable candidates by
//! a hash of their sorted adjacency. It must return exactly the
//! permutation of the scan-based variant kept below as the reference:
//! smallest external degree first, ties to the smallest index. Above
//! `EXPLICIT_MD_MAX` unknowns `Ordering::MinDegree` is this ordering, so
//! the `L` pattern and factor values of every large system depend on it.

use mpvl_circuit::generators::{interconnect, package, InterconnectParams, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_sparse::{
    compute_ordering, is_permutation, min_degree, quotient_min_degree, CscMat, Ordering,
    EXPLICIT_MD_MAX,
};
use mpvl_testkit::prop::{check, vec_in};
use mpvl_testkit::{fnv1a, prop_assert, prop_assert_eq};
use std::collections::HashMap;

/// The scan-based reference: an O(n) pivot scan per step, linear
/// membership tests and supervariable buckets keyed on cloned lists.
fn reference_quotient_min_degree(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    if n == 0 {
        return Vec::new();
    }
    let mut var_adj: Vec<Vec<usize>> = adj
        .iter()
        .map(|l| {
            let mut v = l.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut elem_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut weight = vec![1usize; n];
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Active,
        Merged,
        Eliminated,
    }
    let mut state = vec![State::Active; n];
    let mut degree: Vec<usize> = var_adj.iter().map(|l| l.len()).collect();
    let mut order = Vec::with_capacity(n);
    let mut scratch_mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut remaining: usize = n;
    while remaining > 0 {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for i in 0..n {
            if state[i] == State::Active && degree[i] < best_deg {
                best = i;
                best_deg = degree[i];
            }
        }
        let p = best;
        stamp += 1;
        let mut lp: Vec<usize> = Vec::new();
        let touch = |v: usize, lp: &mut Vec<usize>, mark: &mut Vec<u32>| {
            if mark[v] != stamp {
                mark[v] = stamp;
                lp.push(v);
            }
        };
        for &v in &var_adj[p] {
            if state[v] == State::Active {
                touch(v, &mut lp, &mut scratch_mark);
            }
        }
        for &e in &elem_adj[p] {
            for &v in &elem_vars[e] {
                if v != p && state[v] == State::Active {
                    touch(v, &mut lp, &mut scratch_mark);
                }
            }
        }
        state[p] = State::Eliminated;
        remaining -= weight[p];
        order.append(&mut members[p]);
        let absorbed: Vec<usize> = elem_adj[p].clone();
        elem_vars[p] = lp.clone();
        var_adj[p].clear();
        elem_adj[p].clear();
        for &v in &lp {
            var_adj[v].retain(|&u| u != p && state[u] == State::Active);
            elem_adj[v].retain(|&e| !absorbed.contains(&e) && !elem_vars[e].is_empty());
            if !elem_adj[v].contains(&p) {
                elem_adj[v].push(p);
            }
        }
        for &e in &absorbed {
            elem_vars[e].clear();
        }
        let mut buckets: HashMap<(Vec<usize>, Vec<usize>), usize> = HashMap::new();
        for &v in &lp {
            let mut va: Vec<usize> = var_adj[v]
                .iter()
                .copied()
                .filter(|&u| state[u] == State::Active)
                .collect();
            va.sort_unstable();
            va.dedup();
            var_adj[v] = va.clone();
            let mut ea = elem_adj[v].clone();
            ea.sort_unstable();
            ea.dedup();
            elem_adj[v] = ea.clone();
            match buckets.entry((va, ea)) {
                std::collections::hash_map::Entry::Occupied(rep) => {
                    let r = *rep.get();
                    state[v] = State::Merged;
                    weight[r] += weight[v];
                    let mv = std::mem::take(&mut members[v]);
                    members[r].extend(mv);
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(v);
                }
            }
        }
        let lp_active: Vec<usize> = lp
            .iter()
            .copied()
            .filter(|&v| state[v] == State::Active)
            .collect();
        elem_vars[p] = lp_active.clone();
        for &v in &lp_active {
            var_adj[v].retain(|&u| state[u] == State::Active);
        }
        for &v in &lp_active {
            stamp += 1;
            let mut deg = 0usize;
            for &u in &var_adj[v] {
                if state[u] == State::Active && scratch_mark[u] != stamp {
                    scratch_mark[u] = stamp;
                    deg += weight[u];
                }
            }
            for &e in &elem_adj[v] {
                for &u in &elem_vars[e] {
                    if u != v && state[u] == State::Active && scratch_mark[u] != stamp {
                        scratch_mark[u] = stamp;
                        deg += weight[u];
                    }
                }
            }
            degree[v] = deg;
        }
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
    let new = quotient_min_degree(adj);
    prop_assert!(is_permutation(&new, adj.len()));
    prop_assert_eq!(new, reference_quotient_min_degree(adj));
    Ok(())
}

#[test]
fn heap_quotient_ordering_matches_the_scan_reference() {
    // kind picks the family; a, b size it; the edge list drives the
    // random graphs (endpoints are reduced modulo the vertex count).
    let strategy = (
        (0..6usize, 0..40usize, 0..40usize),
        vec_in((0..1000usize, 0..1000usize), 0..160),
    );
    check(
        "heap_quotient_ordering_matches_the_scan_reference",
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

fn fingerprint(perm: &[usize]) -> u64 {
    let bytes: Vec<u8> = perm
        .iter()
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// FNV-1a over the little-endian `u64` entries of the permutation,
/// captured from the scan-based implementation before the heap rewrite.
#[test]
fn grid_100x100_permutation_is_pinned() {
    let perm = quotient_min_degree(&grid(100, 100));
    assert_eq!(fingerprint(&perm), 0x4136_39f9_4798_0601);
}

/// `MinDegree` is the explicit form up to `EXPLICIT_MD_MAX` unknowns and
/// the quotient form above it.
#[test]
fn min_degree_switches_to_the_quotient_graph_above_the_threshold() {
    let at = union(grid(100, 100), &vec![Vec::new(); EXPLICIT_MD_MAX - 10_000]);
    assert_eq!(compute_ordering(&at, Ordering::MinDegree), min_degree(&at));
    let above = union(at, &[Vec::new()]);
    assert_eq!(
        compute_ordering(&above, Ordering::MinDegree),
        quotient_min_degree(&above)
    );
}
