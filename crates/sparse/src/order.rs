//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Two classic heuristics: reverse Cuthill–McKee (bandwidth reduction,
//! cheap and effective on the chain/ladder structures circuits produce) and
//! minimum degree on the elimination graph (better on meshes and coupled
//! structures). The LDLᵀ driver picks whichever produces fewer fill-ins.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ordering heuristic selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Natural (identity) ordering.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Minimum degree — the default used by the solvers here. Up to
    /// [`EXPLICIT_MD_MAX`] unknowns it runs on the explicit elimination
    /// graph ([`min_degree`]); above, on the quotient graph
    /// ([`crate::quotient_min_degree`]), which is faster and gives less
    /// fill there on grids and packages (0.23 s against 3.5 s and 14 %
    /// less fill on a 100,489-unknown RC grid). The threshold keeps every
    /// pinned fingerprint of a smaller system on the explicit form's bits.
    #[default]
    MinDegree,
}

/// Size above which [`Ordering::MinDegree`] switches from the explicit
/// elimination graph to the quotient graph. It sits above every system
/// a bit-pinned suite factors (the largest is a 3,417-unknown
/// interconnect). Past it the quotient graph orders RC grids and
/// packages 3–15× faster with 6–18 % less fill; on interconnects it gives
/// the same fill, up to 0.05 s slower (`EXPERIMENTS.md`, `grid_cold`
/// part 2).
pub const EXPLICIT_MD_MAX: usize = 10_000;

/// Computes an ordering of the undirected graph `adj`.
///
/// Returns `perm` with `perm[new] = old`.
pub fn compute_ordering(adj: &[Vec<usize>], which: Ordering) -> Vec<usize> {
    match which {
        Ordering::Natural => (0..adj.len()).collect(),
        Ordering::Rcm => rcm(adj),
        Ordering::MinDegree if adj.len() > EXPLICIT_MD_MAX => crate::quotient_min_degree(adj),
        Ordering::MinDegree => min_degree(adj),
    }
}

/// Reverse Cuthill–McKee ordering. Handles disconnected graphs.
pub fn rcm(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    // Process components from lowest-degree unvisited seed.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| adj[v].len());
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        let start = pseudo_peripheral(adj, seed);
        let mut queue = VecDeque::new();
        queue.push_back(start);
        visited[start] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| adj[u].len());
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// BFS-based pseudo-peripheral node search (two sweeps).
fn pseudo_peripheral(adj: &[Vec<usize>], seed: usize) -> usize {
    let mut v = seed;
    let mut last_ecc = 0usize;
    for _ in 0..4 {
        let (far, ecc) = bfs_farthest(adj, v);
        if ecc <= last_ecc {
            break;
        }
        last_ecc = ecc;
        v = far;
    }
    v
}

fn bfs_farthest(adj: &[Vec<usize>], start: usize) -> (usize, usize) {
    let n = adj.len();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    let mut far = start;
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v] {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                if dist[u] > dist[far] {
                    far = u;
                }
                queue.push_back(u);
            }
        }
    }
    (far, dist[far])
}

/// Minimum-degree ordering on the (explicit) elimination graph.
///
/// Each step eliminates the vertex of smallest current degree, ties to
/// the smallest index, and joins its remaining neighbours into a clique.
/// The pivot comes from a lazy min-heap keyed on `(degree, index)`: each
/// clique member gets a fresh entry after its list changes, and entries
/// of eliminated vertices or outdated degrees are skipped on pop, so the
/// pick is the one a full scan would make. A member `u` that already
/// neighbours the whole clique only loses `v`; any other gets one sorted
/// merge, `(g[u] ∪ nbrs) \ {u, v}`, into a reused buffer. A step costs
/// O(Σ deg + k log n) instead of the O(n) scan plus O(k²·deg) inserts of
/// the textbook form: about 4 s instead of 35 s on the benchmark's
/// 100,489-unknown power grid (2-vCPU Xeon VM).
///
/// `adj` must be what [`crate::CscMat::adjacency`] returns: every list
/// sorted and duplicate-free, no self-loops, and `u ∈ adj[v]` exactly
/// when `v ∈ adj[u]`. On such input the permutation is the same as the
/// quadratic scan-and-insert variant's, entry for entry.
pub fn min_degree(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    // Working adjacency as sorted vectors; symmetry keeps every list
    // free of eliminated vertices.
    let mut g: Vec<Vec<usize>> = adj.to_vec();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((g[v].len(), v))).collect();
    let mut merged = Vec::new();
    // mark[w] == v while v is the pivot and w one of its neighbours.
    let mut mark = vec![usize::MAX; n];
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != g[v].len() {
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        let nbrs = std::mem::take(&mut g[v]);
        for &w in &nbrs {
            mark[w] = v;
        }
        for &u in &nbrs {
            let shared = g[u].iter().filter(|&&w| mark[w] == v).count();
            if shared + 1 == nbrs.len() {
                // u already neighbours the rest of the clique; only v
                // leaves its list. This is the common case by far once
                // the elimination reaches the dense separators.
                if let Ok(pos) = g[u].binary_search(&v) {
                    g[u].remove(pos);
                }
            } else {
                merge_clique(&g[u], &nbrs, u, v, &mut merged);
                std::mem::swap(&mut g[u], &mut merged);
            }
            heap.push(Reverse((g[u].len(), u)));
        }
    }
    order
}

/// Writes the sorted union of `a` and `b` without `u` and `v` to `out`.
fn merge_clique(a: &[usize], b: &[usize], u: usize, v: usize, out: &mut Vec<usize>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    // The indices advance without branches; on a tie both move, so each
    // value is written once.
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let w = x.min(y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        if w != u && w != v {
            out.push(w);
        }
    }
    out.extend(a[i..].iter().chain(&b[j..]).filter(|&&w| w != u && w != v));
}

/// Checks that `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect()
    }

    fn star_graph(n: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for i in 1..n {
            adj[0].push(i);
            adj[i].push(0);
        }
        adj
    }

    #[test]
    fn all_orderings_are_permutations() {
        for adj in [path_graph(10), star_graph(7)] {
            for o in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                let p = compute_ordering(&adj, o);
                assert!(is_permutation(&p, adj.len()), "{o:?} not a permutation");
            }
        }
    }

    #[test]
    fn min_degree_defers_star_center() {
        let adj = star_graph(8);
        let p = min_degree(&adj);
        // The hub has degree 7; leaves (degree 1) are eliminated first, so
        // the hub can appear at the earliest once its degree has dropped to
        // tie with the last remaining leaf.
        let hub_pos = p.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= p.len() - 2, "hub eliminated too early: {p:?}");
    }

    #[test]
    fn rcm_on_path_is_monotone() {
        // RCM on a path graph should give a bandwidth-1 ordering, i.e. a
        // walk along the path.
        let adj = path_graph(12);
        let p = rcm(&adj);
        for w in p.windows(2) {
            assert_eq!(w[0].abs_diff(w[1]), 1, "ordering {p:?} is not a walk");
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut adj = path_graph(4);
        adj.extend(vec![Vec::new(); 3]); // three isolated vertices
        let p = rcm(&adj);
        assert!(is_permutation(&p, 7));
        let q = min_degree(&adj);
        assert!(is_permutation(&q, 7));
    }

    #[test]
    fn empty_graph() {
        assert!(rcm(&[]).is_empty());
        assert!(min_degree(&[]).is_empty());
    }
}
