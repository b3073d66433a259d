//! Quotient-graph minimum-degree ordering.
//!
//! The quotient-graph alternative to the explicit elimination-graph
//! minimum degree in [`crate::min_degree`]: instead of materializing
//! elimination cliques (quadratic blow-up on dense-ish fronts), the
//! quotient graph represents each eliminated pivot as an *element* whose
//! adjacency is shared, with the three classic accelerations:
//!
//! * **element absorption** — an element swallowed by a newer element is
//!   deleted, keeping adjacency lists short;
//! * **supervariables** — indistinguishable variables (identical
//!   adjacency) are merged and eliminated together ("mass elimination");
//! * **external degree** — degrees are computed against the quotient
//!   structure, never the explicit clique.
//!
//! Degrees here are exact external degrees (this is MD in its quotient
//! form, not the hashed *approximate* AMD bound), which keeps the
//! implementation verifiable while already giving the asymptotic win on
//! the fronts circuit matrices produce.
//!
//! [`crate::Ordering::MinDegree`] runs this ordering above
//! [`crate::EXPLICIT_MD_MAX`] unknowns. On grids and packages there it
//! is both faster and sparser than the explicit form: 0.23 s against
//! 3.5 s, and 14 % less fill, on a 100,489-unknown RC grid (2-vCPU Xeon
//! VM). Below the threshold the explicit form stays, so every pinned
//! fingerprint of a smaller system keeps its bits.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Computes a minimum-degree ordering of the undirected graph `adj`
/// (adjacency lists without self-loops). Returns `perm` with
/// `perm[new] = old`.
///
/// Each step eliminates the active supervariable of smallest external
/// degree, ties to the smallest index. The pivot comes from a lazy
/// min-heap on `(degree, index)`: every degree recompute pushes a fresh
/// entry, and entries of merged or eliminated variables or of outdated
/// degrees are skipped on pop, so the pick is the one a full scan would
/// make (`crates/sparse/tests/quotient_md_bitident.rs` pins this).
///
/// # Examples
///
/// ```
/// use mpvl_sparse::{is_permutation, quotient_min_degree};
///
/// // A star graph: the hub must be eliminated last (or tied-last).
/// let mut adj = vec![vec![]; 5];
/// for leaf in 1..5 {
///     adj[0].push(leaf);
///     adj[leaf].push(0);
/// }
/// let perm = quotient_min_degree(&adj);
/// assert!(is_permutation(&perm, 5));
/// ```
pub fn quotient_min_degree(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    // Node state: either an active variable, part of a supervariable
    // (merged into another), eliminated (as an element), or dead
    // (absorbed element / output variable).
    // For each active variable i:
    //   var_adj[i]: adjacent *variables* (supervariable representatives)
    //   elem_adj[i]: adjacent *elements* (eliminated pivot representatives)
    // For each element e:
    //   elem_vars[e]: the active variables adjacent to e.
    // The variable lists start sorted and only ever shrink, so they stay
    // sorted.
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
    // weight[i] = number of original variables merged into supervariable i.
    let mut weight = vec![1usize; n];
    // members[i]: the original indices merged into i (emitted together).
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Active,
        Merged,
        Eliminated,
    }
    let mut state = vec![State::Active; n];
    // Exact external degree of each active supervariable.
    let mut degree: Vec<usize> = var_adj.iter().map(|l| l.len()).collect();
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((degree[i], i))).collect();

    let mut order = Vec::with_capacity(n);
    let mut scratch_mark = vec![0usize; n];
    let mut stamp = 0usize;
    // absorbed_by[e] == p once pivot p has absorbed element e.
    let mut absorbed_by = vec![usize::MAX; n];
    // Supervariable buckets: signature hash → latest representative;
    // representatives sharing a hash chain through `next_rep`.
    let mut buckets: HashMap<u64, usize> = HashMap::new();
    let mut next_rep = vec![usize::MAX; n];

    while let Some(Reverse((deg, p))) = heap.pop() {
        if state[p] != State::Active || degree[p] != deg {
            continue;
        }

        // --- Build the pivot's full variable neighbourhood L_p:
        // union of its variable adjacency and the variables of its
        // adjacent elements (minus itself).
        stamp += 1;
        let mut lp: Vec<usize> = Vec::new();
        let touch = |v: usize, lp: &mut Vec<usize>, mark: &mut Vec<usize>| {
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

        // --- Eliminate p: it becomes element p with variables L_p.
        state[p] = State::Eliminated;
        order.append(&mut members[p]);
        let absorbed = std::mem::take(&mut elem_adj[p]);
        for &e in &absorbed {
            absorbed_by[e] = p;
        }
        var_adj[p].clear();

        // --- Update each neighbour: remove p and absorbed elements,
        // attach element p (new as an element, so in no list yet).
        for &v in &lp {
            var_adj[v].retain(|&u| u != p && state[u] == State::Active);
            elem_adj[v].retain(|&e| absorbed_by[e] != p && !elem_vars[e].is_empty());
            elem_adj[v].push(p);
        }
        // Absorption: the old elements are subsumed by element p.
        for &e in &absorbed {
            elem_vars[e].clear();
        }

        // --- Supervariable detection among L_p: the first variable with
        // a given (var_adj, elem_adj) signature represents it, and later
        // ones with exactly equal lists merge into it. The hash only
        // picks the chain; equality is checked on the lists themselves.
        buckets.clear();
        for &v in &lp {
            var_adj[v].retain(|&u| state[u] == State::Active);
            elem_adj[v].sort_unstable();
            elem_adj[v].dedup();
            let head = buckets
                .entry(signature(&var_adj[v], &elem_adj[v]))
                .or_insert(usize::MAX);
            let mut r = *head;
            while r != usize::MAX && (var_adj[r] != var_adj[v] || elem_adj[r] != elem_adj[v]) {
                r = next_rep[r];
            }
            if r == usize::MAX {
                next_rep[v] = *head;
                *head = v;
            } else {
                // v merges into r: both are in L_p with identical lists,
                // so they are indistinguishable from here on.
                state[v] = State::Merged;
                weight[r] += weight[v];
                let mv = std::mem::take(&mut members[v]);
                members[r].extend(mv);
            }
        }
        // Remove merged variables from element/variable lists.
        lp.retain(|&v| state[v] == State::Active);
        for &v in &lp {
            var_adj[v].retain(|&u| state[u] == State::Active);
            // (element lists unaffected by merging variables)
        }
        elem_vars[p] = lp;

        // --- Recompute exact external degrees for the affected variables.
        for &v in &elem_vars[p] {
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
            heap.push(Reverse((deg, v)));
        }
    }
    order
}

/// FNV-1a over both sorted lists, with a separator between them.
fn signature(vars: &[usize], elems: &[usize]) -> u64 {
    vars.iter()
        .chain(&[usize::MAX])
        .chain(elems)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
            (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_permutation, Ordering, SparseLdlt, TripletMat};

    fn grid_graph(rows: usize, cols: usize) -> Vec<Vec<usize>> {
        let id = |r: usize, c: usize| r * cols + c;
        let mut adj = vec![Vec::new(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                if r + 1 < rows {
                    adj[id(r, c)].push(id(r + 1, c));
                    adj[id(r + 1, c)].push(id(r, c));
                }
                if c + 1 < cols {
                    adj[id(r, c)].push(id(r, c + 1));
                    adj[id(r, c + 1)].push(id(r, c));
                }
            }
        }
        adj
    }

    fn star(n: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for i in 1..n {
            adj[0].push(i);
            adj[i].push(0);
        }
        adj
    }

    #[test]
    fn produces_permutations() {
        for adj in [grid_graph(5, 7), star(9), vec![Vec::new(); 4], Vec::new()] {
            let p = quotient_min_degree(&adj);
            assert!(is_permutation(&p, adj.len()), "bad permutation {p:?}");
        }
    }

    #[test]
    fn arrow_matrix_zero_fill() {
        // Arrow: hub connected to all leaves. MD must defer the hub.
        let n = 40;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0);
        }
        for i in 1..n {
            t.push_sym(0, i, 1.0);
        }
        let a = t.to_csc();
        let perm = quotient_min_degree(&a.adjacency());
        let f = SparseLdlt::factor_with_perm(&a, perm).expect("SPD");
        assert_eq!(f.l_nnz(), n - 1, "arrow should factor with zero fill");
    }

    #[test]
    fn fill_no_worse_than_naive_md_on_grid() {
        let rows = 8;
        let cols = 8;
        let n = rows * cols;
        let adj = grid_graph(rows, cols);
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 8.0);
        }
        for (i, l) in adj.iter().enumerate() {
            for &j in l {
                if j > i {
                    t.push_sym(i, j, -1.0);
                }
            }
        }
        let a = t.to_csc();
        let quotient = quotient_min_degree(&adj);
        let fq = SparseLdlt::factor_with_perm(&a, quotient).expect("SPD");
        let fn_ = SparseLdlt::factor(&a, Ordering::Natural).expect("SPD");
        let fm = SparseLdlt::factor(&a, Ordering::MinDegree).expect("SPD");
        assert!(
            fq.l_nnz() <= fn_.l_nnz(),
            "quotient MD ({}) should beat natural ({})",
            fq.l_nnz(),
            fn_.l_nnz()
        );
        // Tie-breaking differs; allow modest slack vs the naive MD.
        assert!(
            fq.l_nnz() <= fm.l_nnz() * 3 / 2,
            "quotient MD ({}) should be comparable to naive MD ({})",
            fq.l_nnz(),
            fm.l_nnz()
        );
    }

    #[test]
    fn solves_correctly_under_quotient_ordering() {
        let adj = grid_graph(6, 6);
        let n = 36;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0);
        }
        for (i, l) in adj.iter().enumerate() {
            for &j in l {
                if j > i {
                    t.push_sym(i, j, -1.0);
                }
            }
        }
        let a = t.to_csc();
        let perm = quotient_min_degree(&adj);
        let f = SparseLdlt::factor_with_perm(&a, perm).expect("SPD");
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let x = f.solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-11);
        }
    }

    #[test]
    fn supervariables_collapse_cliques() {
        // A clique of identical nodes: all are indistinguishable after the
        // first elimination; the algorithm must still terminate & order all.
        let n = 12;
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    adj[i].push(j);
                }
            }
        }
        let p = quotient_min_degree(&adj);
        assert!(is_permutation(&p, n));
    }

    #[test]
    fn disconnected_components() {
        let mut adj = grid_graph(3, 3);
        adj.extend(star(5));
        // Fix indices of the star component (offset by 9).
        for l in adj.iter_mut().skip(9) {
            for v in l.iter_mut() {
                *v += 9;
            }
        }
        let p = quotient_min_degree(&adj);
        assert!(is_permutation(&p, 14));
    }
}
