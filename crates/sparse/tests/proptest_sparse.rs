//! Property-based tests for the sparse kernels.

use mpvl_la::Complex64;
use mpvl_sparse::{compute_ordering, is_permutation, NumericLdlt, Ordering, TripletMat};
use mpvl_testkit::prop::{check, vec_in, vec_of, Strategy, VecStrategy};
use mpvl_testkit::{prop_assert, prop_assert_eq};

/// Raw input for a random connected SPD matrix built like a grounded
/// resistor network: extra branches plus the ground-leak conductance.
type NetworkInput = (Vec<(usize, usize, f64)>, f64);

/// Strategy for [`NetworkInput`] with up to `3 * n` extra branches.
fn network_input(
    n: usize,
) -> (
    VecStrategy<(
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<f64>,
    )>,
    std::ops::Range<f64>,
) {
    (vec_in((0..n, 0..n, 0.1f64..2.0), 0..3 * n), 0.1f64..2.0)
}

/// Builds the SPD matrix: a ground leak at node 0 (nonsingular
/// Laplacian), a spanning chain, and the random extra branches.
fn resistor_network(n: usize, input: &NetworkInput) -> mpvl_sparse::CscMat<f64> {
    let (edges, gg) = input;
    let mut t = TripletMat::new(n, n);
    t.push(0, 0, *gg);
    for i in 0..n - 1 {
        stamp(&mut t, i, i + 1, 1.0);
    }
    for &(a, b, g) in edges {
        if a != b {
            stamp(&mut t, a, b, g);
        }
    }
    t.to_csc()
}

fn stamp(t: &mut TripletMat<f64>, a: usize, b: usize, g: f64) {
    t.push(a, a, g);
    t.push(b, b, g);
    t.push_sym(a, b, -g);
}

#[test]
fn csc_matvec_matches_dense() {
    check(
        "csc_matvec_matches_dense",
        48,
        (network_input(12), vec_of(-1.0f64..1.0, 12)),
        |(net, x)| {
            let a = resistor_network(12, net);
            let d = a.to_dense();
            let y1 = a.matvec(x);
            let y2 = d.matvec(x);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert!((u - v).abs() < 1e-12);
            }
            Ok(())
        },
    );
}

#[test]
fn permute_roundtrip() {
    check("permute_roundtrip", 48, network_input(10), |net| {
        let a = resistor_network(10, net);
        let perm: Vec<usize> = (0..10).rev().collect();
        let b = a.permute_sym(&perm);
        let c = b.permute_sym(&perm); // reversal is an involution
        prop_assert!((&c.to_dense() - &a.to_dense()).max_abs() < 1e-15);
        Ok(())
    });
}

#[test]
fn ldlt_solves_under_every_ordering() {
    check(
        "ldlt_solves_under_every_ordering",
        48,
        (network_input(15), vec_of(-1.0f64..1.0, 15)),
        |(net, b)| {
            let a = resistor_network(15, net);
            for o in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                let f = NumericLdlt::factor(&a, o).expect("SPD network");
                let x = f.solve(b);
                let r = a.matvec(&x);
                for (u, v) in r.iter().zip(b) {
                    prop_assert!((u - v).abs() < 1e-8, "{o:?}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn ldlt_inertia_all_positive_for_spd() {
    check(
        "ldlt_inertia_all_positive_for_spd",
        48,
        network_input(10),
        |net| {
            let a = resistor_network(10, net);
            let f = NumericLdlt::factor(&a, Ordering::MinDegree).expect("SPD");
            prop_assert_eq!(f.inertia(), (0, 0, 10));
            Ok(())
        },
    );
}

#[test]
fn orderings_are_permutations() {
    check("orderings_are_permutations", 48, network_input(14), |net| {
        let a = resistor_network(14, net);
        let adj = a.adjacency();
        for o in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let p = compute_ordering(&adj, o);
            prop_assert!(is_permutation(&p, 14));
        }
        Ok(())
    });
}

#[test]
fn complex_factor_matches_dense_solve() {
    check(
        "complex_factor_matches_dense_solve",
        48,
        (network_input(10), 0.1f64..10.0),
        |(net, w)| {
            let a = resistor_network(10, net);
            // (G + jw * 0.1 G) is complex symmetric and nonsingular.
            let k = a.map(|v| Complex64::new(v, w * 0.1 * v));
            let f = NumericLdlt::factor(&k, Ordering::Rcm).expect("complex");
            let b: Vec<Complex64> = (0..10).map(|i| Complex64::new(1.0, i as f64)).collect();
            let x = f.solve(&b);
            let r = k.matvec(&x);
            for (u, v) in r.iter().zip(&b) {
                prop_assert!((*u - *v).abs() < 1e-8);
            }
            Ok(())
        },
    );
}

#[test]
fn add_scaled_matches_dense() {
    check(
        "add_scaled_matches_dense",
        48,
        (network_input(8), -2.0f64..2.0, -2.0f64..2.0),
        |(net, alpha, beta)| {
            let a = resistor_network(8, net);
            let i = mpvl_sparse::CscMat::identity(8);
            let c = a.add_scaled(*alpha, &i, *beta);
            let d = &a.to_dense().scale(*alpha) + &mpvl_la::Mat::identity(8).scale(*beta);
            prop_assert!((&c.to_dense() - &d).max_abs() < 1e-13);
            Ok(())
        },
    );
}

#[test]
fn mj_view_consistent_with_solve() {
    check(
        "mj_view_consistent_with_solve",
        48,
        (network_input(9), vec_of(-1.0f64..1.0, 9)),
        |(net, b)| {
            // A^{-1} b == M^{-T} J M^{-1} b with M = Pᵀ L |D|^{1/2}
            // (J = sign(D) = I for SPD).
            let a = resistor_network(9, net);
            let f = NumericLdlt::factor(&a, Ordering::MinDegree).expect("SPD");
            prop_assert!(f.d().iter().all(|&d| d.signum() == 1.0));
            let sqrt_d: Vec<f64> = f.d().iter().map(|d| d.abs().sqrt()).collect();
            // M⁻¹ b = |D|^{-1/2} L⁻¹ Pᵀ b
            let mut y: Vec<f64> = f.perm().iter().map(|&p| b[p]).collect();
            f.l_solve(&mut y);
            for (v, s) in y.iter_mut().zip(&sqrt_d) {
                *v /= s;
            }
            // M⁻ᵀ y = P L⁻ᵀ |D|^{-1/2} y
            for (v, s) in y.iter_mut().zip(&sqrt_d) {
                *v /= s;
            }
            f.lt_solve(&mut y);
            let mut x2 = vec![0.0; 9];
            for (&p, v) in f.perm().iter().zip(y) {
                x2[p] = v;
            }
            let x1 = f.solve(b);
            for (u, v) in x1.iter().zip(&x2) {
                prop_assert!((u - v).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

#[test]
fn matvec_into_is_bit_identical_to_matvec() {
    // The zero-alloc kernel must follow the exact historical accumulation
    // order — bitwise, not approximately. Exercised on rectangular random
    // patterns with exact-zero input entries (the `xj == 0` skip is
    // load-bearing: `y += v * 0.0` could flip -0.0 to +0.0).
    check(
        "matvec_into_is_bit_identical_to_matvec",
        48,
        (
            vec_in((0usize..7, 0usize..9, -2.0f64..2.0), 0..30),
            vec_of(-1.0f64..1.0, 9),
            0usize..9,
        ),
        |(entries, x, zero_at)| {
            let mut t = TripletMat::new(7, 9);
            for &(i, j, v) in entries {
                t.push(i, j, v);
            }
            let a = t.to_csc();
            let mut x = x.clone();
            x[*zero_at] = 0.0; // force an exact-zero skip
            let y1 = a.matvec(&x);
            let mut y2 = vec![f64::NAN; 7]; // into must fully overwrite
            a.matvec_into(&x, &mut y2);
            prop_assert_eq!(&y1, &y2);
            Ok(())
        },
    );
}

#[test]
fn mat_mul_is_bit_identical_to_columnwise_matvec() {
    // The fused multi-RHS traversal reorders loops (column-of-A outer,
    // RHS middle) but each output column's per-entry accumulation
    // sequence must match the scalar kernel exactly.
    check(
        "mat_mul_is_bit_identical_to_columnwise_matvec",
        48,
        (
            vec_in((0usize..8, 0usize..8, -2.0f64..2.0), 0..40),
            vec_of(-1.0f64..1.0, 8 * 3),
        ),
        |(entries, xdata)| {
            let mut t = TripletMat::new(8, 8);
            for &(i, j, v) in entries {
                t.push(i, j, v);
            }
            let a = t.to_csc();
            let mut x = mpvl_la::Mat::zeros(8, 3);
            for j in 0..3 {
                for i in 0..8 {
                    // Sprinkle exact zeros to hit the per-(j,k) skip.
                    let v = xdata[j * 8 + i];
                    x[(i, j)] = if v.abs() < 0.25 { 0.0 } else { v };
                }
            }
            let blocked = a.matmul(&x);
            let mut y = mpvl_la::Mat::zeros(8, 3);
            a.matvec_mat_into(&x, &mut y);
            for j in 0..3 {
                let col = a.matvec(x.col(j));
                prop_assert_eq!(blocked.col(j), &col[..], "matmul col {}", j);
                prop_assert_eq!(y.col(j), &col[..], "matvec_mat_into col {}", j);
            }
            Ok(())
        },
    );
}

/// The nested strategy tuples above must still generate valid inputs.
#[test]
fn network_input_strategy_is_well_formed() {
    let strat = network_input(12);
    let mut rng = mpvl_testkit::SmallRng::seed_from_u64(1);
    for _ in 0..50 {
        let (edges, gg) = strat.generate(&mut rng);
        assert!(edges.len() < 36);
        assert!(edges.iter().all(|&(a, b, g)| a < 12 && b < 12 && g > 0.0));
        assert!(gg > 0.0);
    }
}
