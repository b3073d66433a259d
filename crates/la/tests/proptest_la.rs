//! Property-based tests for the dense linear-algebra kernels.

use mpvl_la::{general_eigenvalues, sym_eigen, BunchKaufman, Cholesky, Complex64, Lu, Mat, Qr};
use mpvl_testkit::prop::{check, vec_of};
use mpvl_testkit::{prop_assert, prop_assert_eq};

/// A well-conditioned square matrix (diagonally dominant) built from
/// `n * n` entries in [-1, 1].
fn dd_matrix(v: &[f64], n: usize) -> Mat<f64> {
    Mat::from_fn(n, n, |i, j| {
        let x = v[i * n + j];
        if i == j {
            x + n as f64 + 1.0
        } else {
            x
        }
    })
}

/// A symmetric matrix with entries in [-1, 1], from `n * n` raw entries.
fn sym_matrix(v: &[f64], n: usize) -> Mat<f64> {
    Mat::from_fn(n, n, |i, j| {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        v[a * n + b]
    })
}

/// An SPD matrix A = Bᵀ B + I, from `n * n` raw entries.
fn spd_matrix(v: &[f64], n: usize) -> Mat<f64> {
    let b = Mat::from_fn(n, n, |i, j| v[i * n + j]);
    let mut a = b.t_matmul(&b);
    for i in 0..n {
        a[(i, i)] += 1.0;
    }
    a
}

#[test]
fn lu_solve_has_small_residual() {
    check(
        "lu_solve_has_small_residual",
        64,
        (vec_of(-1.0f64..1.0, 64), vec_of(-1.0f64..1.0, 8)),
        |(av, b)| {
            let a = dd_matrix(av, 8);
            let lu = Lu::new(a.clone()).expect("diagonally dominant => nonsingular");
            let x = lu.solve(b).unwrap();
            let r = a.matvec(&x);
            for (u, v) in r.iter().zip(b) {
                prop_assert!((u - v).abs() < 1e-10);
            }
            Ok(())
        },
    );
}

#[test]
fn lu_det_matches_product_through_transpose() {
    check(
        "lu_det_matches_product_through_transpose",
        64,
        vec_of(-1.0f64..1.0, 36),
        |av| {
            // det(A) == det(Aᵀ)
            let a = dd_matrix(av, 6);
            let d1 = Lu::new(a.clone()).unwrap().det();
            let d2 = Lu::new(a.transpose()).unwrap().det();
            prop_assert!((d1 - d2).abs() <= 1e-9 * d1.abs().max(1.0));
            Ok(())
        },
    );
}

#[test]
fn cholesky_agrees_with_lu() {
    check(
        "cholesky_agrees_with_lu",
        64,
        (vec_of(-1.0f64..1.0, 49), vec_of(-1.0f64..1.0, 7)),
        |(av, b)| {
            let a = spd_matrix(av, 7);
            let ch = Cholesky::new(&a).expect("SPD");
            let x1 = ch.solve(b);
            let x2 = Lu::new(a).unwrap().solve(b).unwrap();
            for (u, v) in x1.iter().zip(&x2) {
                prop_assert!((u - v).abs() < 1e-8);
            }
            Ok(())
        },
    );
}

#[test]
fn bunch_kaufman_solves_symmetric_indefinite() {
    check(
        "bunch_kaufman_solves_symmetric_indefinite",
        64,
        (vec_of(-1.0f64..1.0, 49), vec_of(-1.0f64..1.0, 7)),
        |(av, b)| {
            // Shift a few diagonal entries negative to force indefiniteness.
            let mut a = sym_matrix(av, 7);
            for i in 0..7 {
                a[(i, i)] += if i % 2 == 0 { 3.0 } else { -3.0 };
            }
            let bk = BunchKaufman::new(&a).expect("nonsingular");
            let x = bk.solve(b);
            let r = a.matvec(&x);
            for (u, v) in r.iter().zip(b) {
                prop_assert!((u - v).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

#[test]
fn bk_inertia_matches_eigen_signs() {
    check(
        "bk_inertia_matches_eigen_signs",
        64,
        vec_of(-1.0f64..1.0, 36),
        |av| {
            let mut a = sym_matrix(av, 6);
            for i in 0..6 {
                a[(i, i)] += if i < 3 { 4.0 } else { -4.0 };
            }
            let bk = BunchKaufman::new(&a).expect("nonsingular");
            let (neg, zero, pos) = bk.inertia();
            let e = sym_eigen(&a).unwrap();
            let eneg = e.values.iter().filter(|&&v| v < 0.0).count();
            let epos = e.values.iter().filter(|&&v| v > 0.0).count();
            prop_assert_eq!(zero, 0);
            prop_assert_eq!((neg, pos), (eneg, epos));
            Ok(())
        },
    );
}

#[test]
fn qr_preserves_norms() {
    check("qr_preserves_norms", 64, vec_of(-1.0f64..1.0, 36), |av| {
        let a = dd_matrix(av, 6);
        let qr = Qr::new(&a);
        let q = qr.thin_q();
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let qx = q.matvec(&x);
        prop_assert!((mpvl_la::norm2(&qx) - mpvl_la::norm2(&x)).abs() < 1e-10);
        Ok(())
    });
}

#[test]
fn sym_eigen_trace_and_reconstruction() {
    check(
        "sym_eigen_trace_and_reconstruction",
        64,
        vec_of(-1.0f64..1.0, 36),
        |av| {
            let a = sym_matrix(av, 6);
            let e = sym_eigen(&a).unwrap();
            let trace: f64 = (0..6).map(|i| a[(i, i)]).sum();
            let sum: f64 = e.values.iter().sum();
            prop_assert!((trace - sum).abs() < 1e-9);
            // A == V diag(w) Vᵀ
            let vd = Mat::from_fn(6, 6, |i, j| e.vectors[(i, j)] * e.values[j]);
            let rec = vd.matmul(&e.vectors.transpose());
            prop_assert!((&rec - &a).max_abs() < 1e-9);
            Ok(())
        },
    );
}

#[test]
fn general_eigen_sum_matches_trace() {
    check(
        "general_eigen_sum_matches_trace",
        64,
        vec_of(-1.0f64..1.0, 36),
        |av| {
            let a = dd_matrix(av, 6);
            let e = general_eigenvalues(&a).unwrap();
            let trace: f64 = (0..6).map(|i| a[(i, i)]).sum();
            let sum: Complex64 = e.iter().copied().sum();
            prop_assert!((sum.re - trace).abs() < 1e-8);
            prop_assert!(sum.im.abs() < 1e-8);
            Ok(())
        },
    );
}

#[test]
fn complex_lu_roundtrip() {
    check(
        "complex_lu_roundtrip",
        64,
        (vec_of(-1.0f64..1.0, 25), vec_of(-1.0f64..1.0, 25)),
        |(re, im)| {
            let a = Mat::from_fn(5, 5, |i, j| {
                let z = Complex64::new(re[i * 5 + j], im[i * 5 + j]);
                if i == j {
                    z + 6.0
                } else {
                    z
                }
            });
            let b: Vec<Complex64> = (0..5).map(|i| Complex64::new(i as f64, 1.0)).collect();
            let x = Lu::new(a.clone()).unwrap().solve(&b).unwrap();
            let r = a.matvec(&x);
            for (u, v) in r.iter().zip(&b) {
                prop_assert!((*u - *v).abs() < 1e-10);
            }
            Ok(())
        },
    );
}

/// `cols` columns of `n` entries in [-1, 1) (some exact zeros and
/// `-0.0`), seeded.
fn columns(seed: u64, n: usize, cols: usize) -> Vec<Vec<f64>> {
    let mut rng = mpvl_testkit::SmallRng::seed_from_u64(seed);
    (0..cols)
        .map(|_| {
            (0..n)
                .map(|_| match rng.gen_range(0u64..16) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f64..1.0),
                })
                .collect()
        })
        .collect()
}

/// Both block kernels on `n` rows: each column's bits are independent
/// of the batch width and position, `block_sub` has the bits of
/// successive `axpy` calls, and `block_dot` agrees with `dot`.
/// `v · w` in `block_dot`'s documented order, one product at a time:
/// per panel of `PANEL_ROWS` rows, even rows into `s₀` and odd rows into
/// `s₁`, then the panel values `s₀ + s₁` summed in order from `0.0`.
fn block_dot_reference(v: &[f64], w: &[f64]) -> f64 {
    let p = mpvl_la::PANEL_ROWS;
    let mut c = 0.0;
    for (vp, wp) in v.chunks(p).zip(w.chunks(p)) {
        let mut s = [0.0f64; 2];
        for (r, (&x, &y)) in vp.iter().zip(wp).enumerate() {
            s[r % 2] += x * y;
        }
        c += s[0] + s[1];
    }
    c
}

fn check_block_kernels(n: usize, seed: u64) -> Result<(), String> {
    let (k, m) = (9, 17);
    let v = columns(seed, n, k);
    let w = columns(seed ^ 0x5eed, n, m);
    let mut c = vec![0.0; k * m];
    mpvl_la::block_dot(&v, &w, &mut c);
    // Every entry has the bits of its documented order and is close to
    // the naive dot product.
    for j in 0..m {
        for i in 0..k {
            let entry = c[i + j * k];
            prop_assert_eq!(entry.to_bits(), block_dot_reference(&v[i], &w[j]).to_bits());
            let naive = mpvl_la::dot(&v[i], &w[j]);
            let scale = mpvl_la::norm2(&v[i]) * mpvl_la::norm2(&w[j]);
            prop_assert!((entry - naive).abs() <= 1e-13 * scale);
        }
    }
    // Any split of V and W into batches (widths 1..=17, so each
    // column also lands at every position) gives the same bits.
    for width in 1..=m {
        for lo in (0..m).step_by(width) {
            let hi = (lo + width).min(m);
            for vlo in (0..k).step_by(width) {
                let vhi = (vlo + width).min(k);
                let kb = vhi - vlo;
                let mut cb = vec![0.0; kb * (hi - lo)];
                mpvl_la::block_dot(&v[vlo..vhi], &w[lo..hi], &mut cb);
                for j in lo..hi {
                    for i in vlo..vhi {
                        prop_assert_eq!(
                            cb[(i - vlo) + (j - lo) * kb].to_bits(),
                            c[i + j * k].to_bits()
                        );
                    }
                }
            }
        }
    }
    // W −= V·C has the bits of successive axpy calls, for every
    // batch width.
    let coef: Vec<f64> = c.iter().map(|x| x * 0.37 - 0.1).collect();
    let mut want = w.clone();
    for (j, wj) in want.iter_mut().enumerate() {
        for (i, vi) in v.iter().enumerate() {
            mpvl_la::axpy(-coef[i + j * k], vi, wj);
        }
    }
    for width in 1..=m {
        let mut got = w.clone();
        for lo in (0..m).step_by(width) {
            let hi = (lo + width).min(m);
            mpvl_la::block_sub(&v, &coef[lo * k..hi * k], &mut got[lo..hi]);
        }
        for (g, e) in got.iter().zip(&want) {
            for (x, y) in g.iter().zip(e) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
    Ok(())
}

#[test]
fn block_kernels_are_columnwise_and_agree_with_dot_axpy() {
    check(
        "block_kernels_are_columnwise_and_agree_with_dot_axpy",
        24,
        (1usize..700, 0u64..1 << 32),
        |&(n, seed)| check_block_kernels(n, seed),
    );
}

#[test]
fn block_kernels_at_panel_and_lane_edges() {
    let p = mpvl_la::PANEL_ROWS;
    for n in [1, 2, 3, p - 1, p, p + 1, 2 * p - 1, 2 * p + 3] {
        check_block_kernels(n, n as u64).unwrap_or_else(|e| panic!("n = {n}: {e}"));
    }
}
