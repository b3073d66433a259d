//! Dense Householder QR factorization of real matrices.
//!
//! Used by the block-Arnoldi baseline (orthonormalizing Krylov blocks) and
//! by the reduced-circuit synthesis (building an orthonormal completion of
//! the port-coupling matrix `ρ`).

use crate::Mat;

/// A Householder QR factorization `A = Q R`.
///
/// # Examples
///
/// ```
/// use mpvl_la::{Mat, Qr};
///
/// let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]);
/// let qr = Qr::new(&a);
/// let q = qr.thin_q();
/// // Columns of Q are orthonormal.
/// let qtq = q.t_matmul(&q);
/// assert!((&qtq - &Mat::identity(2)).max_abs() < 1e-14);
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal; R on and above it.
    qr: Mat<f64>,
    /// Householder scalar factors `beta_k` (reflector = I - beta v vᵀ).
    betas: Vec<f64>,
}

impl Qr {
    /// Factors the `m x n` matrix `a` (requires `m >= n`).
    ///
    /// # Panics
    ///
    /// Panics if `a.nrows() < a.ncols()`.
    pub fn new(a: &Mat<f64>) -> Self {
        let m = a.nrows();
        let n = a.ncols();
        assert!(m >= n, "QR requires nrows >= ncols");
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            // Householder vector for column k, rows k..m.
            let mut norm = 0.0f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // beta = 2 / (v^T v) with v = (v0, a[k+1..m, k])
            let mut vtv = v0 * v0;
            for i in k + 1..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            let beta = if vtv == 0.0 { 0.0 } else { 2.0 / vtv };
            // Apply reflector to remaining columns.
            for j in k + 1..n {
                let mut s = v0 * qr[(k, j)];
                for i in k + 1..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= beta;
                qr[(k, j)] -= s * v0;
                for i in k + 1..m {
                    let vi = qr[(i, k)];
                    qr[(i, j)] -= s * vi;
                }
            }
            // Store: R diagonal entry, Householder vector below (v0 separately).
            qr[(k, k)] = alpha;
            // Normalize stored vector so v0 = 1: store v_i / v0 below diagonal.
            if v0 != 0.0 {
                for i in k + 1..m {
                    qr[(i, k)] /= v0;
                }
                betas[k] = beta * v0 * v0;
            } else {
                betas[k] = 0.0;
            }
        }
        Qr { qr, betas }
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> Mat<f64> {
        let n = self.qr.ncols();
        Mat::from_fn(n, n, |i, j| if i <= j { self.qr[(i, j)] } else { 0.0 })
    }

    /// The thin orthonormal factor `Q` (`m x n`).
    pub fn thin_q(&self) -> Mat<f64> {
        let m = self.qr.nrows();
        let n = self.qr.ncols();
        let mut q = Mat::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        self.apply_q_in_place(&mut q);
        q
    }

    /// The full orthogonal factor `Q` (`m x m`).
    pub fn full_q(&self) -> Mat<f64> {
        let m = self.qr.nrows();
        let mut q = Mat::identity(m);
        self.apply_q_in_place(&mut q);
        q
    }

    /// Applies `Q` to each column of `x` in place (`x ← Q x`).
    fn apply_q_in_place(&self, x: &mut Mat<f64>) {
        let m = self.qr.nrows();
        let n = self.qr.ncols();
        assert_eq!(x.nrows(), m, "dimension mismatch");
        // Q = H_0 H_1 ... H_{n-1}; apply in reverse order.
        for k in (0..n).rev() {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            for j in 0..x.ncols() {
                // v = (1, qr[k+1..m, k])
                let mut s = x[(k, j)];
                for i in k + 1..m {
                    s += self.qr[(i, k)] * x[(i, j)];
                }
                s *= beta;
                x[(k, j)] -= s;
                for i in k + 1..m {
                    let vi = self.qr[(i, k)];
                    x[(i, j)] -= s * vi;
                }
            }
        }
    }

    /// Columns `n..m` of the full `Q`: an orthonormal basis of the
    /// orthogonal complement of the column space of `A` (for full-rank `A`).
    pub fn complement_q(&self) -> Mat<f64> {
        let m = self.qr.nrows();
        let n = self.qr.ncols();
        self.full_q().submatrix(0, m, n, m)
    }
}

/// Orthonormalizes the columns of `a` (modified Gram–Schmidt with
/// re-orthogonalization), dropping columns whose remainder falls below
/// `tol` times their original norm. Returns the kept orthonormal basis.
pub fn orthonormalize_columns(a: &Mat<f64>, tol: f64) -> Mat<f64> {
    let mut basis = Vec::new();
    orthonormalize_into(&mut basis, a, tol, usize::MAX);
    let mut q = Mat::zeros(a.nrows(), basis.len());
    for (j, b) in basis.iter().enumerate() {
        q.col_mut(j).copy_from_slice(b);
    }
    q
}

/// Two-pass modified Gram–Schmidt of `cand`'s columns against, and onto
/// the end of, the orthonormal `basis`, stopping once `basis` holds `cap`
/// columns. A column whose norm is zero or not finite is skipped; one
/// whose remainder falls below `tol` times its original norm is dropped.
/// Returns how many columns were appended.
pub fn orthonormalize_into(
    basis: &mut Vec<Vec<f64>>,
    cand: &Mat<f64>,
    tol: f64,
    cap: usize,
) -> usize {
    let start = basis.len();
    for j in 0..cand.ncols() {
        if basis.len() >= cap {
            break;
        }
        let mut v = cand.col(j).to_vec();
        let orig = crate::norm2(&v);
        if orig == 0.0 || !orig.is_finite() {
            continue;
        }
        for _pass in 0..2 {
            for b in basis.iter() {
                let c = crate::dot(b, &v);
                crate::axpy(-c, b, &mut v);
            }
        }
        let rem = crate::norm2(&v);
        if rem > tol * orig {
            crate::scal(1.0 / rem, &mut v);
            basis.push(v);
        }
    }
    basis.len() - start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_test_matrix() -> Mat<f64> {
        Mat::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[0.0, 3.0, 1.0],
            &[-1.0, 0.0, 2.0],
            &[0.5, 0.5, 0.5],
            &[1.0, 1.0, -1.0],
        ])
    }

    #[test]
    fn qr_reconstructs() {
        let a = wide_test_matrix();
        let qr = Qr::new(&a);
        let rec = qr.thin_q().matmul(&qr.r());
        assert!((&rec - &a).max_abs() < 1e-13);
    }

    #[test]
    fn thin_q_is_orthonormal() {
        let a = wide_test_matrix();
        let q = Qr::new(&a).thin_q();
        let qtq = q.t_matmul(&q);
        assert!((&qtq - &Mat::identity(3)).max_abs() < 1e-13);
    }

    #[test]
    fn full_q_is_orthogonal() {
        let a = wide_test_matrix();
        let q = Qr::new(&a).full_q();
        let qtq = q.t_matmul(&q);
        assert!((&qtq - &Mat::identity(5)).max_abs() < 1e-13);
    }

    #[test]
    fn complement_is_orthogonal_to_range() {
        let a = wide_test_matrix();
        let qr = Qr::new(&a);
        let comp = qr.complement_q();
        assert_eq!(comp.ncols(), 2);
        let cross = comp.t_matmul(&a);
        assert!(cross.max_abs() < 1e-13);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = wide_test_matrix();
        let r = Qr::new(&a).r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn handles_zero_column() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let qr = Qr::new(&a);
        let rec = qr.thin_q().matmul(&qr.r());
        assert!((&rec - &a).max_abs() < 1e-14);
    }

    #[test]
    fn orthonormalize_drops_dependent_columns() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 1.0]]);
        let q = orthonormalize_columns(&a, 1e-10);
        assert_eq!(q.ncols(), 2);
        let qtq = q.t_matmul(&q);
        assert!((&qtq - &Mat::identity(2)).max_abs() < 1e-13);
    }
}
