//! The SyMPVL recurrence operator `A = M⁻¹ C M⁻ᵀ` (paper eq. 17) as a
//! [`LinearOperator`], with operator-owned scratch.
//!
//! ## Workspace ownership rules
//!
//! The Lanczos process hands the operator bare output slices and never
//! sees its intermediates, so every intermediate (`M⁻ᵀx`, `C M⁻ᵀx`, the
//! row-interleaved triangular-solve stage) is owned *by the operator*
//! behind a `RefCell` — `apply_into(&self, …)` stays `&self` (the trait
//! is usable through a shared reference) while still allocating nothing
//! per call.
//! The operator is consequently not `Sync`; parallel callers must give
//! each worker its own instance (cheap: it borrows the factor and `C`).

use crate::{GFactor, LinearOperator};
use mpvl_la::Mat;
use mpvl_sparse::{CscMat, ROW_SOLVE_WIDTH};
use std::cell::RefCell;

/// `x ↦ M⁻¹ C M⁻ᵀ x` for a factored `G + s₀C = M J Mᵀ`.
///
/// Block application stages whole matrices through the same three
/// steps, sharing one sparse traversal of `C` across the columns and one
/// traversal of `L` per [`ROW_SOLVE_WIDTH`] columns; each output column is
/// bit-identical to a scalar [`KrylovOperator::apply_into`] because
/// every per-column kernel does the exact serial operations.
pub struct KrylovOperator<'a> {
    factor: &'a GFactor,
    c: &'a CscMat<f64>,
    scratch: RefCell<Scratch>,
}

struct Scratch {
    /// `M⁻ᵀ x`.
    y: Vec<f64>,
    /// `C M⁻ᵀ x`.
    cy: Vec<f64>,
    /// Row-interleaved triangular-solve stage, `N × ROW_SOLVE_WIDTH`; its
    /// first `N` entries are the scalar path's work vector (the `M⁻ᵀ`
    /// scatter cannot alias).
    stage: Vec<f64>,
    /// Block-apply stages, resized in place when the batch width changes.
    ymat: Mat<f64>,
    cymat: Mat<f64>,
}

impl<'a> KrylovOperator<'a> {
    /// Borrows the factorization and `C`; scratch is sized to the
    /// system dimension once, here.
    pub fn new(factor: &'a GFactor, c: &'a CscMat<f64>) -> Self {
        let n = factor.dim();
        assert_eq!(c.nrows(), n, "C dimension mismatch");
        assert_eq!(c.ncols(), n, "C dimension mismatch");
        KrylovOperator {
            factor,
            c,
            scratch: RefCell::new(Scratch {
                y: vec![0.0; n],
                cy: vec![0.0; n],
                stage: vec![0.0; n * ROW_SOLVE_WIDTH],
                ymat: Mat::zeros(n, 0),
                cymat: Mat::zeros(n, 0),
            }),
        }
    }
}

impl LinearOperator for KrylovOperator<'_> {
    fn dim(&self) -> usize {
        self.factor.dim()
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        let mut s = self.scratch.borrow_mut();
        let Scratch { y, cy, stage, .. } = &mut *s;
        self.factor.apply_minv_t_into(x, &mut stage[..y.len()], y);
        self.c.matvec_into(y, cy);
        self.factor.apply_minv_into(cy, out);
    }

    fn apply_block(&self, x: &Mat<f64>, out: &mut Mat<f64>) {
        let m = x.ncols();
        assert_eq!(out.ncols(), m, "column count mismatch");
        let mut s = self.scratch.borrow_mut();
        let Scratch {
            stage, ymat, cymat, ..
        } = &mut *s;
        ymat.resize_cols(m);
        cymat.resize_cols(m);
        self.factor.apply_minv_t_mat_into(x, stage, ymat);
        self.c.matvec_mat_into(ymat, cymat);
        self.factor.apply_minv_mat_into(cymat, stage, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_sparse::TripletMat;

    fn quasi_definite(n: usize) -> (CscMat<f64>, CscMat<f64>) {
        let mut g = TripletMat::new(n, n);
        let mut c = TripletMat::new(n, n);
        for i in 0..n {
            g.push(i, i, 2.0 + 0.1 * i as f64);
            c.push(i, i, 1e-12 * (1.0 + 0.3 * i as f64));
            if i + 1 < n {
                g.push_sym(i, i + 1, -0.5);
                c.push_sym(i, i + 1, -1e-13);
            }
        }
        (g.to_csc(), c.to_csc())
    }

    #[test]
    fn scalar_apply_matches_legacy_composition() {
        let (g, c) = quasi_definite(10);
        let f = GFactor::factor(&g, g.nrows()).unwrap();
        let op = KrylovOperator::new(&f, &c);
        let x: Vec<f64> = (0..10).map(|i| ((i * 3) as f64 * 0.37).sin()).collect();
        let mut got = vec![0.0; 10];
        op.apply_into(&x, &mut got);
        let want = f.apply_minv(&c.matvec(&f.apply_minv_t(&x)));
        assert_eq!(
            got, want,
            "operator must match the composed appliers bitwise"
        );
    }

    #[test]
    fn block_apply_is_bit_identical_to_scalar_apply() {
        let (g, c) = quasi_definite(12);
        let f = GFactor::factor(&g, g.nrows()).unwrap();
        let op = KrylovOperator::new(&f, &c);
        let x = Mat::from_fn(12, 5, |i, j| ((i * 7 + j * 11) as f64 * 0.23).cos());
        let mut blocked = Mat::zeros(12, 5);
        op.apply_block(&x, &mut blocked);
        let mut col = vec![0.0; 12];
        for j in 0..5 {
            op.apply_into(x.col(j), &mut col);
            assert_eq!(blocked.col(j), &col[..], "column {j}");
        }
        // Width changes must re-stage cleanly.
        let x2 = Mat::from_fn(12, 2, |i, j| ((i + j) as f64 * 0.41).sin());
        let mut b2 = Mat::zeros(12, 2);
        op.apply_block(&x2, &mut b2);
        for j in 0..2 {
            op.apply_into(x2.col(j), &mut col);
            assert_eq!(b2.col(j), &col[..], "column {j} after reshape");
        }
    }
}
