//! The real linear solver shared by DC and transient analysis.

use mpvl_la::{BunchKaufman, Lu};
use mpvl_sparse::{CscMat, LdltError, NumericLdlt, Ordering};

/// A factored real system matrix (`G` at DC, the companion `G + αC` in a
/// transient): sparse LDLᵀ when the matrix is symmetric and factors;
/// dense Bunch–Kaufman when it is symmetric but a structurally zero
/// diagonal (inductor-current unknowns, an inductor-only internal node)
/// defeats the unpivoted sparse LDLᵀ — the same fallback the reduction's
/// `GFactor` uses; dense pivoted LU when it is nonsymmetric (active
/// elements).
pub(crate) enum RealSolver {
    Sparse(NumericLdlt<f64>),
    SymDense(BunchKaufman),
    Dense(Lu<f64>),
}

impl RealSolver {
    /// Factors `a`; `symmetric` selects the LDLᵀ routes.
    ///
    /// # Errors
    ///
    /// When every route fails: the sparse LDLᵀ error for a symmetric
    /// matrix (it names the offending pivot), a zero pivot at the LU's
    /// failing step otherwise.
    pub(crate) fn factor(a: &CscMat<f64>, symmetric: bool) -> Result<Self, LdltError> {
        if !symmetric {
            return Lu::new(a.to_dense()).map(RealSolver::Dense).map_err(|e| {
                LdltError::ZeroPivot {
                    col: e.step,
                    magnitude: 0.0,
                }
            });
        }
        match NumericLdlt::factor(a, Ordering::MinDegree) {
            Ok(f) => Ok(RealSolver::Sparse(f)),
            Err(sparse_err) => BunchKaufman::new(&a.to_dense())
                .map(RealSolver::SymDense)
                .map_err(|_| sparse_err),
        }
    }

    /// Solves `A x = b`.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            RealSolver::Sparse(f) => f.solve(b),
            RealSolver::SymDense(bk) => bk.solve(b),
            RealSolver::Dense(lu) => lu.solve(b).expect("factored nonsingular"),
        }
    }
}
