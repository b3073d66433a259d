//! # mpvl-la — dense linear algebra for the SyMPVL reproduction
//!
//! Self-contained dense kernels used throughout the workspace:
//!
//! * [`Complex64`] — double-precision complex numbers.
//! * [`Scalar`] — the field abstraction (`f64` / [`Complex64`]) shared by
//!   the real and complex factorizations.
//! * [`Mat`] — dense column-major matrices.
//! * [`Lu`] — LU with partial pivoting (generic over [`Scalar`]).
//! * [`Cholesky`] — SPD factorization (the paper's `J = I` branch).
//! * [`BunchKaufman`] / [`MjFactor`] — symmetric-indefinite LDLᵀ and the
//!   paper's `G = M J Mᵀ` form (eq. 15) with `J = diag(±1)`.
//! * [`Qr`] — Householder QR, plus [`orthonormalize_columns`] and its
//!   appending form [`orthonormalize_into`].
//! * [`sym_eigen`] / [`general_eigenvalues`] / [`general_eigen`] —
//!   eigensolvers for the stability/passivity certificates, pole
//!   computation, and pole–residue evaluation-plan compilation.
//! * [`block_dot`] / [`block_sub`] — the block Gram–Schmidt kernels, and
//!   [`simd_dispatch!`], which runs them (and the sparse crate's
//!   row-interleaved solves) as AVX-512, AVX2 or baseline builds with
//!   the same bits.
//!
//! Everything is implemented from scratch (no external numeric crates), as
//! documented in `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use mpvl_la::{Mat, Lu, Complex64};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Solve a complex system, as the AC analysis does per frequency point.
//! let s = Complex64::new(0.0, 1.0e3);
//! let a = Mat::from_fn(2, 2, |i, j| {
//!     if i == j { Complex64::ONE + s * 1e-6 } else { Complex64::from_real(-0.1) }
//! });
//! let x = Lu::new(a)?.solve(&[Complex64::ONE, Complex64::ZERO])?;
//! assert!(x[0].abs() > 0.0);
//! # Ok(())
//! # }
//! ```

// Numerical kernels follow the textbook index-based formulations;
// iterator rewrites obscure the math they mirror.
#![allow(clippy::needless_range_loop)]

mod blockops;
mod cholesky;
mod complex;
mod eig;
mod ldlt;
mod lu;
mod mat;
mod qr;
mod scalar;
mod simd;
mod vecops;

pub use blockops::{block_dot, block_sub, PANEL_ROWS};
pub use cholesky::Cholesky;
pub use complex::Complex64;
pub use eig::{
    general_eigen, general_eigenvalues, sym_eigen, EigenConvergenceError, GeneralEigen, SymEigen,
};
pub use ldlt::{BunchKaufman, MjFactor, PivotBlock};
pub use lu::{solve_dense, Lu, SingularMatrixError};
pub use mat::Mat;
pub use qr::{orthonormalize_columns, orthonormalize_into, Qr};
pub use scalar::Scalar;
pub use vecops::{axpy, dot, dotc, max_abs, norm2, scal};
