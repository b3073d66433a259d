//! Block-Arnoldi congruence projection — the "coordinate-transformed
//! Arnoldi" alternative of Silveira et al. cited in §1 of the paper
//! (the approach later standardized as PRIMA).
//!
//! An orthonormal basis `X` of the block Krylov space
//! `K((G + s₀C)⁻¹C, (G + s₀C)⁻¹B)` is built by block Arnoldi with modified
//! Gram–Schmidt, and the reduced model is the congruence projection
//! `Ĝ = XᵀGX`, `Ĉ = XᵀCX`, `B̂ = XᵀB`. Congruence preserves positive
//! semi-definiteness, so RC/RL/LC projections are passive by construction —
//! but each state matches only *half* as many moments as the Lanczos-Padé
//! model (`⌊n/p⌋` vs `2⌊n/p⌋`), which is the trade-off the
//! `ablation_block_vs_scalar` harness quantifies.

use crate::reduce::factor_with_shift;
use crate::{Shift, SympvlError};
use mpvl_circuit::MnaSystem;
use mpvl_la::{general_eigenvalues, orthonormalize_columns, Complex64, Lu, Mat};

/// A congruence-projected (Arnoldi) reduced-order model.
#[derive(Debug, Clone)]
pub struct ArnoldiModel {
    ghat: Mat<f64>,
    chat: Mat<f64>,
    bhat: Mat<f64>,
    s_power: u32,
    output_s_factor: u32,
}

impl ArnoldiModel {
    /// Builds an order-`order` block-Arnoldi model.
    ///
    /// # Errors
    ///
    /// Returns factorization errors from [`Shift`] handling, or
    /// [`SympvlError::BadOrder`] for `order == 0`.
    pub fn new(sys: &MnaSystem, order: usize, shift: Shift) -> Result<Self, SympvlError> {
        if order == 0 {
            return Err(SympvlError::BadOrder { order });
        }
        let (factor, _s0) = factor_with_shift(sys, shift)?;
        let n = sys.dim();
        // Blocked K^{-1} X = M^{-T} J M^{-1} X over whole frontiers;
        // j_diag is hoisted once outside the iteration.
        let j_diag = factor.j_diag();
        let kinv_mat = |m: &Mat<f64>| -> Mat<f64> {
            let mut y = factor.apply_minv_mat(m);
            for j in 0..y.ncols() {
                for (v, s) in y.col_mut(j).iter_mut().zip(&j_diag) {
                    *v *= s;
                }
            }
            factor.apply_minv_t_mat(&y)
        };
        // Starting block K^{-1} B, orthonormalized.
        let r0 = kinv_mat(&sys.b);
        let mut x = orthonormalize_columns(&r0, 1e-10);
        let mut frontier = x.clone();
        while x.ncols() < order.min(n) && frontier.ncols() > 0 {
            // Next block: K^{-1} C * frontier, orthogonalized against X.
            let next = kinv_mat(&sys.c.matmul(&frontier));
            // MGS against the existing basis (twice), then internal.
            let mut cols: Vec<Vec<f64>> = (0..next.ncols()).map(|j| next.col(j).to_vec()).collect();
            for col in &mut cols {
                for _ in 0..2 {
                    for k in 0..x.ncols() {
                        let c = mpvl_la::dot(x.col(k), col);
                        mpvl_la::axpy(-c, x.col(k), col);
                    }
                }
            }
            let mut stacked = Mat::zeros(n, cols.len());
            for (j, c) in cols.iter().enumerate() {
                stacked.col_mut(j).copy_from_slice(c);
            }
            let fresh = orthonormalize_columns(&stacked, 1e-10);
            if fresh.ncols() == 0 {
                break; // Krylov space exhausted
            }
            let take = fresh.ncols().min(order.min(n) - x.ncols());
            let fresh = fresh.submatrix(0, n, 0, take);
            x = x.hcat(&fresh);
            frontier = fresh;
        }

        // Congruence projection with the *unshifted* G and C (blocked:
        // one sparse traversal per matrix for all basis columns).
        Ok(ArnoldiModel {
            ghat: x.t_matmul(&sys.g.matmul(&x)),
            chat: x.t_matmul(&sys.c.matmul(&x)),
            bhat: x.t_matmul(&sys.b),
            s_power: sys.s_power,
            output_s_factor: sys.output_s_factor,
        })
    }

    /// Model order (states).
    pub fn order(&self) -> usize {
        self.ghat.nrows()
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.bhat.ncols()
    }

    /// Evaluates `Ẑ(s) = s^{osf} B̂ᵀ(Ĝ + σĈ)⁻¹B̂`.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Singular`] on an exact pole hit.
    pub fn eval(&self, s: Complex64) -> Result<Mat<Complex64>, SympvlError> {
        let sigma = s.powu(self.s_power);
        let n = self.order();
        let k = Mat::from_fn(n, n, |i, j| {
            Complex64::from_real(self.ghat[(i, j)]) + sigma * self.chat[(i, j)]
        });
        let lu = Lu::new(k).map_err(|_| SympvlError::Singular {
            context: "Arnoldi model evaluation",
        })?;
        let b = self.bhat.map(Complex64::from_real);
        let y = lu.solve_mat(&b).map_err(|_| SympvlError::Singular {
            context: "Arnoldi model evaluation",
        })?;
        let factor = s.powu(self.output_s_factor);
        Ok(b.t_matmul(&y).scale(factor))
    }

    /// σ-domain poles: `σ = −1/μ` over eigenvalues `μ` of `Ĝ⁻¹Ĉ`.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Singular`] when `Ĝ` is singular, or
    /// eigensolver failures.
    pub fn sigma_poles(&self) -> Result<Vec<Complex64>, SympvlError> {
        let ginv_c = Lu::new(self.ghat.clone())
            .and_then(|lu| lu.solve_mat(&self.chat))
            .map_err(|_| SympvlError::Singular {
                context: "Arnoldi pole computation",
            })?;
        let mu = general_eigenvalues(&ginv_c).map_err(|e| SympvlError::Eigen {
            reason: e.to_string(),
        })?;
        Ok(mu
            .into_iter()
            .filter(|m| m.abs() > 1e-300)
            .map(|m| -m.recip())
            .collect())
    }

    /// `true` when every σ-pole has a non-positive real part.
    ///
    /// # Errors
    ///
    /// See [`ArnoldiModel::sigma_poles`].
    pub fn is_stable(&self, tol: f64) -> Result<bool, SympvlError> {
        Ok(self.sigma_poles()?.iter().all(|p| p.re <= tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, SympvlOptions};
    use mpvl_circuit::generators::{random_rc, rc_line};

    fn rel_err(a: Complex64, b: Complex64) -> f64 {
        (a - b).abs() / b.abs().max(1e-300)
    }

    #[test]
    fn arnoldi_converges_with_order() {
        let sys = MnaSystem::assemble(&random_rc(21, 40, 2)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let zx = sys.dense_z(s).unwrap();
        let mut last = f64::INFINITY;
        for order in [4, 8, 16, 24] {
            let m = ArnoldiModel::new(&sys, order, Shift::Auto).unwrap();
            let z = m.eval(s).unwrap();
            let err = rel_err(z[(0, 0)], zx[(0, 0)]);
            assert!(err <= last.max(1e-11) * 2.0, "order {order}: {err}");
            last = err;
        }
        assert!(last < 1e-2, "final error {last}");
    }

    #[test]
    fn arnoldi_rc_projection_is_stable() {
        let sys = MnaSystem::assemble(&random_rc(5, 30, 2)).unwrap();
        let m = ArnoldiModel::new(&sys, 10, Shift::Auto).unwrap();
        assert!(m.is_stable(1e-9).unwrap());
    }

    #[test]
    fn lanczos_beats_arnoldi_per_state() {
        // Same order: Padé matches 2x the moments, so SyMPVL should be
        // (usually much) more accurate at matched order.
        let sys = MnaSystem::assemble(&rc_line(60, 30.0, 1e-12)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 3e9);
        let zx = sys.dense_z(s).unwrap();
        let order = 8;
        let lan = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
        let arn = ArnoldiModel::new(&sys, order, Shift::Auto).unwrap();
        let le = rel_err(lan.eval(s).unwrap()[(0, 0)], zx[(0, 0)]);
        let ae = rel_err(arn.eval(s).unwrap()[(0, 0)], zx[(0, 0)]);
        assert!(
            le <= ae * 10.0,
            "Lanczos ({le}) unexpectedly much worse than Arnoldi ({ae})"
        );
    }

    #[test]
    fn exhausts_gracefully_on_small_systems() {
        let sys = MnaSystem::assemble(&random_rc(2, 5, 1)).unwrap();
        let m = ArnoldiModel::new(&sys, 50, Shift::Auto).unwrap();
        assert!(m.order() <= 5);
    }
}
