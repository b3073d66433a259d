//! Modal truncation — the pole-matching family of reduction methods the
//! paper's introduction contrasts with (PACT, ref. \[11], "relies on pole
//! matching").
//!
//! The exact poles of the σ-pencil `(G + s₀C, C)` are computed by a dense
//! eigendecomposition and the `n` modes with the largest *residue weight*
//! at the ports are retained. Unlike Krylov methods this needs the full
//! spectrum (O(N³): only viable for moderate `N`), but it is the accuracy
//! gold standard per retained pole — which makes it the right yardstick
//! for how much the moment-matching heuristic gives up.
//!
//! Implemented for the `J = I` (RC/RL/LC) case, where the generalized
//! eigenproblem reduces to a symmetric one via the `M` factor.

use crate::reduce::factor_with_shift;
use crate::{Shift, SympvlError};
use mpvl_circuit::MnaSystem;
use mpvl_la::{sym_eigen, Complex64, Mat};

/// A modal-truncation reduced model: `Z(σ) ≈ Σ_k w_k w_kᵀ/(1 + (σ−s₀)λ_k)`.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::random_rc, MnaSystem};
/// use sympvl::baselines::modal::ModalModel;
/// use sympvl::Shift;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&random_rc(3, 15, 1))?;
/// let modal = ModalModel::new(&sys, 5, Shift::Auto)?; // keep 5 strongest modes
/// assert_eq!(modal.order(), 5);
/// assert!(modal.sigma_poles().iter().all(|p| p.re <= 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModalModel {
    /// Retained eigenvalues of `A = M⁻¹CM⁻ᵀ`.
    lambdas: Vec<f64>,
    /// Port weight vectors `w_k = (eigvec_kᵀ M⁻¹B)ᵀ`, one per mode.
    weights: Mat<f64>,
    shift: f64,
    s_power: u32,
    output_s_factor: u32,
}

impl ModalModel {
    /// Builds a modal model keeping the `order` strongest port-coupled
    /// modes of a `J = I` system.
    ///
    /// # Errors
    ///
    /// * [`SympvlError::RequiresDefiniteForm`] if `G + s₀C` is indefinite.
    /// * Eigensolver / factorization failures.
    pub fn new(sys: &MnaSystem, order: usize, shift: Shift) -> Result<Self, SympvlError> {
        if order == 0 {
            return Err(SympvlError::BadOrder { order });
        }
        let (factor, s0) = factor_with_shift(sys, shift)?;
        if !factor.is_identity_j() {
            return Err(SympvlError::RequiresDefiniteForm {
                operation: "modal truncation (symmetric path)",
            });
        }
        // Dense A = M^{-1} C M^{-T} = op applied to the identity, staged
        // through the blocked operator (O(N^2) solves — baseline-only cost).
        let n = sys.dim();
        let p = sys.num_ports();
        let op = crate::KrylovOperator::new(&factor, &sys.c);
        let eye = Mat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut a = Mat::zeros(n, n);
        crate::LinearOperator::apply_block(&op, &eye, &mut a);
        // Defensive symmetrization (A is symmetric in exact arithmetic).
        let asym = Mat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let eig = sym_eigen(&asym).map_err(|e| SympvlError::Eigen {
            reason: e.to_string(),
        })?;
        // Port weights per mode: w_k = V_kᵀ (M⁻¹B).
        let start = factor.apply_minv_mat(&sys.b);
        let all_w = eig.vectors.t_matmul(&start); // n x p
                                                  // Rank modes by residue norm ‖w_k‖² (coupling strength).
        let mut idx: Vec<usize> = (0..n).collect();
        let strength = |k: usize| -> f64 { (0..p).map(|j| all_w[(k, j)] * all_w[(k, j)]).sum() };
        idx.sort_by(|&x, &y| strength(y).partial_cmp(&strength(x)).expect("finite"));
        let keep = order.min(n);
        let mut lambdas = Vec::with_capacity(keep);
        let mut weights = Mat::zeros(keep, p);
        for (row, &k) in idx.iter().take(keep).enumerate() {
            lambdas.push(eig.values[k]);
            for j in 0..p {
                weights[(row, j)] = all_w[(k, j)];
            }
        }
        Ok(ModalModel {
            lambdas,
            weights,
            shift: s0,
            s_power: sys.s_power,
            output_s_factor: sys.output_s_factor,
        })
    }

    /// Number of retained modes.
    pub fn order(&self) -> usize {
        self.lambdas.len()
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.weights.ncols()
    }

    /// Evaluates the truncated modal sum at `s`.
    pub fn eval(&self, s: Complex64) -> Mat<Complex64> {
        let sigma = s.powu(self.s_power);
        let x = sigma - self.shift;
        let p = self.num_ports();
        let mut z = Mat::zeros(p, p);
        for (k, &lambda) in self.lambdas.iter().enumerate() {
            let d = (Complex64::ONE + x * lambda).recip();
            for i in 0..p {
                for j in 0..p {
                    let upd = d.scale(self.weights[(k, i)] * self.weights[(k, j)]);
                    z[(i, j)] += upd;
                }
            }
        }
        let factor = s.powu(self.output_s_factor);
        z.scale(factor)
    }

    /// σ-domain poles of the retained modes.
    pub fn sigma_poles(&self) -> Vec<Complex64> {
        self.lambdas
            .iter()
            .filter(|l| l.abs() > 1e-300)
            .map(|&l| Complex64::from_real(self.shift - 1.0 / l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, SympvlOptions};
    use mpvl_circuit::generators::random_rc;

    fn rel_err(a: Complex64, b: Complex64) -> f64 {
        (a - b).abs() / b.abs().max(1e-300)
    }

    #[test]
    fn full_modal_model_is_exact() {
        let sys = MnaSystem::assemble(&random_rc(71, 15, 2)).unwrap();
        let m = ModalModel::new(&sys, sys.dim(), Shift::Auto).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let zx = sys.dense_z(s).unwrap();
        let z = m.eval(s);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    rel_err(z[(i, j)], zx[(i, j)]) < 1e-8,
                    "({i},{j}): {} vs {}",
                    z[(i, j)],
                    zx[(i, j)]
                );
            }
        }
    }

    #[test]
    fn truncation_improves_with_order() {
        let sys = MnaSystem::assemble(&random_rc(72, 25, 1)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 3e8);
        let zx = sys.dense_z(s).unwrap()[(0, 0)];
        let mut last = f64::INFINITY;
        for order in [2usize, 5, 10, 25] {
            let m = ModalModel::new(&sys, order, Shift::Auto).unwrap();
            let err = rel_err(m.eval(s)[(0, 0)], zx);
            assert!(err <= last * 3.0 + 1e-12, "order {order}: {err} vs {last}");
            last = err;
        }
        assert!(last < 1e-8);
    }

    #[test]
    fn modal_poles_are_stable() {
        let sys = MnaSystem::assemble(&random_rc(73, 20, 1)).unwrap();
        let m = ModalModel::new(&sys, 10, Shift::Auto).unwrap();
        for p in m.sigma_poles() {
            assert!(p.re <= 1e-9, "pole {p}");
        }
    }

    #[test]
    fn krylov_competitive_with_modal_per_state() {
        // The point of the comparison: at equal order, moment matching is
        // in the same accuracy class as exact pole matching near the
        // expansion point.
        let sys = MnaSystem::assemble(&random_rc(74, 30, 1)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
        let zx = sys.dense_z(s).unwrap()[(0, 0)];
        let order = 8;
        let modal = ModalModel::new(&sys, order, Shift::Auto).unwrap();
        let krylov = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
        let em = rel_err(modal.eval(s)[(0, 0)], zx);
        let ek = rel_err(krylov.eval(s).unwrap()[(0, 0)], zx);
        assert!(
            ek < em * 100.0 + 1e-9,
            "Krylov ({ek}) inexplicably worse than modal ({em})"
        );
    }
}
