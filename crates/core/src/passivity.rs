//! Stability and passivity certificates (paper §5).
//!
//! For RC/RL/LC circuits the paper proves the reduced models stable and
//! passive at every order: `J = I` makes `Tₙ = VₙᵀAVₙ` symmetric positive
//! semi-definite, so all poles lie on the non-positive real σ-axis, and the
//! quadratic-form argument of §5.2 gives `Re xᴴZₙ(s)x ≥ 0` on the right
//! half-plane. This module provides both the **analytic certificate**
//! (eigenvalues of `Tₙ`) and a **sampling check** (positive
//! semi-definiteness of the Hermitian part of `Zₙ(jω)`) usable for general
//! RLC models, where no guarantee exists.

use crate::{ReducedModel, SympvlError};
use mpvl_la::{sym_eigen, Complex64, Mat};

/// Outcome of the analytic §5 certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum Certificate {
    /// `J = I` and `Tₙ ⪰ 0`: provably stable and passive (§5.1–5.2).
    ProvablyPassive {
        /// Smallest eigenvalue of `Tₙ` (≥ `-tol`).
        min_eigenvalue: f64,
    },
    /// `J = I` but `Tₙ` has an eigenvalue below `-tol` — numerically
    /// outside the certificate (should not happen beyond roundoff).
    IndefiniteT {
        /// The offending eigenvalue.
        min_eigenvalue: f64,
    },
    /// Indefinite `J` (general RLC): the paper gives no guarantee; use
    /// [`sampled_passivity`].
    NoGuarantee,
}

/// Applies the analytic stability/passivity certificate of §5.
///
/// # Errors
///
/// Returns [`SympvlError::Eigen`] if the eigensolver fails.
pub fn certify(model: &ReducedModel, tol: f64) -> Result<Certificate, SympvlError> {
    if !model.guarantees_passivity() {
        return Ok(Certificate::NoGuarantee);
    }
    // `sym_eigen`'s ascending values, cached on the model.
    let min = model.t_eigenvalues()?.first().map_or(0.0, |l| l.re);
    if min >= -tol {
        Ok(Certificate::ProvablyPassive {
            min_eigenvalue: min,
        })
    } else {
        Ok(Certificate::IndefiniteT {
            min_eigenvalue: min,
        })
    }
}

/// Checks stability: every s-domain pole satisfies `Re s ≤ tol`.
///
/// # Errors
///
/// Returns [`SympvlError::Eigen`] if pole computation fails.
pub fn is_stable(model: &ReducedModel, tol: f64) -> Result<bool, SympvlError> {
    Ok(model.poles()?.iter().all(|p| p.re <= tol))
}

/// Result of a sampled passivity scan along the imaginary axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PassivityScan {
    /// Worst (most negative) eigenvalue of the Hermitian part of `Z(jω)`
    /// over the scan, paired with the frequency where it occurred.
    pub worst: (f64, f64),
    /// `true` when the worst eigenvalue is ≥ `-tol`.
    pub passive: bool,
}

/// Samples `Re xᴴZ(jω)x ≥ 0` (condition (iii) of §5.2) by checking the
/// smallest eigenvalue of the Hermitian part `(Z + Zᴴ)/2` at each given
/// frequency.
///
/// # Errors
///
/// Propagates evaluation and eigensolver failures.
pub fn sampled_passivity(
    model: &ReducedModel,
    freqs_hz: &[f64],
    tol: f64,
) -> Result<PassivityScan, SympvlError> {
    let mut worst = (f64::INFINITY, 0.0f64);
    for &f in freqs_hz {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let z = match model.eval(s) {
            Ok(z) => z,
            // Exactly on a pole: skip the sample (an LC model is lossless;
            // its poles sit on the axis we are scanning).
            Err(SympvlError::Singular { .. }) => continue,
            Err(e) => return Err(e),
        };
        let min = min_eig_hermitian_part(&z)?;
        if min < worst.0 {
            worst = (min, f);
        }
    }
    if !worst.0.is_finite() {
        worst = (0.0, 0.0);
    }
    let scale = 1.0;
    Ok(PassivityScan {
        worst,
        passive: worst.0 >= -tol * scale,
    })
}

/// Smallest eigenvalue of the Hermitian part of a complex matrix, computed
/// via the real symmetric embedding `[[X, -Y], [Y, X]]` of `H = X + iY`.
fn min_eig_hermitian_part(z: &Mat<Complex64>) -> Result<f64, SympvlError> {
    let p = z.nrows();
    // H = (Z + Z^H)/2 is Hermitian: H = X + iY, X symmetric, Y skew.
    let mut x = Mat::zeros(p, p);
    let mut y = Mat::zeros(p, p);
    for i in 0..p {
        for j in 0..p {
            let h = (z[(i, j)] + z[(j, i)].conj()).scale(0.5);
            x[(i, j)] = h.re;
            y[(i, j)] = h.im;
        }
    }
    // Real embedding: eigenvalues of H are those of [[X, -Y],[Y, X]]
    // (each doubled).
    let m = Mat::from_fn(2 * p, 2 * p, |i, j| {
        let (bi, ii) = (i / p, i % p);
        let (bj, jj) = (j / p, j % p);
        match (bi, bj) {
            (0, 0) | (1, 1) => x[(ii, jj)],
            (0, 1) => -y[(ii, jj)],
            _ => y[(ii, jj)],
        }
    });
    let eig = sym_eigen(&m).map_err(|e| SympvlError::Eigen {
        reason: e.to_string(),
    })?;
    Ok(eig.values.first().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, SympvlOptions};
    use mpvl_circuit::generators::{random_lc, random_rc, random_rl};
    use mpvl_circuit::MnaSystem;

    #[test]
    fn rc_models_provably_passive_at_every_order() {
        for seed in 0..4 {
            let sys = MnaSystem::assemble(&random_rc(seed, 20, 2)).unwrap();
            for order in [1, 3, 6, 10] {
                let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
                match certify(&model, 1e-10).unwrap() {
                    Certificate::ProvablyPassive { .. } => {}
                    other => panic!("seed {seed} order {order}: {other:?}"),
                }
                assert!(is_stable(&model, 1e-9).unwrap());
            }
        }
    }

    #[test]
    fn rl_models_provably_passive() {
        for seed in 0..3 {
            let sys = MnaSystem::assemble(&random_rl(seed, 15, 2)).unwrap();
            let model = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
            assert!(matches!(
                certify(&model, 1e-10).unwrap(),
                Certificate::ProvablyPassive { .. }
            ));
            assert!(is_stable(&model, 1e-9).unwrap());
        }
    }

    #[test]
    fn lc_models_poles_on_imaginary_axis() {
        let sys = MnaSystem::assemble(&random_lc(1, 12, 2)).unwrap();
        let model = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
        assert!(model.guarantees_passivity());
        // sigma-poles non-positive real => s-poles purely imaginary.
        for p in model.poles().unwrap() {
            assert!(
                p.re.abs() < 1e-6 * p.abs().max(1.0),
                "pole {p} off the axis"
            );
        }
    }

    #[test]
    fn sampled_scan_confirms_rc_passivity() {
        let sys = MnaSystem::assemble(&random_rc(9, 25, 3)).unwrap();
        let model = sympvl(&sys, 9, &SympvlOptions::default()).unwrap();
        let freqs: Vec<f64> = (0..40).map(|k| 10f64.powf(6.0 + k as f64 * 0.1)).collect();
        let scan = sampled_passivity(&model, &freqs, 1e-9).unwrap();
        assert!(scan.passive, "worst {:?}", scan.worst);
    }

    #[test]
    fn hermitian_part_eig_is_correct() {
        // Z = [[1, i],[−i, 1]] is Hermitian with eigenvalues 0 and 2.
        let z = Mat::from_rows(&[
            &[Complex64::ONE, Complex64::I],
            &[-Complex64::I, Complex64::ONE],
        ]);
        let min = min_eig_hermitian_part(&z).unwrap();
        assert!(min.abs() < 1e-12);
    }
}
