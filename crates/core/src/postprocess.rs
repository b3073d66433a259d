//! Post-processing of general-RLC reduced models (§5).
//!
//! For full RLC circuits the paper notes that Padé-based reduced models
//! are "in general not stable and not passive", but that sufficiently
//! accurate models are *almost* stable/passive and "can in fact be made
//! stable and passive by a suitable post-processing of Zₙ. Such
//! post-processing techniques will be described elsewhere." This module
//! implements that deferred step, in the form later standardized in the
//! Padé-based MOR literature:
//!
//! 1. Convert `Zₙ` to pole–residue form via the eigendecomposition of the
//!    (generally non-symmetric) `Tₙ` — the same diagonalization a compiled
//!    [`crate::EvalPlan`] is built on.
//! 2. **Stabilize**: reflect right-half-plane poles across the imaginary
//!    axis (`s → −s̄`), which preserves the magnitude response shape, and
//!    drop pole/residue pairs with negligible residue norm.
//! 3. Re-assemble a real state-space model from the surviving poles.
//!
//! The result is a [`PoleResidueModel`]: always stable, evaluable exactly
//! like a [`ReducedModel`], and convertible to a time-domain stamp.

use crate::eval::{diagonalize, DiagonalizeError};
use crate::{ReducedModel, SympvlError};
use mpvl_la::{Complex64, Mat};

/// A stable pole–residue form of a reduced-order model:
/// `Z(s) ≈ Σ_k R_k / (σ(s) − p_k)` (σ-domain poles `p_k`, matrix residues
/// `R_k`), with complex poles in conjugate pairs.
#[derive(Debug, Clone)]
pub struct PoleResidueModel {
    /// σ-domain poles, conjugate-closed.
    poles: Vec<Complex64>,
    /// Matrix residues, one `p×p` complex matrix per pole.
    residues: Vec<Mat<Complex64>>,
    /// Constant (direct) term.
    direct: Mat<Complex64>,
    s_power: u32,
    output_s_factor: u32,
    /// Number of poles reflected from the right half-plane.
    reflected: usize,
    /// Number of pole/residue pairs dropped as negligible.
    dropped: usize,
}

impl PoleResidueModel {
    /// Number of retained poles.
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.direct.nrows()
    }

    /// How many right-half-plane poles were reflected to stabilize.
    pub fn reflected_poles(&self) -> usize {
        self.reflected
    }

    /// How many negligible pole/residue pairs were dropped.
    pub fn dropped_poles(&self) -> usize {
        self.dropped
    }

    /// The retained σ-domain poles.
    pub fn sigma_poles(&self) -> &[Complex64] {
        &self.poles
    }

    /// `true`: every retained pole satisfies `Re p ≤ tol` (by construction
    /// after reflection; exposed for verification).
    pub fn is_stable(&self, tol: f64) -> bool {
        self.poles.iter().all(|p| p.re <= tol)
    }

    /// Evaluates the stabilized transfer function at `s`, with the same
    /// `σ = s^{sp}` / leading-`s` conventions as [`ReducedModel::eval`].
    pub fn eval(&self, s: Complex64) -> Mat<Complex64> {
        let sigma = s.powu(self.s_power);
        let p = self.num_ports();
        let mut z = self.direct.clone();
        for (pk, rk) in self.poles.iter().zip(&self.residues) {
            let d = (sigma - *pk).recip();
            for i in 0..p {
                for j in 0..p {
                    let upd = rk[(i, j)] * d;
                    z[(i, j)] += upd;
                }
            }
        }
        let factor = s.powu(self.output_s_factor);
        z.scale(factor)
    }
}

/// Options for [`stabilize`].
#[derive(Debug, Clone)]
pub struct PostprocessOptions {
    /// Drop pole/residue pairs whose residue Frobenius norm is below
    /// `residue_tol × (largest residue norm)`.
    pub residue_tol: f64,
    /// Poles with `Re p` above this (relative to `|p|`) are reflected.
    pub stability_tol: f64,
}

impl Default for PostprocessOptions {
    fn default() -> Self {
        PostprocessOptions {
            residue_tol: 1e-12,
            stability_tol: 1e-9,
        }
    }
}

/// Converts a reduced model to pole–residue form and enforces stability by
/// reflecting right-half-plane poles (the paper's deferred
/// "post-processing" for general RLC circuits).
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::package, generators::PackageParams, MnaSystem};
/// use sympvl::{stabilize, sympvl, PostprocessOptions, SympvlOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ckt = package(&PackageParams {
///     pins: 8, signal_pins: vec![0], sections: 3,
///     ..PackageParams::default()
/// });
/// let sys = MnaSystem::assemble_general(&ckt)?;
/// let model = sympvl(&sys, 10, &SympvlOptions::default())?; // RLC: no guarantee
/// let stable = stabilize(&model, &PostprocessOptions::default())?;
/// assert!(stable.is_stable(1e-6)); // …but post-processing guarantees this
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`SympvlError::Eigen`] if the eigendecomposition of `Tₙ` fails.
/// * [`SympvlError::Singular`] if the eigenvector basis of `Tₙ` is
///   singular or too ill-conditioned (LU `rcond` estimate below 1e-12, the
///   floor of [`crate::EvalPlan`]): residue extraction needs it inverted.
pub fn stabilize(
    model: &ReducedModel,
    opts: &PostprocessOptions,
) -> Result<PoleResidueModel, SympvlError> {
    let p = model.num_ports();
    // Z_n(x) = sum_k W_k / (1 + x lambda_k) (the shared diagonalization).
    // In sigma domain with pole p_k = s0 - 1/lambda_k:
    //   1/(1 + (sigma - s0) lambda_k) = (1/lambda_k) / (sigma - p_k) for
    //   lambda_k != 0; lambda_k == 0 contributes to the direct term.
    let pr = diagonalize(model).map_err(|e| match e {
        DiagonalizeError::Eigen(reason) => SympvlError::Eigen { reason },
        DiagonalizeError::Basis(_) => SympvlError::Singular {
            context: "post-processing eigenbasis",
        },
    })?;
    let s0 = model.shift();
    let mut poles = Vec::new();
    let mut residues: Vec<Mat<Complex64>> = Vec::new();
    let mut direct = Mat::<Complex64>::zeros(p, p);
    for (k, &lam) in pr.lambdas.iter().enumerate() {
        let wk = &pr.residues[k * p * p..(k + 1) * p * p];
        if lam.abs() < 1e-14 {
            for (d, &w) in direct.as_mut_slice().iter_mut().zip(wk) {
                *d += w;
            }
            continue;
        }
        let coef = lam.recip();
        poles.push(Complex64::from_real(s0) - coef);
        residues.push(Mat::from_fn(p, p, |i, j| wk[j * p + i] * coef));
    }

    // Stabilize: reflect RHP poles; drop negligible residues.
    let max_res = residues
        .iter()
        .map(|r| r.norm_fro())
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut reflected = 0usize;
    let mut dropped = 0usize;
    let mut out_poles = Vec::new();
    let mut out_res = Vec::new();
    for (pk, rk) in poles.into_iter().zip(residues) {
        if rk.norm_fro() < opts.residue_tol * max_res {
            dropped += 1;
            continue;
        }
        let stable_pk = if pk.re > opts.stability_tol * pk.abs().max(1.0) {
            reflected += 1;
            Complex64::new(-pk.re, pk.im)
        } else {
            pk
        };
        out_poles.push(stable_pk);
        out_res.push(rk);
    }
    Ok(PoleResidueModel {
        poles: out_poles,
        residues: out_res,
        direct,
        s_power: model.s_power(),
        output_s_factor: model.output_s_factor(),
        reflected,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, Shift, SympvlOptions};
    use mpvl_circuit::generators::{package, random_rc, PackageParams};
    use mpvl_circuit::MnaSystem;

    #[test]
    fn pole_residue_form_matches_model_for_rc() {
        let sys = MnaSystem::assemble(&random_rc(31, 20, 2)).unwrap();
        let model = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
        let pr = stabilize(&model, &PostprocessOptions::default()).unwrap();
        assert_eq!(pr.reflected_poles(), 0, "RC models are already stable");
        for f in [1e7, 1e8, 1e9] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z1 = model.eval(s).unwrap();
            let z2 = pr.eval(s);
            for i in 0..2 {
                for j in 0..2 {
                    let rel = (z1[(i, j)] - z2[(i, j)]).abs() / z1[(i, j)].abs().max(1e-30);
                    assert!(rel < 1e-6, "({i},{j}) at {f}: rel {rel}");
                }
            }
        }
    }

    #[test]
    fn stabilization_clears_rhp_poles_of_rlc_model() {
        let ckt = package(&PackageParams {
            pins: 12,
            signal_pins: vec![0, 1],
            sections: 4,
            ..PackageParams::default()
        });
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let s0 = Shift::Value(2.0 * std::f64::consts::PI * 7e8);
        // Hunt a model with unstable poles among small orders.
        let mut found_unstable = false;
        for order in [12usize, 16, 24, 32, 40] {
            let model = sympvl(
                &sys,
                order,
                &SympvlOptions {
                    shift: s0,
                    ..SympvlOptions::default()
                },
            )
            .unwrap();
            let unstable = model.poles().unwrap().iter().filter(|p| p.re > 1e3).count();
            let pr = stabilize(&model, &PostprocessOptions::default()).unwrap();
            assert!(pr.is_stable(1e-6), "post-processing must stabilize");
            if unstable > 0 {
                found_unstable = true;
                assert!(pr.reflected_poles() > 0);
                // The stabilized model still approximates in-band.
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 5e8);
                let zx = sys.dense_z(s).unwrap();
                let z = pr.eval(s);
                let rel = (z[(0, 0)] - zx[(0, 0)]).abs() / zx[(0, 0)].abs();
                assert!(rel < 0.5, "stabilized model unusable: rel {rel}");
            }
        }
        assert!(
            found_unstable,
            "no order in the hunt produced a right-half-plane pole to reflect"
        );
    }

    #[test]
    fn pole_residue_form_matches_rlc_model_across_band() {
        // A3's package model at every order A3 runs: with nothing
        // reflected or dropped, the pole–residue form is a rewrite of Zₙ
        // and must reproduce it over five decades.
        let ckt = package(&PackageParams {
            pins: 12,
            signal_pins: vec![0, 6],
            sections: 4,
            ..PackageParams::default()
        });
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let opts = SympvlOptions::new()
            .with_shift(Shift::Value(2.0 * std::f64::consts::PI * 7e8))
            .unwrap();
        let keep_all = PostprocessOptions {
            residue_tol: 0.0,
            stability_tol: f64::INFINITY,
        };
        for order in [16usize, 32, 48, 64] {
            let model = sympvl(&sys, order, &opts).unwrap();
            let pr = stabilize(&model, &keep_all).unwrap();
            assert_eq!((pr.reflected_poles(), pr.dropped_poles()), (0, 0));
            let (mut diff, mut scale) = (0.0f64, 0.0f64);
            for k in 0..40 {
                let f = 10f64.powf(6.0 + 5.0 * k as f64 / 39.0);
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
                let z = model.eval(s).unwrap();
                diff = diff.max((&pr.eval(s) - &z).max_abs());
                scale = scale.max(z.max_abs());
            }
            let rel = diff / scale;
            assert!(rel < 1e-9, "order {order}: max|ΔZ|/max|Z| = {rel:.3e}");
        }
    }

    #[test]
    fn conjugate_pole_pairs_give_real_response() {
        let ckt = package(&PackageParams {
            pins: 6,
            signal_pins: vec![0],
            sections: 3,
            ..PackageParams::default()
        });
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let model = sympvl(&sys, 12, &SympvlOptions::default()).unwrap();
        let pr = stabilize(&model, &PostprocessOptions::default()).unwrap();
        // At a real frequency point sigma real, the response must be real
        // (conjugate symmetry of poles/residues).
        let z = pr.eval(Complex64::from_real(1e9));
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    z[(i, j)].im.abs() < 1e-6 * z[(i, j)].abs().max(1e-30),
                    "({i},{j}): {}",
                    z[(i, j)]
                );
            }
        }
    }
}
