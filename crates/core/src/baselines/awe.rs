//! Asymptotic Waveform Evaluation (AWE): Padé approximation via explicit
//! moment matching (§3.1 of the paper).
//!
//! AWE computes the moments `mₖ` of `Z(σ)` explicitly and fits
//! `Zₙ(x) = Σᵢ rᵢ / (1 − x bᵢ)` by solving a Hankel system for the
//! characteristic polynomial of the `bᵢ` and a Vandermonde system for the
//! residues. The moments converge to the dominant-eigenvector direction
//! exponentially fast, so the Hankel systems become catastrophically
//! ill-conditioned: *"in practice, this approach can be used only for very
//! moderate values of n, such as n < 10"* — the claim the `ablation_awe`
//! experiment reproduces.

use crate::{exact_moments, SympvlError};
use mpvl_circuit::MnaSystem;
use mpvl_la::{general_eigenvalues, Complex64, Lu, Mat};

/// A single-port AWE (explicit-moment Padé) model.
#[derive(Debug, Clone)]
pub struct AweModel {
    /// Residues `rᵢ`.
    residues: Vec<Complex64>,
    /// Pole parameters `bᵢ` (`σ`-domain poles at `s₀ + 1/bᵢ`).
    bs: Vec<Complex64>,
    shift: f64,
    s_power: u32,
    output_s_factor: u32,
}

impl AweModel {
    /// Builds an order-`n` AWE model of a single-port system, expanding
    /// about `σ = s₀`.
    ///
    /// # Errors
    ///
    /// * [`SympvlError::Synthesis`] if the system is not single-port.
    /// * [`SympvlError::Singular`] when the Hankel or Vandermonde system is
    ///   numerically singular — the §3.1 instability manifesting.
    /// * Factorization errors from the moment computation.
    pub fn new(sys: &MnaSystem, n: usize, s0: f64) -> Result<Self, SympvlError> {
        if sys.num_ports() != 1 {
            return Err(SympvlError::Synthesis {
                reason: "AWE baseline implemented for single-port systems".to_string(),
            });
        }
        if n == 0 {
            return Err(SympvlError::BadOrder { order: n });
        }
        let moments = exact_moments(sys, s0, 2 * n)?;
        let raw: Vec<f64> = moments.iter().map(|mk| mk[(0, 0)]).collect();
        // Frequency normalization (standard AWE practice): the poles sit
        // at physical σ scales, so the raw moments span many decades and
        // the Hankel matrix is hopeless without rescaling. Work with
        // m̃ₖ = mₖ·scaleᵏ where 1/scale ≈ the dominant |b|.
        let scale = if raw.len() > 1 && raw[1] != 0.0 && raw[0] != 0.0 {
            (raw[0] / raw[1]).abs()
        } else {
            1.0
        };
        let m: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(k, &v)| v * scale.powi(k as i32))
            .collect();
        // Hankel system for the monic characteristic polynomial
        // b^n + c_{n-1} b^{n-1} + ... + c_0 of the (scaled) b_i:
        //   sum_j c_j m_{k+j} = -m_{k+n},  k = 0..n-1.
        let h = Mat::from_fn(n, n, |k, j| m[k + j]);
        let rhs: Vec<f64> = (0..n).map(|k| -m[k + n]).collect();
        let c = Lu::new(h)
            .and_then(|lu| lu.solve(&rhs))
            .map_err(|_| SympvlError::Singular {
                context: "AWE Hankel system",
            })?;
        // Companion matrix roots.
        let comp = Mat::from_fn(n, n, |i, j| {
            if i == 0 {
                -c[n - 1 - j]
            } else if i == j + 1 {
                1.0
            } else {
                0.0
            }
        });
        let bs: Vec<Complex64> = general_eigenvalues(&comp)
            .map_err(|e| SympvlError::Eigen {
                reason: e.to_string(),
            })?
            .into_iter()
            // Undo the moment scaling: b = b̃ / scale.
            .map(|b| b / scale)
            .collect();
        // Vandermonde for residues, in scaled coordinates for conditioning:
        // sum_i r_i (b_i·scale)^k = m̃_k, k = 0..n-1.
        let v = Mat::from_fn(n, n, |k, i| {
            let mut acc = Complex64::ONE;
            for _ in 0..k {
                acc *= bs[i] * scale;
            }
            acc
        });
        let mz: Vec<Complex64> = m[..n].iter().map(|&x| Complex64::from_real(x)).collect();
        let residues =
            Lu::new(v)
                .and_then(|lu| lu.solve(&mz))
                .map_err(|_| SympvlError::Singular {
                    context: "AWE Vandermonde system",
                })?;
        Ok(AweModel {
            residues,
            bs,
            shift: s0,
            s_power: sys.s_power,
            output_s_factor: sys.output_s_factor,
        })
    }

    /// Model order.
    pub fn order(&self) -> usize {
        self.bs.len()
    }

    /// The σ-domain poles `s₀ + 1/bᵢ`.
    pub fn sigma_poles(&self) -> Vec<Complex64> {
        self.bs
            .iter()
            .filter(|b| b.abs() > 1e-300)
            .map(|&b| Complex64::from_real(self.shift) + b.recip())
            .collect()
    }

    /// Evaluates `Zₙ(s)` with the `σ = s^{sp}` substitution and leading
    /// `s` factor, matching [`crate::ReducedModel::eval`].
    pub fn eval(&self, s: Complex64) -> Complex64 {
        let sigma = s.powu(self.s_power);
        let x = sigma - self.shift;
        let mut z = Complex64::ZERO;
        for (&r, &b) in self.residues.iter().zip(&self.bs) {
            z += r / (Complex64::ONE - x * b);
        }
        let factor = s.powu(self.output_s_factor);
        z * factor
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
    fn low_order_awe_is_accurate() {
        let sys = MnaSystem::assemble(&random_rc(11, 30, 1)).unwrap();
        let awe = AweModel::new(&sys, 6, 0.0).unwrap();
        for f in [1e6, 1e7] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z = awe.eval(s);
            let zx = sys.dense_z(s).unwrap()[(0, 0)];
            assert!(rel_err(z, zx) < 1e-3, "f={f}: {z} vs {zx}");
        }
    }

    #[test]
    fn awe_matches_sympvl_at_low_order() {
        let sys = MnaSystem::assemble(&random_rc(13, 25, 1)).unwrap();
        let awe = AweModel::new(&sys, 3, 0.0).unwrap();
        let lanczos = sympvl(&sys, 3, &SympvlOptions::default()).unwrap();
        // Same Padé approximant computed two ways.
        for f in [1e7, 1e9] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let za = awe.eval(s);
            let zl = lanczos.eval(s).unwrap()[(0, 0)];
            assert!(rel_err(za, zl) < 1e-6, "f={f}: awe {za} vs lanczos {zl}");
        }
    }

    #[test]
    fn high_order_awe_degrades_or_fails() {
        // The §3.1 instability: by order ~20 the Hankel systems are
        // numerically singular or the model has gone bad.
        let sys = MnaSystem::assemble(&random_rc(17, 60, 1)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let zx = sys.dense_z(s).unwrap()[(0, 0)];
        match AweModel::new(&sys, 25, 0.0) {
            Err(_) => {} // outright numerical failure: expected
            Ok(awe) => {
                let lanczos = sympvl(&sys, 25, &SympvlOptions::default()).unwrap();
                let awe_err = rel_err(awe.eval(s), zx);
                let lanczos_err = rel_err(lanczos.eval(s).unwrap()[(0, 0)], zx);
                assert!(
                    lanczos_err < awe_err || awe_err > 1e-8,
                    "AWE unexpectedly fine at order 25: awe {awe_err} lanczos {lanczos_err}"
                );
            }
        }
    }

    #[test]
    fn rejects_multiport() {
        let sys = MnaSystem::assemble(&random_rc(1, 10, 2)).unwrap();
        assert!(AweModel::new(&sys, 3, 0.0).is_err());
    }
}
