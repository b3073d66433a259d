//! SyPVL — the single-input single-output predecessor (paper ref. \[8]).
//!
//! *"The work described in this present paper generalizes SyPVL, which is
//! an algorithm for computing single-input single-output transfer
//! functions and models."* This module implements that predecessor in its
//! classical form: the scalar symmetric Lanczos process producing a
//! **tridiagonal** `Tₙ`, with the Padé approximant evaluated both by the
//! generic resolvent formula and by the continued-fraction recurrence the
//! Lanczos–Padé connection (Gragg, ref. \[10]) is built on.
//!
//! It serves three purposes: a lineage artifact (the algorithm SyMPVL
//! generalizes), an independent cross-check oracle for the block code at
//! `p = 1` (the two must agree to machine precision), and the natural home
//! of the ref-\[8] Cauer-form synthesis ([`cauer_synthesis`]).

use crate::reduce::factor_with_shift;
use crate::{KrylovOperator, LinearOperator, Shift, SympvlError};
use mpvl_circuit::{Circuit, MnaSystem};
use mpvl_la::Complex64;

/// A scalar (p = 1) Padé reduced-order model with tridiagonal `Tₙ`.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::random_rc, MnaSystem};
/// use mpvl_la::Complex64;
/// use sympvl::{Shift, SypvlModel};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&random_rc(2, 30, 1))?;
/// let model = SypvlModel::new(&sys, 12, Shift::Auto)?;
/// let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
/// let z = model.eval(s); // continued-fraction evaluation
/// let zx = sys.dense_z(s)?[(0, 0)];
/// assert!((z - zx).abs() / zx.abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SypvlModel {
    /// Diagonal of the tridiagonal `Tₙ` (`alpha`), length `n`.
    alpha: Vec<f64>,
    /// Sub/super-diagonal (`beta`), length `n − 1`.
    beta: Vec<f64>,
    /// Starting coefficient: `M⁻¹b = ρ₁·v₁` (J = I assumed).
    rho1: f64,
    shift: f64,
    s_power: u32,
    output_s_factor: u32,
    identity_j: bool,
}

impl SypvlModel {
    /// Runs the scalar symmetric Lanczos process on a single-port system.
    ///
    /// # Errors
    ///
    /// * [`SympvlError::Synthesis`] unless the system has exactly one port.
    /// * [`SympvlError::RequiresDefiniteForm`] if `G + s₀C` is indefinite
    ///   (the scalar variant here implements the classical `J = I` form;
    ///   use [`crate::sympvl`] for the general case).
    /// * Factorization errors from the shift handling.
    pub fn new(sys: &MnaSystem, order: usize, shift: Shift) -> Result<Self, SympvlError> {
        if sys.num_ports() != 1 {
            return Err(SympvlError::Synthesis {
                reason: "SyPVL is the single-port variant".to_string(),
            });
        }
        if order == 0 {
            return Err(SympvlError::BadOrder { order });
        }
        let (factor, s0) = factor_with_shift(sys, shift)?;
        if !factor.is_identity_j() {
            return Err(SympvlError::RequiresDefiniteForm {
                operation: "classical SyPVL (J = I)",
            });
        }
        let op = KrylovOperator::new(&factor, &sys.c);
        // Classical three-term symmetric Lanczos with full reorthogonalization.
        let r0 = factor.apply_minv(sys.b.col(0));
        let rho1 = mpvl_la::norm2(&r0);
        if rho1 == 0.0 {
            return Err(SympvlError::Synthesis {
                reason: "zero starting vector".to_string(),
            });
        }
        let n_max = order.min(r0.len());
        let mut v_prev: Vec<f64> = vec![0.0; r0.len()];
        let mut v: Vec<f64> = r0.iter().map(|&x| x / rho1).collect();
        let mut basis: Vec<Vec<f64>> = vec![v.clone()];
        let mut alpha = Vec::with_capacity(n_max);
        let mut beta: Vec<f64> = Vec::with_capacity(n_max.saturating_sub(1));
        // One operator apply target, reused across iterations (the operator
        // itself allocates nothing per call; see `KrylovOperator`).
        let mut w = vec![0.0; r0.len()];
        for k in 0..n_max {
            op.apply_into(&v, &mut w);
            let a_k = mpvl_la::dot(&v, &w);
            alpha.push(a_k);
            mpvl_la::axpy(-a_k, &v, &mut w);
            if k > 0 {
                mpvl_la::axpy(-beta[k - 1], &v_prev, &mut w);
            }
            // Full reorthogonalization for robustness.
            for b in &basis {
                let c = mpvl_la::dot(b, &w);
                mpvl_la::axpy(-c, b, &mut w);
            }
            let b_k = mpvl_la::norm2(&w);
            if k + 1 == n_max || b_k < 1e-14 * rho1 {
                break;
            }
            beta.push(b_k);
            v_prev = std::mem::take(&mut v);
            v = w.iter().map(|&x| x / b_k).collect();
            basis.push(v.clone());
        }
        Ok(SypvlModel {
            alpha,
            beta,
            rho1,
            shift: s0,
            s_power: sys.s_power,
            output_s_factor: sys.output_s_factor,
            identity_j: true,
        })
    }

    /// Achieved order `n`.
    pub fn order(&self) -> usize {
        self.alpha.len()
    }

    /// The expansion shift `s₀`.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// `true` — the classical SyPVL form is always built from `J = I`.
    pub fn guarantees_passivity(&self) -> bool {
        self.identity_j
    }

    /// Evaluates `Zₙ(s)` by the **continued-fraction** recurrence of the
    /// Lanczos–Padé connection:
    /// `Zₙ = ρ₁² / (1 + xα₁ − x²β₁² / (1 + xα₂ − …))`.
    pub fn eval(&self, s: Complex64) -> Complex64 {
        let sigma = s.powu(self.s_power);
        let x = sigma - self.shift;
        // Bottom-up evaluation of the continued fraction.
        let n = self.order();
        let mut tail = Complex64::ZERO;
        for k in (0..n).rev() {
            let denom = Complex64::ONE + x * self.alpha[k] - tail;
            // x^2 beta_k^2 / denom feeds the level above.
            tail = if k > 0 {
                x * x * (self.beta[k - 1] * self.beta[k - 1]) / denom
            } else {
                // Top level: Z = rho1^2 / denom.
                let z = Complex64::from_real(self.rho1 * self.rho1) / denom;
                let factor = s.powu(self.output_s_factor);
                return z * factor;
            };
        }
        Complex64::ZERO // order 0 unreachable (constructor rejects)
    }

    /// The tridiagonal data `(α, β, ρ₁)`.
    pub fn tridiagonal(&self) -> (&[f64], &[f64], f64) {
        (&self.alpha, &self.beta, self.rho1)
    }
}

/// A section of a Cauer-form (ladder) RC realization: alternating series
/// resistors and shunt capacitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CauerSection {
    /// Series resistor, ohms.
    SeriesR(f64),
    /// Shunt capacitor to ground, farads.
    ShuntC(f64),
}

/// Cauer-form ladder synthesis for a single-port RC model (§6: the
/// synthesized topology "generalizes either the first or the second Cauer
/// forms"; ref. \[8] details the p = 1 RC case).
///
/// Expands `Zₙ(s)` as the continued fraction about `s = ∞`
/// (Cauer's first form for RC impedances):
///
/// ```text
/// Z(s) = R₁ + 1/(sC₁ + 1/(R₂ + 1/(sC₂ + …)))
/// ```
///
/// by alternating polynomial divisions on `Z = N(u)/D(u)` (with the
/// frequency variable scaled by the largest time constant so coefficients
/// stay O(1)). For RC-realizable impedances every extracted element is
/// non-negative. The extraction loses digits with order and with the
/// spread of time constants (measured: ~5e-4 relative at order 6 over a
/// 100× τ-spread) — the classical weakness of Cauer extraction, and why
/// [`crate::foster_synthesis`] and the multiport unstamping are the exact
/// routes; this form exists for fidelity to ref. \[8].
///
/// # Errors
///
/// * [`SympvlError::RequiresDefiniteForm`] for non-`J = I` models.
/// * [`SympvlError::Synthesis`] for non-single-port / non-`σ = s` models,
///   nonzero shifts, or when the extraction degenerates numerically
///   (order too high for the continued-fraction route).
pub fn cauer_synthesis(
    model: &crate::ReducedModel,
) -> Result<(Circuit, Vec<CauerSection>), SympvlError> {
    if !model.guarantees_passivity() {
        return Err(SympvlError::RequiresDefiniteForm {
            operation: "Cauer synthesis",
        });
    }
    if model.num_ports() != 1 || model.s_power() != 1 || model.output_s_factor() != 0 {
        return Err(SympvlError::Synthesis {
            reason: "Cauer synthesis requires a single-port σ = s model".to_string(),
        });
    }
    if model.shift() != 0.0 {
        return Err(SympvlError::Synthesis {
            reason: "Cauer synthesis requires a zero expansion shift".to_string(),
        });
    }
    // Pole-residue data: Z(s) = sum_k r_k / (1 + s lambda_k).
    let tsym = {
        let t = model.t_matrix();
        let n = model.order();
        mpvl_la::Mat::from_fn(n, n, |i, j| 0.5 * (t[(i, j)] + t[(j, i)]))
    };
    let eig = mpvl_la::sym_eigen(&tsym).map_err(|e| SympvlError::Eigen {
        reason: e.to_string(),
    })?;
    let rho: Vec<f64> = (0..model.order())
        .map(|i| model.rho_matrix()[(i, 0)])
        .collect();
    let rho_sq = mpvl_la::dot(&rho, &rho);
    let mut terms: Vec<(f64, f64)> = Vec::new(); // (r_k, lambda_k >= 0)
    for (k, &lambda) in eig.values.iter().enumerate() {
        let q = mpvl_la::dot(eig.vectors.col(k), &rho);
        let r = q * q;
        if r > 1e-13 * rho_sq {
            terms.push((r, lambda.max(0.0)));
        }
    }
    if terms.is_empty() {
        return Err(SympvlError::Synthesis {
            reason: "nothing to synthesize".to_string(),
        });
    }
    // Scale the frequency variable by the largest time constant so the
    // polynomial coefficients stay O(1): u = s * t_scale.
    let t_scale = terms
        .iter()
        .map(|&(_, l)| l)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    // Z(u) = sum r_k / (1 + u * lt_k), lt_k = lambda_k / t_scale in (0, 1].
    // Build N(u), D(u): D = prod (1 + u lt_k), N = sum r_k prod_{j != k}.
    let mut d = vec![1.0f64];
    for &(_, l) in &terms {
        d = poly_mul(&d, &[1.0, l / t_scale]);
    }
    let mut n_poly = vec![0.0f64; 1];
    for (k, &(r, _)) in terms.iter().enumerate() {
        let mut part = vec![r];
        for (j, &(_, lj)) in terms.iter().enumerate() {
            if j != k {
                part = poly_mul(&part, &[1.0, lj / t_scale]);
            }
        }
        n_poly = poly_add(&n_poly, &part);
    }

    // Continued-fraction extraction about u = infinity.
    let mut sections = Vec::new();
    let mut num = n_poly;
    let mut den = d;
    for _stage in 0..2 * terms.len() + 2 {
        poly_trim(&mut num);
        poly_trim(&mut den);
        if num.is_empty() || den.is_empty() {
            break;
        }
        if num.len() > den.len() {
            return Err(SympvlError::Synthesis {
                reason: "improper rational function in Cauer extraction".to_string(),
            });
        }
        if den.len() == 1 {
            // Z = const / den0: terminal resistor.
            let r = num.first().copied().unwrap_or(0.0) / den[0];
            if r.abs() > 1e-30 {
                push_finite(&mut sections, CauerSection::SeriesR(r))?;
            }
            break;
        }
        // Series R = lim Z = lead(num)/lead(den) when degrees match.
        if num.len() == den.len() {
            let r = num[num.len() - 1] / den[den.len() - 1];
            push_finite(&mut sections, CauerSection::SeriesR(r))?;
            // num <- num - r * den (degree drops by at least 1).
            let scaled: Vec<f64> = den.iter().map(|&x| x * r).collect();
            num = poly_sub(&num, &scaled);
            poly_trim(&mut num);
            if num.is_empty() {
                break; // exact termination
            }
        }
        // Now deg(num) < deg(den): invert, extract shunt C from Y ~ uC.
        // Y = den/num; C_scaled = lead(den)/lead(num) (degree gap is 1 for
        // RC impedances).
        if den.len() != num.len() + 1 {
            return Err(SympvlError::Synthesis {
                reason: "unexpected degree gap in Cauer extraction".to_string(),
            });
        }
        let c_scaled = den[den.len() - 1] / num[num.len() - 1];
        // Real capacitance: Y(s) term c_scaled * u = c_scaled * t_scale * s.
        push_finite(&mut sections, CauerSection::ShuntC(c_scaled * t_scale))?;
        // den <- den - u * c_scaled * num  (degree drops).
        let mut u_c_num = vec![0.0];
        u_c_num.extend(num.iter().map(|&x| x * c_scaled));
        den = poly_sub(&den, &u_c_num);
        poly_trim(&mut den);
        // Continue with Z' = num/den (roles swap back next loop).
        std::mem::swap(&mut num, &mut den);
        std::mem::swap(&mut num, &mut den); // no-op clarity: Z = num/den
    }
    if sections.is_empty() {
        return Err(SympvlError::Synthesis {
            reason: "Cauer extraction produced no sections".to_string(),
        });
    }

    // Emit the ladder netlist: series R between consecutive internal
    // nodes, shunt C to ground.
    let mut ckt = Circuit::new();
    let mut prev = ckt.add_node();
    ckt.add_port("p0", prev, 0);
    for (k, sec) in sections.iter().enumerate() {
        match *sec {
            CauerSection::SeriesR(r) => {
                let next = ckt.add_node();
                ckt.add_resistor(&format!("R{k}"), prev, next, r);
                prev = next;
            }
            CauerSection::ShuntC(c) => {
                ckt.add_capacitor(&format!("C{k}"), prev, 0, c);
            }
        }
    }
    Ok((ckt, sections))
}

/// Guards against non-finite or absurd element values during extraction.
fn push_finite(sections: &mut Vec<CauerSection>, sec: CauerSection) -> Result<(), SympvlError> {
    let v = match sec {
        CauerSection::SeriesR(r) => r,
        CauerSection::ShuntC(c) => c,
    };
    if !v.is_finite() {
        return Err(SympvlError::Synthesis {
            reason: "Cauer extraction produced a non-finite element".to_string(),
        });
    }
    sections.push(sec);
    Ok(())
}

/// Polynomial helpers on ascending-coefficient vectors.
fn poly_mul(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

fn poly_add(a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| a.get(i).copied().unwrap_or(0.0) + b.get(i).copied().unwrap_or(0.0))
        .collect()
}

fn poly_sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| a.get(i).copied().unwrap_or(0.0) - b.get(i).copied().unwrap_or(0.0))
        .collect()
}

/// Trims trailing near-zero coefficients (relative to the largest).
fn poly_trim(a: &mut Vec<f64>) {
    let scale = a.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
    while let Some(&last) = a.last() {
        if last.abs() <= 1e-13 * scale.max(f64::MIN_POSITIVE) {
            a.pop();
        } else {
            break;
        }
    }
    if scale == 0.0 {
        a.clear();
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
    fn scalar_lanczos_matches_block_code() {
        // SyPVL and SyMPVL at p = 1 compute the same Padé approximant.
        let sys = MnaSystem::assemble(&random_rc(61, 35, 1)).unwrap();
        for n in [3usize, 6, 10] {
            let scalar = SypvlModel::new(&sys, n, Shift::Auto).unwrap();
            let block = sympvl(&sys, n, &SympvlOptions::default()).unwrap();
            for f in [1e7, 1e8, 1e9] {
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
                let zs = scalar.eval(s);
                let zb = block.eval(s).unwrap()[(0, 0)];
                assert!(
                    rel_err(zs, zb) < 1e-9,
                    "n={n} f={f}: scalar {zs} vs block {zb}"
                );
            }
        }
    }

    #[test]
    fn continued_fraction_is_accurate() {
        let sys = MnaSystem::assemble(&random_rc(62, 40, 1)).unwrap();
        let model = SypvlModel::new(&sys, 12, Shift::Auto).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 5e8);
        let z = model.eval(s);
        let zx = sys.dense_z(s).unwrap()[(0, 0)];
        assert!(rel_err(z, zx) < 1e-4, "{z} vs {zx}");
    }

    #[test]
    fn tridiagonal_is_positive_semidefinite() {
        // alpha/beta define a PSD Jacobi matrix for RC circuits (§5).
        let sys = MnaSystem::assemble(&random_rc(63, 25, 1)).unwrap();
        let model = SypvlModel::new(&sys, 8, Shift::Auto).unwrap();
        let (alpha, beta, _) = model.tridiagonal();
        let n = alpha.len();
        let t = mpvl_la::Mat::from_fn(n, n, |i, j| {
            if i == j {
                alpha[i]
            } else if i.abs_diff(j) == 1 {
                beta[i.min(j)]
            } else {
                0.0
            }
        });
        let eig = mpvl_la::sym_eigen(&t).unwrap();
        assert!(eig.values[0] >= -1e-12, "min eig {}", eig.values[0]);
    }

    #[test]
    fn rejects_multiport() {
        let sys = MnaSystem::assemble(&random_rc(64, 15, 2)).unwrap();
        assert!(SypvlModel::new(&sys, 4, Shift::Auto).is_err());
    }

    #[test]
    fn cauer_ladder_realizes_impedance() {
        let sys = MnaSystem::assemble(&random_rc(65, 25, 1)).unwrap();
        let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
        assert_eq!(model.shift(), 0.0, "grounded RC: no shift");
        let (ckt, sections) = cauer_synthesis(&model).unwrap();
        assert!(!sections.is_empty());
        let red = MnaSystem::assemble_lenient(&ckt).unwrap();
        for f in [1e7, 1e8, 1e9] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zc = red.dense_z(s).unwrap()[(0, 0)];
            let zm = model.eval(s).unwrap()[(0, 0)];
            // Cauer extraction carries the classical conditioning penalty
            // (see the function docs); plotting accuracy, not machine eps.
            assert!(rel_err(zc, zm) < 5e-3, "f={f}: {zc} vs {zm}");
        }
        // All elements non-negative (RC-realizability).
        for sec in &sections {
            match *sec {
                CauerSection::SeriesR(r) => assert!(r >= 0.0),
                CauerSection::ShuntC(c) => assert!(c >= 0.0),
            }
        }
    }

    #[test]
    fn exhausts_on_small_systems() {
        let sys = MnaSystem::assemble(&random_rc(66, 6, 1)).unwrap();
        let model = SypvlModel::new(&sys, 50, Shift::Auto).unwrap();
        assert!(model.order() <= 6);
    }
}
