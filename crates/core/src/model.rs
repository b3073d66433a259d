//! The reduced-order model produced by SyMPVL.

use crate::eval::{lu_eval_sigma_into, EvalConsts, EvalWorkspace};
use crate::SympvlError;
use mpvl_la::{general_eigenvalues, sym_eigen, Complex64, Lu, Mat};
use std::sync::{Arc, OnceLock};

/// A matrix-Padé reduced-order model
/// `Zₙ(s) = s^{osf} · ρₙᵀ (Δₙ⁻¹ + x TₙΔₙ⁻¹)⁻¹ ρₙ`,  `x = s^{sp} − s₀`
/// (paper eq. 19, plus the frequency shift of eq. 26 and the `σ = s²`
/// transformation of §2.2 where applicable).
///
/// The model is defined entirely by the small matrices `(Δₙ, Tₙ, ρₙ)`
/// produced by the Lanczos process; it can be evaluated at any complex
/// frequency, report its poles, compute its matched moments, and serve as
/// the input to reduced-circuit synthesis (§6).
#[derive(Debug, Clone)]
pub struct ReducedModel {
    pub(crate) t: Mat<f64>,
    pub(crate) delta: Mat<f64>,
    pub(crate) rho: Mat<f64>,
    /// Expansion shift `s₀` in the pencil (σ) domain.
    pub(crate) shift: f64,
    /// `σ = s^{s_power}` (inherited from the assembled system).
    pub(crate) s_power: u32,
    /// Leading `s^{output_s_factor}` of `Z(s)`.
    pub(crate) output_s_factor: u32,
    /// `true` when the model came from a `J = I` factorization (RC/RL/LC):
    /// `Δₙ = I` and the §5 stability/passivity guarantees apply.
    pub(crate) identity_j: bool,
    /// Dimension of the original system this model reduces.
    pub(crate) original_dim: usize,
    /// Starting-block columns surviving deflation.
    pub(crate) p1: usize,
    /// Number of deflations that occurred during the Lanczos run.
    pub(crate) deflations: usize,
    /// `true` when the Krylov space was exhausted (model is exact).
    pub(crate) exhausted: bool,
    /// Lazily cached evaluation constants (`ρ`, `Δρ` complexified) —
    /// computed once on first evaluation, shared with compiled plans.
    pub(crate) consts: OnceLock<Arc<EvalConsts>>,
    /// Lazily cached eigenvalues of `Tₙ` — seeded by plan compilation,
    /// reused by the pole routines so the eigensolver runs at most once.
    pub(crate) lambdas: OnceLock<Arc<Vec<Complex64>>>,
}

impl ReducedModel {
    /// Assembles a model directly from its defining matrices.
    ///
    /// Mostly useful for tests and for the baselines; the normal
    /// constructor is [`crate::sympvl`].
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        t: Mat<f64>,
        delta: Mat<f64>,
        rho: Mat<f64>,
        shift: f64,
        s_power: u32,
        output_s_factor: u32,
        identity_j: bool,
        original_dim: usize,
    ) -> Self {
        let n = t.nrows();
        assert_eq!(t.ncols(), n);
        assert_eq!(delta.nrows(), n);
        assert_eq!(rho.nrows(), n);
        let p1 = rho.ncols();
        ReducedModel {
            t,
            delta,
            rho,
            shift,
            s_power,
            output_s_factor,
            identity_j,
            original_dim,
            p1,
            deflations: 0,
            exhausted: false,
            consts: OnceLock::new(),
            lambdas: OnceLock::new(),
        }
    }

    /// Reduction order `n` (number of state variables).
    pub fn order(&self) -> usize {
        self.t.nrows()
    }

    /// Number of ports `p`.
    pub fn num_ports(&self) -> usize {
        self.rho.ncols()
    }

    /// Dimension of the original system.
    pub fn original_dim(&self) -> usize {
        self.original_dim
    }

    /// The expansion shift `s₀` (σ-domain).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The pencil substitution power: `σ = s^{s_power}` (2 for LC models).
    pub fn s_power(&self) -> u32 {
        self.s_power
    }

    /// The leading output power: `Z(s)` carries `s^{output_s_factor}`.
    pub fn output_s_factor(&self) -> u32 {
        self.output_s_factor
    }

    /// `true` when the model was produced with `J = I` (RC/RL/LC):
    /// stability and passivity are guaranteed by §5 of the paper.
    pub fn guarantees_passivity(&self) -> bool {
        self.identity_j
    }

    /// `true` when the Krylov space was exhausted, making the model exact.
    pub fn is_exact(&self) -> bool {
        self.exhausted
    }

    /// Number of deflations during construction.
    pub fn deflation_count(&self) -> usize {
        self.deflations
    }

    /// Starting-block columns that survived deflation (`p₁ ≤ p`).
    pub fn surviving_start_columns(&self) -> usize {
        self.p1
    }

    /// Number of matched matrix moments guaranteed by the Padé property:
    /// `q(n) ≥ 2⌊n/p⌋`, more if deflation occurred (§3.2).
    pub fn matched_moments(&self) -> usize {
        if self.num_ports() == 0 {
            0
        } else {
            2 * (self.order() / self.num_ports())
        }
    }

    /// The recurrence matrix `Tₙ`.
    pub fn t_matrix(&self) -> &Mat<f64> {
        &self.t
    }

    /// The block-diagonal `Δₙ`.
    pub fn delta_matrix(&self) -> &Mat<f64> {
        &self.delta
    }

    /// The starting-block coefficient matrix `ρₙ`.
    pub fn rho_matrix(&self) -> &Mat<f64> {
        &self.rho
    }

    /// The cached evaluation constants (`ρ` and `Δ·ρ` complexified),
    /// computed on first use and shared with compiled plans.
    pub(crate) fn consts(&self) -> &Arc<EvalConsts> {
        self.consts.get_or_init(|| Arc::new(EvalConsts::of(self)))
    }

    /// A reusable evaluation workspace sized for this model.
    pub fn eval_workspace(&self) -> EvalWorkspace {
        EvalWorkspace::for_model(self)
    }

    /// Evaluates the model in the pencil domain:
    /// `Ẑ(σ) = ρᵀ Δ (I + (σ − s₀)T)⁻¹ ρ` — no leading `s` factor.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Singular`] if `σ` hits a model pole exactly.
    pub fn eval_sigma(&self, sigma: Complex64) -> Result<Mat<Complex64>, SympvlError> {
        let mut ws = self.eval_workspace();
        let mut out = Mat::zeros(self.num_ports(), self.num_ports());
        self.eval_sigma_into(&mut ws, sigma, &mut out)?;
        Ok(out)
    }

    /// [`ReducedModel::eval_sigma`] with caller-owned scratch and output —
    /// the allocation-free form batch evaluators use (the `K` buffer, the
    /// multi-RHS solve buffer, and the output are all reused). Same
    /// floating-point operations in the same order as `eval_sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Singular`] if `σ` hits a model pole exactly.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `ports × ports`.
    pub fn eval_sigma_into(
        &self,
        ws: &mut EvalWorkspace,
        sigma: Complex64,
        out: &mut Mat<Complex64>,
    ) -> Result<(), SympvlError> {
        let p = self.num_ports();
        assert_eq!(out.nrows(), p, "output must be ports x ports");
        assert_eq!(out.ncols(), p, "output must be ports x ports");
        ws.ensure(self.order(), p);
        let x = sigma - self.shift;
        lu_eval_sigma_into(&self.t, self.consts(), x, ws, out)
    }

    /// Evaluates the full transfer function `Zₙ(s)` at a complex frequency,
    /// including the `σ = s^{sp}` substitution and the leading `s` factor.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Singular`] if `s` hits a pole exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
    /// use mpvl_la::Complex64;
    /// use sympvl::{sympvl, SympvlOptions};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let sys = MnaSystem::assemble(&rc_ladder(30, 50.0, 1e-12))?;
    /// let model = sympvl(&sys, 8, &SympvlOptions::default())?;
    /// let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
    /// let z = model.eval(s)?;
    /// let z_exact = sys.dense_z(s)?;
    /// assert!((z[(0, 0)] - z_exact[(0, 0)]).abs() / z_exact[(0, 0)].abs() < 1e-3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn eval(&self, s: Complex64) -> Result<Mat<Complex64>, SympvlError> {
        let sigma = s.powu(self.s_power);
        let z = self.eval_sigma(sigma)?;
        Ok(z.scale(s.powu(self.output_s_factor)))
    }

    /// The eigenvalues of `Tₙ`, computed at most once per model: the
    /// first call (or a compiled [`crate::EvalPlan`], which seeds this
    /// cache) runs the eigensolver; later calls return the cached values.
    /// Both producers use the exact same solver on the exact same matrix,
    /// so the cached bits never depend on who filled the cache first.
    pub(crate) fn t_eigenvalues(&self) -> Result<Arc<Vec<Complex64>>, SympvlError> {
        if let Some(cached) = self.lambdas.get() {
            return Ok(cached.clone());
        }
        let computed: Vec<Complex64> = if self.identity_j {
            sym_eigen(&self.t)
                .map_err(|e| SympvlError::Eigen {
                    reason: e.to_string(),
                })?
                .values
                .iter()
                .map(|&v| Complex64::from_real(v))
                .collect()
        } else {
            general_eigenvalues(&self.t).map_err(|e| SympvlError::Eigen {
                reason: e.to_string(),
            })?
        };
        Ok(self.lambdas.get_or_init(|| Arc::new(computed)).clone())
    }

    /// Seeds the eigenvalue cache from a compiled plan (no-op when the
    /// cache is already filled — both producers compute identical bits).
    pub(crate) fn seed_t_eigenvalues(&self, lambdas: &[Complex64]) {
        self.lambdas.get_or_init(|| Arc::new(lambdas.to_vec()));
    }

    /// Model poles in the pencil (σ) domain: `σ = s₀ − 1/λ` over the
    /// nonzero eigenvalues `λ` of `Tₙ`.
    ///
    /// The eigenvalues are cached: repeated pole queries — or a query
    /// after a compiled [`crate::EvalPlan`] already diagonalized `Tₙ` —
    /// do not re-run the eigensolver.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Eigen`] if the eigensolver fails.
    pub fn sigma_poles(&self) -> Result<Vec<Complex64>, SympvlError> {
        let lambdas = self.t_eigenvalues()?;
        Ok(lambdas
            .iter()
            .filter(|l| l.abs() > 1e-300)
            .map(|l| Complex64::from_real(self.shift) - l.recip())
            .collect())
    }

    /// Model poles in the Laplace (s) domain. For `σ = s²` models each
    /// σ-pole maps to the conjugate pair `±√σ`.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Eigen`] if the eigensolver fails.
    pub fn poles(&self) -> Result<Vec<Complex64>, SympvlError> {
        let sig = self.sigma_poles()?;
        Ok(match self.s_power {
            1 => sig,
            2 => sig
                .into_iter()
                .flat_map(|p| {
                    let r = p.sqrt();
                    [r, -r]
                })
                .collect(),
            _ => sig,
        })
    }

    /// The `k`-th matched moment of the model about the expansion point:
    /// `m̂ₖ = (−1)ᵏ ρᵀ Δ Tᵏ ρ`.
    pub fn moment(&self, k: usize) -> Mat<f64> {
        let mut w = self.rho.clone();
        for _ in 0..k {
            w = self.t.matmul(&w);
        }
        let m = self.delta.matmul(&self.rho).t_matmul(&w);
        if k % 2 == 1 {
            m.map(|v| -v)
        } else {
            m
        }
    }

    /// The time-domain state-space "stamp" of eq. (23):
    /// `Δ⁻¹ x + TΔ⁻¹ ẋ = ρ i(t)`, `v = ρᵀ x`, returned as the dense
    /// triple `(Ĝ, Ĉ, B̂) = (Δ⁻¹, TΔ⁻¹, ρ)`.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Singular`] if `Δ` is singular (cannot happen
    /// for models built by [`crate::sympvl`], which truncates to closed
    /// clusters).
    pub fn stamp(&self) -> Result<StampMatrices, SympvlError> {
        let dinv = Lu::new(self.delta.clone())
            .and_then(|lu| lu.inverse())
            .map_err(|_| SympvlError::Singular {
                context: "stamp: Delta inverse",
            })?;
        let tdinv = self.t.matmul(&dinv);
        // Symmetrize against roundoff: both stamps are symmetric in theory.
        let sym =
            |m: &Mat<f64>| Mat::from_fn(m.nrows(), m.ncols(), |i, j| 0.5 * (m[(i, j)] + m[(j, i)]));
        Ok((sym(&dinv), sym(&tdinv), self.rho.clone()))
    }
}

/// The time-domain stamp triple `(Ĝ, Ĉ, ρ)` of eq. (23).
pub type StampMatrices = (Mat<f64>, Mat<f64>, Mat<f64>);

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ReducedModel {
        // n = 2, p = 1: T = diag(1, 1/2), rho = [1; 1], Delta = I.
        ReducedModel::from_parts(
            Mat::from_diag(&[1.0, 0.5]),
            Mat::identity(2),
            Mat::from_rows(&[&[1.0], &[1.0]]),
            0.0,
            1,
            0,
            true,
            100,
        )
    }

    #[test]
    fn eval_matches_partial_fractions() {
        // Z(x) = 1/(1+x) + 1/(1+x/2).
        let m = toy_model();
        for x in [0.0, 0.7, -0.3, 5.0] {
            let z = m.eval_sigma(Complex64::from_real(x)).unwrap()[(0, 0)];
            let expect = 1.0 / (1.0 + x) + 1.0 / (1.0 + 0.5 * x);
            assert!((z.re - expect).abs() < 1e-13, "x={x}");
            assert!(z.im.abs() < 1e-15);
        }
    }

    #[test]
    fn poles_are_negative_reciprocal_eigenvalues() {
        let m = toy_model();
        let mut poles = m.poles().unwrap();
        poles.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        assert!((poles[0].re + 2.0).abs() < 1e-12);
        assert!((poles[1].re + 1.0).abs() < 1e-12);
    }

    #[test]
    fn moments_match_series_expansion() {
        // Z(x) = sum_k x^k (-1)^k (1 + 2^{-k}).
        let m = toy_model();
        for k in 0..5 {
            let mk = m.moment(k)[(0, 0)];
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            let expect = sign * (1.0 + 0.5f64.powi(k as i32));
            assert!((mk - expect).abs() < 1e-13, "k={k}: {mk} vs {expect}");
        }
    }

    #[test]
    fn s_squared_mapping_doubles_poles() {
        let m = ReducedModel::from_parts(
            Mat::from_diag(&[0.25]),
            Mat::identity(1),
            Mat::from_rows(&[&[1.0]]),
            0.0,
            2,
            1,
            true,
            10,
        );
        // sigma pole at -4 -> s poles at ±2j.
        let poles = m.poles().unwrap();
        assert_eq!(poles.len(), 2);
        assert!(poles.iter().any(|p| (p.im - 2.0).abs() < 1e-12));
        assert!(poles.iter().any(|p| (p.im + 2.0).abs() < 1e-12));
        assert!(poles.iter().all(|p| p.re.abs() < 1e-12));
    }

    #[test]
    fn shift_moves_expansion_point() {
        let m = ReducedModel::from_parts(
            Mat::from_diag(&[1.0]),
            Mat::identity(1),
            Mat::from_rows(&[&[1.0]]),
            3.0,
            1,
            0,
            true,
            10,
        );
        // Z(sigma) = 1/(1 + (sigma - 3)); pole at sigma = 2.
        let poles = m.sigma_poles().unwrap();
        assert!((poles[0].re - 2.0).abs() < 1e-12);
        let z = m.eval_sigma(Complex64::from_real(3.0)).unwrap()[(0, 0)];
        assert!((z.re - 1.0).abs() < 1e-13);
    }

    #[test]
    fn stamp_roundtrips_through_frequency_response() {
        // The stamp (Ghat, Chat, rho) must satisfy
        // rho^T (Ghat + x Chat)^{-1} rho == eval_sigma(x).
        let m = toy_model();
        let (gh, ch, b) = m.stamp().unwrap();
        let x = 0.9;
        let k = Mat::from_fn(2, 2, |i, j| gh[(i, j)] + x * ch[(i, j)]);
        let y = Lu::new(k).unwrap().solve_mat(&b).unwrap();
        let z = b.t_matmul(&y)[(0, 0)];
        let direct = m.eval_sigma(Complex64::from_real(x)).unwrap()[(0, 0)];
        assert!((z - direct.re).abs() < 1e-12);
    }

    #[test]
    fn output_s_factor_scales() {
        let mut m = toy_model();
        m.output_s_factor = 1;
        let s = Complex64::new(0.0, 2.0);
        let with = m.eval(s).unwrap()[(0, 0)];
        m.output_s_factor = 0;
        let without = m.eval(s).unwrap()[(0, 0)];
        assert!((with - s * without).abs() < 1e-13);
    }
}
