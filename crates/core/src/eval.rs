//! Compiled pole–residue evaluation of reduced models.
//!
//! A [`ReducedModel`] is evaluated as
//! `Ẑ(σ) = ρᵀΔ (I + xT)⁻¹ ρ`, `x = σ − s₀` — one dense complex LU of
//! order `q` per frequency point. For sweeps with thousands of points that
//! O(q³) per point dominates everything downstream of the reduction, even
//! though the model itself never changes.
//!
//! [`EvalPlan::compile`] pays a one-time eigendecomposition `T = S Λ S⁻¹`
//! and converts the model to **pole–residue form**:
//!
//! ```text
//! Ẑ(σ) = Σₖ Wₖ / (1 + x·λₖ),   Wₖ = outer(L[:,k], R[k,:]),
//! L = (Δρ)ᵀ S  (p×q),   R = S⁻¹ ρ  (q×p)
//! ```
//!
//! after which each point costs `q` complex reciprocals plus `q·p²`
//! multiply–adds and **zero allocations** ([`EvalPlan::eval_many_into`]).
//!
//! Correctness is defended in depth rather than assumed:
//!
//! * **symmetric path** — when the model has `J = I`, `T` is symmetric, so
//!   `S` is orthogonal ([`sym_eigen`]) and the conversion is as stable as
//!   the eigensolver;
//! * **general path** — otherwise [`general_eigen`] supplies a complex
//!   eigenvector basis; compilation *rejects* it (falls back) when the
//!   basis is ill-conditioned (defective `T`);
//! * **probe self-check** — the compiled form is compared against the
//!   exact LU path at deterministic probe points before it is ever used;
//!   any disagreement beyond [`EvalPlan::PROBE_TOL`] forces the fallback;
//! * **near-pole guard** — points where some `|1 + x·λₖ|` is tiny are
//!   evaluated through the exact LU path even on a compiled plan, so
//!   accuracy near poles and the `Singular` error at exact poles are
//!   preserved;
//! * **fallback** — a plan that could not compile still evaluates, through
//!   the same LU code path as [`ReducedModel::eval_sigma`], bit-identically.
//!
//! Every step is deterministic (fixed probe points, fixed iteration seeds,
//! fixed accumulation order), so a plan — and everything evaluated through
//! it — is a pure function of the model, never of thread count or timing.

use crate::model::ReducedModel;
use crate::SympvlError;
use mpvl_la::{general_eigen, sym_eigen, Complex64, Lu, Mat};
use std::sync::Arc;

/// Per-model constants of the evaluation map, shared between the model's
/// lazy cache and any compiled plans: the complexified `ρ` and `Δ·ρ`.
#[derive(Debug)]
pub(crate) struct EvalConsts {
    /// `ρ` lifted to complex entries.
    pub(crate) rho_c: Mat<Complex64>,
    /// `Δ·ρ` lifted to complex entries (the output-side factor `ρᵀΔ`).
    pub(crate) drho_c: Mat<Complex64>,
}

impl EvalConsts {
    pub(crate) fn of(model: &ReducedModel) -> Self {
        EvalConsts {
            rho_c: model.rho.map(Complex64::from_real),
            drho_c: model.delta.matmul(&model.rho).map(Complex64::from_real),
        }
    }
}

/// Reusable scratch for repeated model evaluations: the `K = I + xT`
/// buffer and multi-RHS solution of the LU path, and the reciprocal
/// denominators of the pole–residue path. One workspace serves any number
/// of sequential points with zero further allocation.
#[derive(Debug, Clone)]
pub struct EvalWorkspace {
    /// `K = I + xT` / its LU factors (recycled through [`Lu::into_matrix`]).
    k: Mat<Complex64>,
    /// Multi-RHS solve buffer `K⁻¹ρ` (order × ports).
    y: Mat<Complex64>,
    /// Reciprocal denominators `1/(1 + x·λₖ)` of the compiled path.
    denoms: Vec<Complex64>,
}

impl EvalWorkspace {
    /// A workspace sized for a model of the given order and port count.
    pub fn new(order: usize, ports: usize) -> Self {
        EvalWorkspace {
            k: Mat::zeros(order, order),
            y: Mat::zeros(order, ports),
            denoms: vec![Complex64::ZERO; order],
        }
    }

    /// A workspace sized for `model`.
    pub fn for_model(model: &ReducedModel) -> Self {
        Self::new(model.order(), model.num_ports())
    }

    /// Restores the invariant sizes (cheap no-op when already right; a
    /// failed factorization consumes `k`, and this repairs it).
    pub(crate) fn ensure(&mut self, order: usize, ports: usize) {
        if self.k.nrows() != order || self.k.ncols() != order {
            self.k = Mat::zeros(order, order);
        }
        if self.y.nrows() != order || self.y.ncols() != ports {
            self.y = Mat::zeros(order, ports);
        }
        if self.denoms.len() != order {
            self.denoms.resize(order, Complex64::ZERO);
        }
    }
}

/// The exact LU evaluation `out = (Δρ)ᵀ (I + xT)⁻¹ ρ`, allocation-free
/// and **bit-identical** to the historical [`ReducedModel::eval_sigma`]
/// (same `K` fill, the per-column copy + in-place solve that
/// `Lu::solve_mat` performs, and `t_matmul`'s accumulation order).
pub(crate) fn lu_eval_sigma_into(
    t: &Mat<f64>,
    consts: &EvalConsts,
    x: Complex64,
    ws: &mut EvalWorkspace,
    out: &mut Mat<Complex64>,
) -> Result<(), SympvlError> {
    let n = t.nrows();
    let p = consts.rho_c.ncols();
    let singular = || SympvlError::Singular {
        context: "reduced-model evaluation",
    };
    for j in 0..n {
        let col = ws.k.col_mut(j);
        for (i, slot) in col.iter_mut().enumerate() {
            let idm = if i == j { 1.0 } else { 0.0 };
            *slot = Complex64::from_real(idm) + x * t[(i, j)];
        }
    }
    // `Lu::new` consumes its matrix; lend the workspace buffer and take it
    // back afterwards. On the (exact-pole) error path the buffer is lost
    // and `ensure` re-creates it on the next call.
    let k = std::mem::replace(&mut ws.k, Mat::zeros(0, 0));
    let lu = Lu::new(k).map_err(|_| singular())?;
    for j in 0..p {
        let col = ws.y.col_mut(j);
        col.copy_from_slice(consts.rho_c.col(j));
        if lu.solve_in_place(col).is_err() {
            return Err(singular());
        }
    }
    ws.k = lu.into_matrix();
    for j in 0..p {
        for i in 0..p {
            let a = consts.drho_c.col(i);
            let b = ws.y.col(j);
            out[(i, j)] = a
                .iter()
                .zip(b)
                .fold(Complex64::ZERO, |acc, (&u, &v)| acc + u * v);
        }
    }
    Ok(())
}

/// The pole–residue data of a successfully diagonalized model.
#[derive(Debug, Clone)]
pub(crate) struct PoleResidue {
    /// Eigenvalues `λₖ` of `T`, in the eigensolver's deterministic order.
    pub(crate) lambdas: Vec<Complex64>,
    /// Rank-1 residues `Wₖ = outer(L[:,k], R[k,:])`, stored as `q`
    /// consecutive column-major `p×p` blocks: `residues[k·p² + j·p + i]`.
    pub(crate) residues: Vec<Complex64>,
}

/// Eigenvector-basis conditioning floor for the general path; a basis
/// with a smaller LU `rcond` estimate (defective or near-defective `T`) is
/// rejected outright.
const MIN_BASIS_RCOND: f64 = 1e-12;

/// Why [`diagonalize`] could not produce a pole–residue form.
#[derive(Debug, Clone)]
pub(crate) enum DiagonalizeError {
    /// The eigensolver did not converge.
    Eigen(String),
    /// The eigenvector basis is singular or below [`MIN_BASIS_RCOND`].
    Basis(String),
}

/// Diagonalizes `T` and assembles the pole–residue data
/// `Ẑ(x) = Σₖ Wₖ/(1 + x·λₖ)`, or explains why it cannot be done safely.
///
/// The one place a model is turned into `(λₖ, Wₖ)`: compiled plans,
/// [`crate::stabilize`] and [`crate::foster_synthesis`] all read it.
/// Seeds the model's eigenvalue cache as a side effect.
pub(crate) fn diagonalize(model: &ReducedModel) -> Result<PoleResidue, DiagonalizeError> {
    let n = model.order();
    let p = model.num_ports();
    if n == 0 {
        return Ok(PoleResidue {
            lambdas: vec![],
            residues: vec![],
        });
    }
    let (lambdas, l, r) = if model.identity_j {
        // Symmetric path: T = Q Λ Qᵀ with orthogonal Q — perfectly
        // conditioned, real arithmetic until the final lift.
        let e = sym_eigen(&model.t)
            .map_err(|e| DiagonalizeError::Eigen(format!("symmetric eigensolver: {e}")))?;
        let lambdas: Vec<Complex64> = e.values.iter().map(|&v| Complex64::from_real(v)).collect();
        let drho = model.delta.matmul(&model.rho);
        let l = drho.t_matmul(&e.vectors).map(Complex64::from_real);
        let r = e.vectors.t_matmul(&model.rho).map(Complex64::from_real);
        (lambdas, l, r)
    } else {
        // General path: complex eigenvector basis; reject defective /
        // near-defective T via the basis conditioning.
        let e = general_eigen(&model.t)
            .map_err(|e| DiagonalizeError::Eigen(format!("general eigensolver: {e}")))?;
        let basis = |reason: &str| DiagonalizeError::Basis(reason.to_string());
        let lu = Lu::new(e.vectors.clone())
            .map_err(|_| basis("eigenvector basis is exactly singular"))?;
        let rcond = lu.rcond_estimate();
        if rcond < MIN_BASIS_RCOND {
            return Err(DiagonalizeError::Basis(format!(
                "eigenvector basis too ill-conditioned (rcond {rcond:.3e})"
            )));
        }
        let consts = model.consts();
        let r = lu
            .solve_mat(&consts.rho_c)
            .map_err(|_| basis("eigenvector basis solve failed"))?;
        let l = consts.drho_c.t_matmul(&e.vectors);
        (e.values, l, r)
    };
    // Residues W_k[i,j] = L[i,k] · R[k,j], stored k-major column-major.
    let mut residues = Vec::with_capacity(n * p * p);
    for k in 0..n {
        for j in 0..p {
            for i in 0..p {
                residues.push(l[(i, k)] * r[(k, j)]);
            }
        }
    }
    // Seed the model's eigenvalue cache: these are exactly the values
    // `sigma_poles` computes, so pole queries reuse them bit-for-bit.
    model.seed_t_eigenvalues(&lambdas);
    Ok(PoleResidue { lambdas, residues })
}

/// A compiled evaluation plan for one [`ReducedModel`].
///
/// Build once with [`EvalPlan::compile`] (infallible — a model that cannot
/// be diagonalized safely yields a plan that evaluates through the exact
/// LU path), then evaluate any number of points through
/// [`EvalPlan::eval_into`] / [`EvalPlan::eval_many_into`] with a reused
/// [`EvalWorkspace`] and zero per-point allocation.
///
/// ```
/// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
/// use mpvl_la::{Complex64, Mat};
/// use sympvl::{sympvl, EvalPlan, SympvlOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_ladder(30, 50.0, 1e-12))?;
/// let model = sympvl(&sys, 8, &SympvlOptions::default())?;
/// let plan = EvalPlan::compile(&model);
/// assert!(plan.is_compiled()); // RC: symmetric path, always diagonalizable
/// let mut ws = plan.workspace();
/// let mut out = Mat::zeros(1, 1);
/// let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
/// plan.eval_into(&mut ws, s, &mut out)?;
/// let exact = model.eval(s)?;
/// assert!((out[(0, 0)] - exact[(0, 0)]).abs() / exact[(0, 0)].abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// The recurrence matrix, retained for the LU fallback / near-pole path.
    t: Mat<f64>,
    /// Shared per-model constants (`ρ`, `Δρ` complexified).
    consts: Arc<EvalConsts>,
    shift: f64,
    s_power: u32,
    output_s_factor: u32,
    order: usize,
    ports: usize,
    /// `Some` when diagonalization succeeded and passed the probe check.
    compiled: Option<PoleResidue>,
    /// Why the plan fell back to the LU path, when it did.
    fallback_reason: Option<String>,
}

impl EvalPlan {
    /// Maximum relative Frobenius disagreement between the compiled form
    /// and the exact LU path at the probe points; beyond this the plan
    /// falls back. Tight enough that a plan passing it stays within the
    /// 1e-10 band the property tests demand away from poles.
    pub const PROBE_TOL: f64 = 1e-11;

    /// Relative threshold under which `|1 + x·λₖ|` counts as "at a pole"
    /// and the point is routed through the exact LU path.
    const NEAR_POLE_REL: f64 = 1e-8;

    /// Compiles a plan for `model`.
    ///
    /// Never fails: when the eigendecomposition is unavailable, the
    /// eigenvector basis is too ill-conditioned, or the probe self-check
    /// disagrees with the exact path, the plan is returned in fallback
    /// mode ([`EvalPlan::is_compiled`] is `false`,
    /// [`EvalPlan::fallback_reason`] says why) and evaluates through the
    /// exact LU path instead.
    pub fn compile(model: &ReducedModel) -> EvalPlan {
        let mut plan = EvalPlan {
            t: model.t.clone(),
            consts: model.consts().clone(),
            shift: model.shift,
            s_power: model.s_power,
            output_s_factor: model.output_s_factor,
            order: model.order(),
            ports: model.num_ports(),
            compiled: None,
            fallback_reason: None,
        };
        match diagonalize(model) {
            Ok(pr) => match plan.probe_check(&pr) {
                Ok(()) => plan.compiled = Some(pr),
                Err(reason) => plan.fallback_reason = Some(reason),
            },
            Err(DiagonalizeError::Eigen(reason) | DiagonalizeError::Basis(reason)) => {
                plan.fallback_reason = Some(reason)
            }
        }
        plan
    }

    /// `true` when the pole–residue fast path is active.
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// Why compilation fell back to the LU path, if it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback_reason.as_deref()
    }

    /// Reduction order of the underlying model.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Port count of the underlying model.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The eigenvalues of `T` the compiled form is built on, when the
    /// plan compiled. Exactly the values the model's pole routines use.
    pub fn lambdas(&self) -> Option<&[Complex64]> {
        self.compiled.as_ref().map(|pr| pr.lambdas.as_slice())
    }

    /// A correctly sized workspace for this plan.
    pub fn workspace(&self) -> EvalWorkspace {
        EvalWorkspace::new(self.order, self.ports)
    }

    /// Evaluates `Ẑ(σ)` (pencil domain, no leading `s` factor) into `out`.
    ///
    /// # Errors
    ///
    /// [`SympvlError::Singular`] if `σ` hits a model pole exactly.
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
        assert_eq!(out.nrows(), self.ports, "output must be ports x ports");
        assert_eq!(out.ncols(), self.ports, "output must be ports x ports");
        ws.ensure(self.order, self.ports);
        let x = sigma - self.shift;
        if let Some(pr) = &self.compiled {
            if Self::residue_eval_into(pr, self.ports, x, ws, out) {
                return Ok(());
            }
            // Near a pole: fall through to the exact path, which either
            // resolves the point accurately or reports `Singular`.
        }
        lu_eval_sigma_into(&self.t, &self.consts, x, ws, out)
    }

    /// Evaluates the full `Zₙ(s)` (σ-substitution and leading `s` factor
    /// included) into `out`.
    ///
    /// # Errors
    ///
    /// [`SympvlError::Singular`] if `s` hits a model pole exactly.
    pub fn eval_into(
        &self,
        ws: &mut EvalWorkspace,
        s: Complex64,
        out: &mut Mat<Complex64>,
    ) -> Result<(), SympvlError> {
        let sigma = s.powu(self.s_power);
        self.eval_sigma_into(ws, sigma, out)?;
        let f = s.powu(self.output_s_factor);
        for v in out.as_mut_slice() {
            *v = *v * f;
        }
        Ok(())
    }

    /// Evaluates a slice of frequency points into preallocated outputs,
    /// one workspace, zero per-point allocation.
    ///
    /// # Errors
    ///
    /// Stops at the first point that hits a pole exactly and returns its
    /// [`SympvlError::Singular`]; earlier outputs are already filled.
    ///
    /// # Panics
    ///
    /// Panics if `outs` is shorter than `s_values` or an output has the
    /// wrong shape.
    pub fn eval_many_into(
        &self,
        ws: &mut EvalWorkspace,
        s_values: &[Complex64],
        outs: &mut [Mat<Complex64>],
    ) -> Result<(), SympvlError> {
        assert!(
            outs.len() >= s_values.len(),
            "need one output matrix per point"
        );
        for (s, out) in s_values.iter().zip(outs.iter_mut()) {
            self.eval_into(ws, *s, out)?;
        }
        Ok(())
    }

    /// The fast path: `out = Σₖ Wₖ/(1 + x·λₖ)`. Returns `false` without
    /// touching `out` when some denominator is too close to zero (the
    /// point is near a pole and must go through the exact path).
    fn residue_eval_into(
        pr: &PoleResidue,
        ports: usize,
        x: Complex64,
        ws: &mut EvalWorkspace,
        out: &mut Mat<Complex64>,
    ) -> bool {
        for (k, &lam) in pr.lambdas.iter().enumerate() {
            let xl = x * lam;
            let d = Complex64::ONE + xl;
            if d.abs() <= Self::NEAR_POLE_REL * (1.0 + xl.abs()) {
                return false;
            }
            ws.denoms[k] = d.recip();
        }
        for v in out.as_mut_slice() {
            *v = Complex64::ZERO;
        }
        let pp = ports * ports;
        for (k, &c) in ws.denoms.iter().take(pr.lambdas.len()).enumerate() {
            let block = &pr.residues[k * pp..(k + 1) * pp];
            for j in 0..ports {
                let col = out.col_mut(j);
                let rk = &block[j * ports..(j + 1) * ports];
                for (o, &w) in col.iter_mut().zip(rk) {
                    *o += c * w;
                }
            }
        }
        true
    }

    /// Compares the candidate compiled form against the exact LU path at
    /// deterministic probe points.
    fn probe_check(&self, pr: &PoleResidue) -> Result<(), String> {
        if pr.lambdas.is_empty() {
            return Ok(()); // order-0: both paths are identically zero
        }
        // Probe magnitude: the median |x| at which the denominators are
        // O(1)-perturbed, i.e. the scale where the poles actually live.
        let mut mags: Vec<f64> = pr
            .lambdas
            .iter()
            .map(|l| l.abs())
            .filter(|&m| m > 1e-300)
            .map(|m| 1.0 / m)
            .collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("finite eigenvalue magnitudes"));
        let m = if mags.is_empty() {
            1.0
        } else {
            mags[mags.len() / 2]
        };
        let probes = [
            Complex64::ZERO,                    // x = 0: Σ Wₖ must equal ρᵀΔρ
            Complex64::new(0.0, m),             // on the imaginary axis (AC-like)
            Complex64::new(0.37 * m, 0.61 * m), // off-axis
        ];
        let mut ws = EvalWorkspace::new(self.order, self.ports);
        let mut exact = Mat::zeros(self.ports, self.ports);
        let mut approx = Mat::zeros(self.ports, self.ports);
        let mut used = 0usize;
        for &x in &probes {
            ws.ensure(self.order, self.ports);
            if lu_eval_sigma_into(&self.t, &self.consts, x, &mut ws, &mut exact).is_err() {
                continue; // probe sits on a pole: not usable
            }
            if !Self::residue_eval_into(pr, self.ports, x, &mut ws, &mut approx) {
                continue; // near-pole guard would redirect this point anyway
            }
            used += 1;
            let mut diff = 0.0f64;
            let mut norm = 0.0f64;
            for (a, b) in approx.as_slice().iter().zip(exact.as_slice()) {
                diff += (*a - *b).norm_sqr();
                norm += b.norm_sqr();
            }
            let rel = diff.sqrt() / norm.sqrt().max(f64::MIN_POSITIVE);
            if !(rel <= Self::PROBE_TOL) {
                return Err(format!(
                    "probe self-check failed at x = {x:?}: relative error {rel:.3e}"
                ));
            }
        }
        if used == 0 {
            return Err("no usable probe points (all near poles)".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ReducedModel {
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
    fn compiled_plan_matches_partial_fractions() {
        let m = toy_model();
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled(), "{:?}", plan.fallback_reason());
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        for x in [0.0, 0.7, -0.3, 5.0] {
            plan.eval_sigma_into(&mut ws, Complex64::from_real(x), &mut out)
                .unwrap();
            let expect = 1.0 / (1.0 + x) + 1.0 / (1.0 + 0.5 * x);
            assert!((out[(0, 0)].re - expect).abs() < 1e-12, "x={x}");
            assert!(out[(0, 0)].im.abs() < 1e-14);
        }
    }

    #[test]
    fn exact_pole_still_reports_singular() {
        let m = toy_model();
        let plan = EvalPlan::compile(&m);
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        // x = -1 makes 1 + x*1 = 0: an exact pole.
        let r = plan.eval_sigma_into(&mut ws, Complex64::from_real(-1.0), &mut out);
        assert!(matches!(r, Err(SympvlError::Singular { .. })));
        // The workspace recovers afterwards.
        plan.eval_sigma_into(&mut ws, Complex64::from_real(1.0), &mut out)
            .unwrap();
    }

    #[test]
    fn defective_t_falls_back() {
        // Jordan block: not diagonalizable. identity_j = false forces the
        // general path, whose conditioning check must reject the basis.
        let m = ReducedModel::from_parts(
            Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Mat::identity(2),
            Mat::from_rows(&[&[1.0], &[0.5]]),
            0.0,
            1,
            0,
            false,
            10,
        );
        let plan = EvalPlan::compile(&m);
        assert!(!plan.is_compiled());
        assert!(plan.fallback_reason().is_some());
        // And the fallback still evaluates, bit-identical to the model.
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        let sigma = Complex64::new(0.3, 1.1);
        plan.eval_sigma_into(&mut ws, sigma, &mut out).unwrap();
        let direct = m.eval_sigma(sigma).unwrap();
        assert_eq!(out[(0, 0)].re.to_bits(), direct[(0, 0)].re.to_bits());
        assert_eq!(out[(0, 0)].im.to_bits(), direct[(0, 0)].im.to_bits());
    }

    #[test]
    fn dim_zero_plan_evaluates_to_empty() {
        let m = ReducedModel::from_parts(
            Mat::zeros(0, 0),
            Mat::zeros(0, 0),
            Mat::zeros(0, 2),
            0.0,
            1,
            0,
            true,
            0,
        );
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled());
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(2, 2);
        plan.eval_sigma_into(&mut ws, Complex64::ONE, &mut out)
            .unwrap();
        assert!(out.as_slice().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn order_one_plan() {
        let m = ReducedModel::from_parts(
            Mat::from_diag(&[2.0]),
            Mat::identity(1),
            Mat::from_rows(&[&[3.0]]),
            0.5,
            1,
            0,
            true,
            5,
        );
        let plan = EvalPlan::compile(&m);
        assert!(plan.is_compiled());
        let mut ws = plan.workspace();
        let mut out = Mat::zeros(1, 1);
        let sigma = Complex64::from_real(1.0); // x = 0.5
        plan.eval_sigma_into(&mut ws, sigma, &mut out).unwrap();
        // Z = 9 / (1 + 0.5*2) = 4.5
        assert!((out[(0, 0)].re - 4.5).abs() < 1e-12);
    }

    #[test]
    fn eval_many_into_fills_all_points() {
        let m = toy_model();
        let plan = EvalPlan::compile(&m);
        let mut ws = plan.workspace();
        let s_values: Vec<Complex64> = (1..5)
            .map(|k| Complex64::new(0.0, k as f64 * 0.3))
            .collect();
        let mut outs: Vec<Mat<Complex64>> = s_values.iter().map(|_| Mat::zeros(1, 1)).collect();
        plan.eval_many_into(&mut ws, &s_values, &mut outs).unwrap();
        for (s, out) in s_values.iter().zip(&outs) {
            let direct = m.eval(*s).unwrap();
            let rel = (out[(0, 0)] - direct[(0, 0)]).abs() / direct[(0, 0)].abs();
            assert!(rel < 1e-12, "rel {rel}");
        }
    }
}
