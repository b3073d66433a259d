//! Multi-point rational-Krylov reduction (the FlexRC direction).
//!
//! Single-point SyMPVL is a matrix-Padé approximant about one expansion
//! point `s₀`: exact there, decaying in accuracy with distance. Wide
//! bands therefore cost order — the adaptive loop escalates `n` until
//! the band agrees. Multi-point reduction spends the same total order
//! differently: run the block-Lanczos process at several expansion
//! points `σ₀…σ_k` spread over the band, stack the per-point Krylov
//! bases `Xᵢ = Mᵢ⁻ᵀVᵢ` (columns spanning `{Kᵢ⁻¹B, (Kᵢ⁻¹C)Kᵢ⁻¹B, …}`
//! with `Kᵢ = G + σᵢC`), orthonormalize the union, and congruence-
//! project `(G, C, B)` onto it. The merged model interpolates `Z(s)` at
//! *every* expansion point, and — because the projection is a
//! congruence with real basis vectors — inherits the symmetry that
//! makes the paper's §5 passivity argument go through: the projected
//! pencil is refactored as `K̂ = M̂ĴM̂ᵀ` (eigendecomposition, since the
//! projected matrices are dense and tiny) and repackaged in the same
//! `(Δ, T, ρ)` form as single-point SyMPVL, so [`crate::certify`] and
//! every downstream consumer (poles, synthesis, stamping, the compiled
//! evaluator) work unchanged.
//!
//! Point placement is adaptive: seed the band endpoints, build the
//! per-point models, and bisect (geometrically) toward the frequency
//! where adjacent per-point models disagree most — the same
//! consecutive-model disagreement signal the single-point adaptive loop
//! uses, localized in frequency. A per-point moment budget
//! (`total_order` split evenly, block-aligned to the port count) keeps
//! the merged order bounded no matter how many points are placed.
//!
//! The driver is deliberately sequential over points: together with the
//! thread-invariant kernels underneath, the result is bit-identical at
//! any `MPVL_THREADS`, which the session engine's determinism contract
//! requires.

use crate::adaptive::{band_probes, check_probe_freqs, difference_at};
use crate::reduce::factor_target;
use crate::{ReducedModel, Shift, SympvlError, SympvlOptions, SympvlRun};
use mpvl_circuit::MnaSystem;
use mpvl_la::{orthonormalize_columns, sym_eigen, Mat};

/// How expansion points are chosen over the band.
#[derive(Debug, Clone, PartialEq)]
pub enum PointPlacement {
    /// Use exactly these expansion frequencies (Hz); sorted and
    /// deduplicated before use.
    Explicit(Vec<f64>),
    /// Seed the band endpoints, then insert up to `max_points − 2`
    /// further points by bisecting toward the worst inter-point
    /// disagreement.
    Adaptive {
        /// Hard cap on the number of expansion points (≥ 2).
        max_points: usize,
    },
}

/// Options for [`reduce_multipoint`].
///
/// Construct via [`MultiPointOptions::for_band`] and chain the `with_*`
/// builders; `#[non_exhaustive]` so options can grow without breaking
/// callers. Impossible values are rejected at build time.
///
/// ```
/// use sympvl::MultiPointOptions;
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// let opts = MultiPointOptions::for_band(1e7, 2e9)?
///     .with_total_order(16)?
///     .with_max_points(3)?;
/// assert!(MultiPointOptions::for_band(1e9, 1e9).is_err()); // zero band
/// # let _ = opts;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MultiPointOptions {
    /// Low band edge (Hz).
    pub f_lo: f64,
    /// High band edge (Hz).
    pub f_hi: f64,
    /// Budget on the merged reduced order: the sum of per-point Krylov
    /// orders never exceeds it (the merged order can be lower still
    /// when the stacked bases overlap).
    pub total_order: usize,
    /// Expansion-point policy.
    pub placement: PointPlacement,
    /// Adaptive-placement stop tolerance on the worst inter-point
    /// disagreement.
    pub tol: f64,
    /// Frequencies (Hz) at which inter-point disagreement is measured.
    pub probe_freqs_hz: Vec<f64>,
    /// Column-drop tolerance for orthonormalizing the stacked bases.
    pub basis_tol: f64,
    /// Per-point reduction options. The `shift` field is ignored —
    /// each point supplies its own [`Shift::Value`]; everything else
    /// (Lanczos tuning, `auto_rtol`) applies to every point.
    pub sympvl: SympvlOptions,
}

impl MultiPointOptions {
    /// Sensible defaults for a band `f_lo..f_hi`: adaptive placement
    /// capped at 4 points, total order 16, 17 log-spaced probes.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `0 < f_lo < f_hi` with
    /// both endpoints finite.
    pub fn for_band(f_lo: f64, f_hi: f64) -> Result<Self, SympvlError> {
        let probe_freqs_hz = band_probes(f_lo, f_hi, 17)?;
        Ok(MultiPointOptions {
            f_lo,
            f_hi,
            total_order: 16,
            placement: PointPlacement::Adaptive { max_points: 4 },
            tol: 1e-4,
            probe_freqs_hz,
            basis_tol: 1e-10,
            sympvl: SympvlOptions::default(),
        })
    }

    /// Sets the total-order budget.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for order zero.
    pub fn with_total_order(mut self, total_order: usize) -> Result<Self, SympvlError> {
        if total_order == 0 {
            return Err(SympvlError::InvalidOptions {
                reason: "total order must be at least 1".into(),
            });
        }
        self.total_order = total_order;
        Ok(self)
    }

    /// Uses exactly these expansion frequencies (Hz).
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] when the list is empty or any
    /// frequency is non-finite or not positive.
    pub fn with_points(mut self, freqs_hz: Vec<f64>) -> Result<Self, SympvlError> {
        if freqs_hz.is_empty() {
            return Err(SympvlError::InvalidOptions {
                reason: "need at least one expansion frequency".into(),
            });
        }
        if let Some(&bad) = freqs_hz.iter().find(|f| !(f.is_finite() && **f > 0.0)) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("expansion frequencies must be finite and positive, got {bad}"),
            });
        }
        self.placement = PointPlacement::Explicit(freqs_hz);
        Ok(self)
    }

    /// Switches to adaptive placement with the given point cap.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a cap below 2 (adaptive
    /// placement always seeds both band endpoints).
    pub fn with_max_points(mut self, max_points: usize) -> Result<Self, SympvlError> {
        if max_points < 2 {
            return Err(SympvlError::InvalidOptions {
                reason: format!("adaptive placement needs at least 2 points, got {max_points}"),
            });
        }
        self.placement = PointPlacement::Adaptive { max_points };
        Ok(self)
    }

    /// Sets the adaptive-placement stop tolerance.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `tol` is finite and
    /// positive.
    pub fn with_tol(mut self, tol: f64) -> Result<Self, SympvlError> {
        if !(tol.is_finite() && tol > 0.0) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("tolerance must be finite and positive, got {tol}"),
            });
        }
        self.tol = tol;
        Ok(self)
    }

    /// Replaces the disagreement probe frequencies (Hz).
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] when the list is empty or any
    /// frequency is non-finite or not positive.
    pub fn with_probe_freqs(mut self, probe_freqs_hz: Vec<f64>) -> Result<Self, SympvlError> {
        check_probe_freqs(&probe_freqs_hz)?;
        self.probe_freqs_hz = probe_freqs_hz;
        Ok(self)
    }

    /// Sets the basis orthonormalization drop tolerance.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `basis_tol` is finite,
    /// positive, and below 1.
    pub fn with_basis_tol(mut self, basis_tol: f64) -> Result<Self, SympvlError> {
        if !(basis_tol.is_finite() && basis_tol > 0.0 && basis_tol < 1.0) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("basis tolerance must be finite in (0, 1), got {basis_tol}"),
            });
        }
        self.basis_tol = basis_tol;
        Ok(self)
    }

    /// Sets the per-point reduction options (the `shift` field is
    /// ignored; each point supplies its own).
    pub fn with_sympvl(mut self, sympvl: SympvlOptions) -> Self {
        self.sympvl = sympvl;
        self
    }
}

/// Outcome of a multi-point reduction.
#[derive(Debug, Clone)]
pub struct MultiPointOutcome {
    /// The merged, congruence-projected model.
    pub model: ReducedModel,
    /// Expansion frequencies actually used (Hz, ascending).
    pub point_freqs_hz: Vec<f64>,
    /// The σ-domain shifts corresponding to `point_freqs_hz`.
    pub shifts: Vec<f64>,
    /// Krylov order spent at each point.
    pub per_point_order: usize,
    /// Worst inter-point disagreement over the probes at the final
    /// point set (`f64::INFINITY` when only one point was used — a
    /// single point yields no disagreement signal).
    pub estimated_error: f64,
}

/// Source of per-point [`SympvlRun`]s — the seam through which the
/// session engine interposes its factor cache and run pool. The default
/// [`FreshRuns`] builds an uncached run per checkout.
///
/// Contract: `checkout` must return a run equivalent to
/// `SympvlRun::new(sys, opts)` (a pooled run resumed from an earlier
/// checkout is fine — [`SympvlRun::model_and_basis_at`] is bit-identical
/// either way); `checkin` receives the run back for pooling.
pub trait RunProvider {
    /// Produces a run for `opts` (whose `shift` is the point's
    /// [`Shift::Value`]).
    ///
    /// # Errors
    ///
    /// Propagates factorization and validation failures.
    fn checkout(&mut self, sys: &MnaSystem, opts: &SympvlOptions)
        -> Result<SympvlRun, SympvlError>;

    /// Returns a checked-out run (default: drop it).
    fn checkin(&mut self, opts: &SympvlOptions, run: SympvlRun) {
        let _ = (opts, run);
    }
}

/// The uncached [`RunProvider`]: every checkout factors from scratch.
#[derive(Debug, Default)]
pub struct FreshRuns;

impl RunProvider for FreshRuns {
    fn checkout(
        &mut self,
        sys: &MnaSystem,
        opts: &SympvlOptions,
    ) -> Result<SympvlRun, SympvlError> {
        SympvlRun::new_via(sys, opts, &mut factor_target)
    }
}

/// Runs a multi-point reduction with fresh (uncached) per-point runs.
///
/// # Errors
///
/// Propagates factorization, Lanczos, and evaluation failures;
/// [`SympvlError::InvalidOptions`] when the total-order budget cannot
/// fund even one block moment per seed point.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
/// use sympvl::{reduce_multipoint, MultiPointOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_ladder(60, 80.0, 1e-12))?;
/// let opts = MultiPointOptions::for_band(1e7, 1e10)?.with_total_order(12)?;
/// let out = reduce_multipoint(&sys, &opts)?;
/// assert!(out.point_freqs_hz.len() >= 2);
/// assert!(out.model.order() <= 12);
/// assert!(out.model.guarantees_passivity()); // RC: J = I survives the merge
/// # Ok(())
/// # }
/// ```
pub fn reduce_multipoint(
    sys: &MnaSystem,
    opts: &MultiPointOptions,
) -> Result<MultiPointOutcome, SympvlError> {
    reduce_multipoint_with(sys, opts, &mut FreshRuns)
}

/// [`reduce_multipoint`] against a caller-supplied [`RunProvider`] —
/// the session engine passes an adapter over its factor cache and run
/// pool, so repeated multi-point requests resume warm per-point state.
///
/// The driver is sequential over points; with the thread-invariant
/// kernels below it, the outcome is bit-identical at any worker count.
///
/// # Errors
///
/// As [`reduce_multipoint`].
pub fn reduce_multipoint_with(
    sys: &MnaSystem,
    opts: &MultiPointOptions,
    provider: &mut dyn RunProvider,
) -> Result<MultiPointOutcome, SympvlError> {
    assert!(!opts.probe_freqs_hz.is_empty(), "need probe frequencies");
    let _span = mpvl_obs::span("multipoint", "reduce_multipoint");
    let p = sys.num_ports().max(1);

    let mut points: Vec<f64> = match &opts.placement {
        PointPlacement::Explicit(freqs) => {
            let mut f = freqs.clone();
            f.sort_by(f64::total_cmp);
            f.dedup();
            f
        }
        PointPlacement::Adaptive { .. } => vec![opts.f_lo, opts.f_hi],
    };
    let max_points = match opts.placement {
        PointPlacement::Adaptive { max_points } => max_points,
        PointPlacement::Explicit(_) => points.len(),
    };
    if points.len() * p > opts.total_order {
        return Err(SympvlError::InvalidOptions {
            reason: format!(
                "total order {} cannot fund one block moment ({} ports) at each of {} points",
                opts.total_order,
                p,
                points.len()
            ),
        });
    }

    // Build per-point models and bases at the block-aligned even split
    // of the budget. Rebuilt whenever the point count changes (the
    // split shrinks); the expensive parts — factorizations — are
    // memoized by the provider.
    let build = |points: &[f64],
                 provider: &mut dyn RunProvider|
     -> Result<(Vec<ReducedModel>, Vec<Mat<f64>>, Vec<f64>, usize), SympvlError> {
        let per = ((opts.total_order / points.len()) / p * p).max(p);
        let mut models = Vec::with_capacity(points.len());
        let mut bases = Vec::with_capacity(points.len());
        let mut shifts = Vec::with_capacity(points.len());
        for &f in points {
            let sigma = expansion_shift(f, sys.s_power);
            let mut point_opts = opts.sympvl.clone();
            point_opts.shift = Shift::Value(sigma);
            let mut run = provider.checkout(sys, &point_opts)?;
            let built = run.model_and_basis_at(sys, per);
            provider.checkin(&point_opts, run);
            let (model, basis) = built?;
            models.push(model);
            bases.push(basis);
            shifts.push(sigma);
        }
        Ok((models, bases, shifts, per))
    };

    let (mut models, mut bases, mut shifts, mut per) = build(&points, provider)?;
    let mut estimated_error = worst_disagreement(&models, &opts.probe_freqs_hz)?;

    if matches!(opts.placement, PointPlacement::Adaptive { .. }) {
        loop {
            let (worst, worst_f) = estimated_error;
            if worst <= opts.tol {
                break;
            }
            if points.len() >= max_points || (points.len() + 1) * p > opts.total_order {
                mpvl_obs::counter_add("multipoint", "budget_stops", 1);
                break;
            }
            // Bisect (geometrically) the point interval bracketing the
            // worst-disagreement probe.
            let hi = points
                .partition_point(|&f| f <= worst_f)
                .clamp(1, points.len() - 1);
            let mid = (points[hi - 1] * points[hi]).sqrt();
            if mid <= points[hi - 1] || mid >= points[hi] {
                // The interval is one ulp wide — nothing left to place.
                break;
            }
            points.insert(hi, mid);
            if mpvl_obs::enabled() {
                mpvl_obs::counter_add("multipoint", "placement_steps", 1);
                mpvl_obs::event_at(
                    "multipoint",
                    "place_point",
                    points.len() as u64,
                    vec![
                        ("freq_hz", mpvl_obs::Value::F64(mid)),
                        ("band_error", mpvl_obs::Value::F64(worst)),
                    ],
                );
            }
            (models, bases, shifts, per) = build(&points, provider)?;
            estimated_error = worst_disagreement(&models, &opts.probe_freqs_hz)?;
        }
    }

    mpvl_obs::counter_add("multipoint", "points", points.len() as u64);
    let stacked = bases
        .iter()
        .skip(1)
        .fold(bases[0].clone(), |acc, b| acc.hcat(b));
    // Reference the merged pencil at the lowest shift: it is the most
    // conservative positive σ, and for RC systems keeps K̂ = Ĝ + σĈ
    // definite so the merged J stays the identity.
    let model = assemble_merged(sys, &stacked, opts.basis_tol, shifts[0])?;
    Ok(MultiPointOutcome {
        model,
        point_freqs_hz: points,
        shifts,
        per_point_order: per,
        estimated_error: estimated_error.0,
    })
}

/// The σ-domain expansion shift for a band frequency: `(2πf)^s_power`,
/// real and positive — on the σ-axis magnitude of the point `s = j2πf`,
/// which regularizes `G + σC` exactly like the paper's automatic shift.
pub fn expansion_shift(freq_hz: f64, s_power: u32) -> f64 {
    (2.0 * std::f64::consts::PI * freq_hz).powi(s_power as i32)
}

/// Worst disagreement between adjacent per-point models over the
/// probes, with the probe frequency where it occurs. Single point: no
/// signal, reported as `(∞, f_lo-side probe)` so adaptive placement
/// knows nothing yet.
fn worst_disagreement(models: &[ReducedModel], probes: &[f64]) -> Result<(f64, f64), SympvlError> {
    if models.len() < 2 {
        return Ok((f64::INFINITY, probes[0]));
    }
    let mut worst = 0.0f64;
    let mut worst_f = probes[0];
    for &f in probes {
        for pair in models.windows(2) {
            if let Some(d) = difference_at(&pair[0], &pair[1], f)? {
                if d > worst {
                    worst = d;
                    worst_f = f;
                }
            }
        }
    }
    Ok((worst, worst_f))
}

/// Orthonormalizes the stacked per-point bases and congruence-projects
/// the system onto them, refactoring the projected pencil at `s_ref`
/// into SyMPVL's `(Δ, T, ρ)` form:
///
/// `K̂ = Ĝ + s_ref·Ĉ = UΛUᵀ = M̂ĴM̂ᵀ` with `M̂ = U|Λ|^{1/2}`,
/// `Ĵ = sign(Λ)`; then `T̂ = ĴM̂⁻¹ĈM̂⁻ᵀ`, `ρ̂ = ĴM̂⁻¹B̂`, `Δ̂ = Ĵ`,
/// which reproduces `Zₙ(σ) = ρ̂ᵀΔ̂(I + (σ−s_ref)T̂)⁻¹ρ̂ =
/// B̂ᵀ(Ĝ + σĈ)⁻¹B̂` identically.
pub(crate) fn assemble_merged(
    sys: &MnaSystem,
    stacked: &Mat<f64>,
    basis_tol: f64,
    s_ref: f64,
) -> Result<ReducedModel, SympvlError> {
    let q = orthonormalize_columns(stacked, basis_tol);
    let m = q.ncols();
    if m == 0 {
        return Err(SympvlError::BadOrder { order: 0 });
    }
    let ghat = q.t_matmul(&sys.g.matmul(&q));
    let chat = q.t_matmul(&sys.c.matmul(&q));
    let bhat = q.t_matmul(&sys.b);
    // Projected pencil at the reference shift; symmetrized explicitly so
    // sparse-matvec roundoff cannot feed the eigensolver an asymmetric
    // matrix.
    let khat = Mat::from_fn(m, m, |i, j| {
        let kij = ghat[(i, j)] + s_ref * chat[(i, j)];
        let kji = ghat[(j, i)] + s_ref * chat[(j, i)];
        0.5 * (kij + kji)
    });
    let eig = sym_eigen(&khat).map_err(|_| SympvlError::Factorization {
        reason: "eigendecomposition of the merged projected pencil did not converge".to_string(),
    })?;
    let max_abs = eig.values.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    if !eig
        .values
        .iter()
        .all(|&v| v.abs() > 1e-14 * max_abs && v.is_finite())
    {
        return Err(SympvlError::Factorization {
            reason: format!(
                "merged projected pencil numerically singular at reference shift {s_ref:.3e}"
            ),
        });
    }
    let j_sign: Vec<f64> = eig.values.iter().map(|&v| v.signum()).collect();
    let d: Vec<f64> = eig.values.iter().map(|&v| v.abs().sqrt()).collect();
    // Â = M̂⁻¹ĈM̂⁻ᵀ = D⁻¹(UᵀĈU)D⁻¹, then T̂ = ĴÂ.
    let ut_c_u = eig.vectors.t_matmul(&chat.matmul(&eig.vectors));
    let t = Mat::from_fn(m, m, |i, j| j_sign[i] * ut_c_u[(i, j)] / (d[i] * d[j]));
    let delta = Mat::from_fn(m, m, |i, j| if i == j { j_sign[i] } else { 0.0 });
    // ρ̂ = ĴD⁻¹UᵀB̂.
    let ub = eig.vectors.t_matmul(&bhat);
    let rho = Mat::from_fn(m, ub.ncols(), |i, c| j_sign[i] * ub[(i, c)] / d[i]);
    let identity_j = j_sign.iter().all(|&s| s > 0.0);
    Ok(ReducedModel::from_parts(
        t,
        delta,
        rho,
        s_ref,
        sys.s_power,
        sys.output_s_factor,
        identity_j,
        sys.dim(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{certify, reduce_adaptive, sympvl, AdaptiveOptions, Certificate};
    use mpvl_circuit::generators::{interconnect, rc_ladder, InterconnectParams};
    use mpvl_la::Complex64;
    use mpvl_sim::log_space;

    fn worst_band_error(sys: &MnaSystem, model: &ReducedModel, freqs: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for &f in freqs {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zx = sys.dense_z(s).unwrap();
            let z = model.eval(s).unwrap();
            worst = worst.max((&z - &zx).max_abs() / zx.max_abs().max(1e-300));
        }
        worst
    }

    #[test]
    fn merged_model_interpolates_at_every_expansion_point() {
        let sys = MnaSystem::assemble(&rc_ladder(80, 60.0, 1e-12)).unwrap();
        let opts = MultiPointOptions::for_band(1e7, 1e10)
            .unwrap()
            .with_total_order(12)
            .unwrap()
            .with_points(vec![1e7, 3e8, 1e10])
            .unwrap();
        let out = reduce_multipoint(&sys, &opts).unwrap();
        assert_eq!(out.point_freqs_hz, vec![1e7, 3e8, 1e10]);
        assert_eq!(out.shifts.len(), 3);
        // Rational-Krylov interpolation: the congruence projection
        // contains Kᵢ⁻¹B for every point, so Z is matched at each
        // expansion frequency up to the conditioning of the projected
        // pencil (exact in exact arithmetic).
        for &f in &out.point_freqs_hz {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z = out.model.eval(s).unwrap();
            let zx = sys.dense_z(s).unwrap();
            let err = (&z - &zx).max_abs() / zx.max_abs();
            assert!(err < 1e-4, "f={f}: interpolation error {err}");
        }
    }

    #[test]
    fn rc_merge_preserves_passivity_guarantee() {
        let sys = MnaSystem::assemble(&rc_ladder(60, 100.0, 2e-12)).unwrap();
        let opts = MultiPointOptions::for_band(1e6, 1e10)
            .unwrap()
            .with_total_order(10)
            .unwrap()
            .with_points(vec![1e6, 1e10])
            .unwrap();
        let out = reduce_multipoint(&sys, &opts).unwrap();
        assert!(out.model.guarantees_passivity(), "RC merge must keep J = I");
        match certify(&out.model, 1e-10).unwrap() {
            Certificate::ProvablyPassive { .. } => {}
            other => panic!("expected a passivity certificate, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_points_give_single_point_bits() {
        // A repeated expansion point adds no new directions: the explicit
        // list is deduplicated, so the merged model is bit-identical.
        let sys = MnaSystem::assemble(&rc_ladder(40, 60.0, 1e-12)).unwrap();
        let opts = MultiPointOptions::for_band(1e7, 1e10)
            .unwrap()
            .with_total_order(6)
            .unwrap();
        let once = reduce_multipoint(&sys, &opts.clone().with_points(vec![1e8]).unwrap()).unwrap();
        let twice = reduce_multipoint(&sys, &opts.with_points(vec![1e8, 1e8]).unwrap()).unwrap();
        assert_eq!(twice.point_freqs_hz, vec![1e8]);
        let bits = |m: &ReducedModel| {
            [m.t_matrix(), m.delta_matrix(), m.rho_matrix()]
                .iter()
                .flat_map(|a| a.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<u64>>()
        };
        assert_eq!(bits(&once.model), bits(&twice.model));
    }

    #[test]
    fn adaptive_placement_respects_caps_and_budget() {
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 25,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let p = sys.num_ports();
        let opts = MultiPointOptions::for_band(1e6, 1e10)
            .unwrap()
            .with_total_order(4 * p)
            .unwrap()
            .with_max_points(3)
            .unwrap()
            .with_tol(1e-12) // unreachably tight: force cap/budget stops
            .unwrap();
        let out = reduce_multipoint(&sys, &opts).unwrap();
        assert!(out.point_freqs_hz.len() <= 3);
        assert!(out.point_freqs_hz.len() * out.per_point_order <= 4 * p);
        assert!(out.model.order() <= 4 * p);
        // Seeds are the band endpoints; any inserted point is interior
        // and the list stays strictly ascending.
        assert_eq!(out.point_freqs_hz[0], 1e6);
        assert_eq!(*out.point_freqs_hz.last().unwrap(), 1e10);
        for w in out.point_freqs_hz.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(out.estimated_error.is_finite());
    }

    #[test]
    fn two_point_beats_single_point_on_a_wide_band() {
        // The core promise: at equal total order, spreading the budget
        // over the band beats escalating a single expansion point.
        let sys = MnaSystem::assemble(&rc_ladder(120, 60.0, 1e-12)).unwrap();
        let (f_lo, f_hi): (f64, f64) = (1e7, 1e10);
        let band = log_space(f_lo, f_hi, 25);
        let total = 8;
        let single = sympvl(&sys, total, &SympvlOptions::default()).unwrap();
        let multi = reduce_multipoint(
            &sys,
            &MultiPointOptions::for_band(f_lo, f_hi)
                .unwrap()
                .with_total_order(total)
                .unwrap()
                .with_points(vec![f_lo, f_hi])
                .unwrap(),
        )
        .unwrap();
        assert!(multi.model.order() <= total);
        let es = worst_band_error(&sys, &single, &band);
        let em = worst_band_error(&sys, &multi.model, &band);
        assert!(
            em < es,
            "multi-point {em:.3e} should beat single-point {es:.3e} at order {total}"
        );
    }

    #[test]
    fn deterministic_across_repeated_calls() {
        let ckt = interconnect(&InterconnectParams {
            wires: 2,
            segments: 20,
            coupling_reach: 1,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = MultiPointOptions::for_band(1e7, 5e9)
            .unwrap()
            .with_total_order(8)
            .unwrap()
            .with_max_points(4)
            .unwrap();
        let a = reduce_multipoint(&sys, &opts).unwrap();
        let b = reduce_multipoint(&sys, &opts).unwrap();
        assert_eq!(a.point_freqs_hz, b.point_freqs_hz);
        let (ta, tb) = (a.model.t_matrix(), b.model.t_matrix());
        assert_eq!(ta.ncols(), tb.ncols());
        for j in 0..ta.ncols() {
            for (x, y) in ta.col(j).iter().zip(tb.col(j)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn adaptive_placement_can_beat_endpoint_only_placement() {
        // Adaptive placement spends extra points where the endpoint
        // models disagree; over a wide band it should do no worse than
        // the plain 2-point split at the same budget.
        let sys = MnaSystem::assemble(&rc_ladder(120, 60.0, 1e-12)).unwrap();
        let (f_lo, f_hi): (f64, f64) = (1e6, 1e10);
        let band = log_space(f_lo, f_hi, 25);
        let total = 12;
        let two = reduce_multipoint(
            &sys,
            &MultiPointOptions::for_band(f_lo, f_hi)
                .unwrap()
                .with_total_order(total)
                .unwrap()
                .with_points(vec![f_lo, f_hi])
                .unwrap(),
        )
        .unwrap();
        let adaptive = reduce_multipoint(
            &sys,
            &MultiPointOptions::for_band(f_lo, f_hi)
                .unwrap()
                .with_total_order(total)
                .unwrap()
                .with_max_points(3)
                .unwrap()
                .with_tol(1e-9)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(adaptive.point_freqs_hz.len(), 3, "tol forces a third point");
        let e2 = worst_band_error(&sys, &two.model, &band);
        let e3 = worst_band_error(&sys, &adaptive.model, &band);
        assert!(
            e3 < e2 * 2.0,
            "adaptive {e3:.3e} should be competitive with endpoints-only {e2:.3e}"
        );
    }

    #[test]
    fn budget_too_small_for_seed_points_is_rejected() {
        let sys = MnaSystem::assemble(&rc_ladder(20, 50.0, 1e-12)).unwrap();
        let opts = MultiPointOptions::for_band(1e7, 1e9)
            .unwrap()
            .with_total_order(1)
            .unwrap();
        assert!(matches!(
            reduce_multipoint(&sys, &opts),
            Err(SympvlError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn option_builders_validate() {
        assert!(MultiPointOptions::for_band(0.0, 1e9).is_err());
        assert!(MultiPointOptions::for_band(1e9, 1e7).is_err());
        assert!(MultiPointOptions::for_band(1e9, f64::NAN).is_err());
        let ok = MultiPointOptions::for_band(1e7, 1e9).unwrap();
        assert!(ok.clone().with_total_order(0).is_err());
        assert!(ok.clone().with_points(vec![]).is_err());
        assert!(ok.clone().with_points(vec![1e8, -1.0]).is_err());
        assert!(ok.clone().with_max_points(1).is_err());
        assert!(ok.clone().with_tol(0.0).is_err());
        assert!(ok.clone().with_probe_freqs(vec![]).is_err());
        assert!(ok.clone().with_basis_tol(1.0).is_err());
        assert!(ok.with_basis_tol(1e-12).is_ok());
    }

    #[test]
    fn matches_adaptive_single_point_when_band_is_narrow() {
        // Sanity: on a narrow band a single point suffices; multi-point
        // must not be (much) worse than the adaptive single-point loop
        // at comparable order.
        let sys = MnaSystem::assemble(&rc_ladder(80, 60.0, 1e-12)).unwrap();
        let band: Vec<f64> = (0..9).map(|i| 1e8 * 1.3f64.powi(i)).collect();
        let adaptive =
            reduce_adaptive(&sys, &AdaptiveOptions::for_band(1e8, band[8]).unwrap()).unwrap();
        let multi = reduce_multipoint(
            &sys,
            &MultiPointOptions::for_band(1e8, band[8])
                .unwrap()
                .with_total_order(adaptive.model.order().max(2))
                .unwrap(),
        )
        .unwrap();
        let ea = worst_band_error(&sys, &adaptive.model, &band);
        let em = worst_band_error(&sys, &multi.model, &band);
        assert!(
            em < (ea * 100.0).max(1e-6),
            "narrow band: multi {em:.3e} vs adaptive single {ea:.3e}"
        );
    }
}
