//! The SyMPVL driver: from an assembled [`MnaSystem`] to a
//! [`ReducedModel`].

use crate::lanczos::LanczosOutcome;
use crate::{GFactor, LanczosOptions, ReducedModel, SympvlError, SympvlRun};
use mpvl_circuit::MnaSystem;
use std::sync::Arc;

/// Expansion-point policy (paper eq. 26).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shift {
    /// Expand about `σ = 0`; fails if `G` is singular.
    None,
    /// Expand about `σ = 0` when `G` factors; otherwise pick a small
    /// regularizing shift automatically (`s₀ = 10⁻³·‖G‖_F/‖C‖_F`, backing
    /// off toward the full scale if that still hits a zero pivot).
    Auto,
    /// Expand about the given `σ = s₀`.
    Value(f64),
}

/// Options for [`sympvl`].
///
/// Construct via [`SympvlOptions::new`] (or `default()`) and chain the
/// `with_*` builders; the struct is `#[non_exhaustive]` so options can
/// grow without breaking callers. Validating setters reject impossible
/// values (a non-finite explicit shift) at build time rather than deep
/// inside the run.
///
/// ```
/// use sympvl::{Shift, SympvlOptions};
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// let opts = SympvlOptions::new().with_shift(Shift::Value(1e9))?;
/// assert!(SympvlOptions::new()
///     .with_shift(Shift::Value(f64::NAN))
///     .is_err());
/// # let _ = opts;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SympvlOptions {
    /// Expansion-point policy.
    pub shift: Shift,
    /// Lanczos-process tuning.
    pub lanczos: LanczosOptions,
    /// Relative pivot threshold for accepting the unshifted
    /// factorization under [`Shift::Auto`]: the factor of `G` alone is
    /// used only when `min_pivot > auto_rtol * max_pivot`, otherwise
    /// the automatic-shift ladder runs. Part of every cache key that
    /// identifies a reduction (engine run pool, service registry): two
    /// requests differing only in `auto_rtol` can legitimately resolve
    /// to different expansion points.
    pub auto_rtol: f64,
}

/// Default [`SympvlOptions::auto_rtol`].
pub const DEFAULT_AUTO_RTOL: f64 = 1e-10;

impl Default for SympvlOptions {
    fn default() -> Self {
        SympvlOptions {
            shift: Shift::Auto,
            lanczos: LanczosOptions::default(),
            auto_rtol: DEFAULT_AUTO_RTOL,
        }
    }
}

impl SympvlOptions {
    /// Starts from the defaults: [`Shift::Auto`] and default Lanczos
    /// tuning.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the expansion-point policy.
    ///
    /// # Errors
    ///
    /// [`SympvlError::BadShift`] when `shift` is `Shift::Value(s0)` with a
    /// NaN or infinite `s0`.
    pub fn with_shift(mut self, shift: Shift) -> Result<Self, SympvlError> {
        if let Shift::Value(s0) = shift {
            if !s0.is_finite() {
                return Err(SympvlError::BadShift { s0 });
            }
        }
        self.shift = shift;
        Ok(self)
    }

    /// Sets the Lanczos-process tuning (infallible — [`LanczosOptions`]
    /// tolerances are checked by the process itself).
    pub fn with_lanczos(mut self, lanczos: LanczosOptions) -> Self {
        self.lanczos = lanczos;
        self
    }

    /// Sets the [`Shift::Auto`] pivot-acceptance threshold.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `0 <= auto_rtol < 1`
    /// (finite) — at `1` or above no factorization could ever be
    /// accepted, since `min_pivot <= max_pivot` always.
    pub fn with_auto_rtol(mut self, auto_rtol: f64) -> Result<Self, SympvlError> {
        if !(auto_rtol.is_finite() && (0.0..1.0).contains(&auto_rtol)) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("auto_rtol must be finite in [0, 1), got {auto_rtol}"),
            });
        }
        self.auto_rtol = auto_rtol;
        Ok(self)
    }
}

/// Runs SyMPVL: reduces the multi-port system `Z(s) = Bᵀ(G + σC)⁻¹B` to an
/// order-`order` matrix-Padé model.
///
/// Pipeline (paper §4): factor `G + s₀C = M J Mᵀ` ([`GFactor`]), run the
/// symmetric block-Lanczos process on `A = M⁻¹CM⁻ᵀ` with starting block
/// `M⁻¹B` ([`block_lanczos`](crate::block_lanczos)), and package `(Δₙ, Tₙ, ρₙ)` as a
/// [`ReducedModel`]. The achieved order can be lower than requested when
/// deflation exhausts the Krylov space (then the model is *exact*) or when
/// the trailing look-ahead cluster cannot be closed.
///
/// # Errors
///
/// * [`SympvlError::BadOrder`] for `order == 0`.
/// * [`SympvlError::Factorization`] when `G + s₀C` cannot be factored
///   (e.g. `Shift::None` on an LC circuit whose `G` is singular — use
///   `Shift::Auto` or an explicit value, as the paper does in §7.1).
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
/// use sympvl::{sympvl, SympvlOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_ladder(50, 100.0, 1e-12))?;
/// let model = sympvl(&sys, 8, &SympvlOptions::default())?;
/// assert_eq!(model.order(), 8);
/// assert!(model.guarantees_passivity()); // RC circuit: J = I
/// # Ok(())
/// # }
/// ```
pub fn sympvl(
    sys: &MnaSystem,
    order: usize,
    opts: &SympvlOptions,
) -> Result<ReducedModel, SympvlError> {
    if order == 0 {
        return Err(SympvlError::BadOrder { order });
    }
    let mut run = SympvlRun::new(sys, opts)?;
    run.model_at(sys, order)
}

/// The concrete matrix a [`Shift`] policy asks to factor.
///
/// `Unshifted` factors `G` alone — on *G's own* sparsity pattern and
/// fill-reducing ordering. `Shifted(σ)` factors `G + σC` — on the
/// `G`/`C` *union* pattern, whose ordering generally differs. The two
/// are therefore distinct cache keys even for `σ = 0`: `Shifted(0.0)`
/// and `Unshifted` produce numerically equal but **bit-different**
/// factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorTarget {
    /// Factor `G` (pattern and ordering of `G` alone).
    Unshifted,
    /// Factor `G + σC` (union pattern), `σ` finite.
    Shifted(f64),
}

/// Factors a [`FactorTarget`] directly — the uncached seam default.
/// Session caches wrap this to interpose per-target memoization.
pub fn factor_target(sys: &MnaSystem, target: FactorTarget) -> Result<Arc<GFactor>, SympvlError> {
    match target {
        FactorTarget::Unshifted => GFactor::factor(&sys.g).map(Arc::new),
        FactorTarget::Shifted(s0) => {
            let shifted = sys.g.add_scaled(1.0, &sys.c, s0);
            GFactor::factor(&shifted).map(Arc::new)
        }
    }
}

/// Resolves a [`Shift`] policy to a factorization, routing every
/// concrete factorization attempt through `factor_fn` — the seam the
/// session engine uses to interpose its cache. `factor_fn` must behave
/// like [`GFactor::factor`] on the [`FactorTarget`] matrix (returning a
/// cached copy of exactly that result is fine; computing something else
/// is not). The policy logic — validation guards, the `Auto`
/// conditioning test, and the automatic-shift back-off ladder — lives
/// here, once, so cached and uncached paths cannot drift.
pub fn factor_with_shift_via<F>(
    sys: &MnaSystem,
    shift: Shift,
    factor_fn: &mut F,
) -> Result<(Arc<GFactor>, f64), SympvlError>
where
    F: FnMut(&MnaSystem, FactorTarget) -> Result<Arc<GFactor>, SympvlError>,
{
    let opts = SympvlOptions {
        shift,
        ..SympvlOptions::default()
    };
    factor_with_options_via(sys, &opts, factor_fn)
}

/// Like [`factor_with_shift_via`], but honouring the full
/// [`SympvlOptions`] — in particular [`SympvlOptions::auto_rtol`], the
/// `Auto` pivot-acceptance threshold. The acceptance decision is made
/// here on every call, *outside* `factor_fn`: a cache behind the seam
/// memoizes factorizations (including failures) per [`FactorTarget`]
/// matrix only, so changing options re-judges a cached factor rather
/// than being wrongly rejected by a stale decision.
pub fn factor_with_options_via<F>(
    sys: &MnaSystem,
    opts: &SympvlOptions,
    factor_fn: &mut F,
) -> Result<(Arc<GFactor>, f64), SympvlError>
where
    F: FnMut(&MnaSystem, FactorTarget) -> Result<Arc<GFactor>, SympvlError>,
{
    let shift = opts.shift;
    if sys.dim() == 0 {
        // Also guards the Auto-accept conditioning test below: a dim-0
        // factor has no pivots, and "min pivot > tol * max pivot" on an
        // empty range must not pass vacuously.
        return Err(SympvlError::EmptySystem);
    }
    if !sys.is_symmetric() {
        return Err(SympvlError::RequiresDefiniteForm {
            operation: "SyMPVL (symmetric G, C; use baselines::mpvl for active circuits)",
        });
    }
    match shift {
        Shift::None => Ok((factor_fn(sys, FactorTarget::Unshifted)?, 0.0)),
        Shift::Value(s0) => {
            if !s0.is_finite() {
                return Err(SympvlError::BadShift { s0 });
            }
            Ok((factor_fn(sys, FactorTarget::Shifted(s0))?, s0))
        }
        Shift::Auto => match factor_fn(sys, FactorTarget::Unshifted) {
            // Accept the unshifted factorization only when it is
            // well-conditioned: an ungrounded Laplacian is rank-deficient
            // but can squeak past the pivot floor with one tiny (even
            // negative) pivot, silently poisoning the reduction.
            Ok(f)
                if {
                    // `lo` is finite and nonzero only for a nonempty,
                    // fully pivoted factor ([`GFactor::pivot_range`]
                    // reports (0, 0) for dim-0); the guard cannot pass
                    // vacuously.
                    let (lo, hi) = f.pivot_range();
                    // With auto_rtol == 0 this still demands lo > 0:
                    // a zero pivot is never acceptable.
                    lo.is_finite() && lo > opts.auto_rtol * hi
                } =>
            {
                Ok((f, 0.0))
            }
            _ => {
                let gn = frob(&sys.g);
                let cn = frob(&sys.c);
                if cn == 0.0 {
                    return Err(SympvlError::Factorization {
                        reason: "G singular and C is zero".to_string(),
                    });
                }
                // ‖G‖/‖C‖ is the σ-scale of the *fastest* pole; expanding
                // there ruins in-band convergence. A shift three decades
                // below it regularizes the factorization while keeping the
                // expansion effectively at DC. (If even that hits a zero
                // pivot, back off toward the full scale.)
                for eps in [1e-3, 1e-1, 1.0] {
                    let s0 = eps * gn / cn;
                    if let Ok(f) = factor_fn(sys, FactorTarget::Shifted(s0)) {
                        return Ok((f, s0));
                    }
                }
                Err(SympvlError::Factorization {
                    reason: "G + s0*C singular for every automatic shift".to_string(),
                })
            }
        },
    }
}

/// Factors `G + s₀C` per the shift policy, returning the factor and the
/// shift actually used.
pub(crate) fn factor_with_shift(
    sys: &MnaSystem,
    shift: Shift,
) -> Result<(Arc<GFactor>, f64), SympvlError> {
    factor_with_shift_via(sys, shift, &mut factor_target)
}

/// Packages a Lanczos outcome as a [`ReducedModel`] — the single
/// assembly site shared by [`sympvl`] and [`SympvlRun`], so every path
/// produces field-identical models.
pub(crate) fn assemble_model(
    sys: &MnaSystem,
    factor: &GFactor,
    s0: f64,
    out: LanczosOutcome,
    requested_order: usize,
) -> Result<ReducedModel, SympvlError> {
    if out.order() == 0 {
        return Err(SympvlError::BadOrder {
            order: requested_order,
        });
    }
    Ok(ReducedModel {
        t: out.t,
        delta: out.delta,
        rho: out.rho,
        shift: s0,
        s_power: sys.s_power,
        output_s_factor: sys.output_s_factor,
        identity_j: factor.is_identity_j(),
        original_dim: sys.dim(),
        p1: out.p1,
        deflations: out.deflation_steps.len(),
        exhausted: out.exhausted,
        consts: std::sync::OnceLock::new(),
        lambdas: std::sync::OnceLock::new(),
    })
}

fn frob(m: &mpvl_sparse::CscMat<f64>) -> f64 {
    m.values().iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::{peec, random_rc, rc_ladder, rc_line, PeecParams};
    use mpvl_la::Complex64;

    fn rel_err(a: Complex64, b: Complex64) -> f64 {
        (a - b).abs() / b.abs().max(1e-300)
    }

    #[test]
    fn full_order_model_is_exact() {
        // With n = N the Krylov space is complete and Z_n == Z everywhere.
        let sys = MnaSystem::assemble(&rc_ladder(8, 120.0, 2e-12)).unwrap();
        let n = sys.dim();
        let model = sympvl(&sys, n, &SympvlOptions::default()).unwrap();
        assert_eq!(model.order(), n);
        for f in [1e6, 1e8, 3e9, 7e10] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z = model.eval(s).unwrap()[(0, 0)];
            let zx = sys.dense_z(s).unwrap()[(0, 0)];
            assert!(rel_err(z, zx) < 1e-9, "f={f}: {z} vs {zx}");
        }
    }

    #[test]
    fn moments_match_pade_property_single_port() {
        // q(n) = 2n moments for p = 1.
        let sys = MnaSystem::assemble(&rc_ladder(20, 80.0, 1e-12)).unwrap();
        let n = 5;
        let model = sympvl(&sys, n, &SympvlOptions::default()).unwrap();
        let exact = crate::exact_moments(&sys, model.shift(), 2 * n).unwrap();
        for k in 0..2 * n {
            let mk = model.moment(k)[(0, 0)];
            let ek = exact[k][(0, 0)];
            let scale = ek.abs().max(1e-300);
            assert!(((mk - ek) / scale).abs() < 1e-6, "moment {k}: {mk} vs {ek}");
        }
    }

    #[test]
    fn moments_match_pade_property_two_port() {
        // q(n) = 2*floor(n/p) matrix moments for p = 2.
        let sys = MnaSystem::assemble(&rc_line(20, 60.0, 1e-12)).unwrap();
        let n = 8;
        let model = sympvl(&sys, n, &SympvlOptions::default()).unwrap();
        let q = model.matched_moments();
        assert_eq!(q, 8);
        let exact = crate::exact_moments(&sys, model.shift(), q).unwrap();
        for k in 0..q {
            let mk = model.moment(k);
            let ek = &exact[k];
            let scale = ek.max_abs().max(1e-300);
            assert!(
                (&mk - ek).max_abs() / scale < 1e-6,
                "matrix moment {k} mismatch: {}",
                (&mk - ek).max_abs() / scale
            );
        }
    }

    #[test]
    fn accuracy_improves_with_order() {
        let sys = MnaSystem::assemble(&rc_ladder(60, 100.0, 1e-12)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 2e9);
        let zx = sys.dense_z(s).unwrap()[(0, 0)];
        let mut last = f64::INFINITY;
        for n in [2, 4, 8, 14] {
            let model = sympvl(&sys, n, &SympvlOptions::default()).unwrap();
            let err = rel_err(model.eval(s).unwrap()[(0, 0)], zx);
            assert!(
                err < last.max(1e-12) * 1.5,
                "order {n}: err {err} vs previous {last}"
            );
            last = err;
        }
        assert!(last < 1e-3, "order 14 should be accurate, got {last}");
    }

    #[test]
    fn lc_circuit_requires_and_uses_auto_shift() {
        let model = peec(&PeecParams {
            cells: 24,
            output_cell: 12,
            ..PeecParams::default()
        });
        // G of an LC circuit in sigma-form is A_l^T L^{-1} A_l which here is
        // nonsingular (chain to ground) — but C-only nodes can make plain
        // factorization fine; force a shift comparison anyway:
        let m_auto = sympvl(&model.system, 12, &SympvlOptions::default()).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 5e8);
        let z = m_auto.eval(s).unwrap();
        let zx = model.system.dense_z(s).unwrap();
        // Moderate order on a 24-cell LC: should be a decent match at low f.
        assert!(
            rel_err(z[(0, 0)], zx[(0, 0)]) < 1e-2,
            "err {}",
            rel_err(z[(0, 0)], zx[(0, 0)])
        );
        assert_eq!(m_auto.s_power, 2);
    }

    #[test]
    fn explicit_shift_matches_auto_on_rc() {
        let sys = MnaSystem::assemble(&random_rc(3, 25, 2)).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let zx = sys.dense_z(s).unwrap();
        let m0 = sympvl(&sys, 16, &SympvlOptions::default()).unwrap();
        let m1 = sympvl(
            &sys,
            16,
            &SympvlOptions {
                shift: Shift::Value(1e9),
                ..SympvlOptions::default()
            },
        )
        .unwrap();
        // Both should be accurate; they are different Padé expansions.
        assert!(rel_err(m0.eval(s).unwrap()[(0, 0)], zx[(0, 0)]) < 1e-3);
        assert!(rel_err(m1.eval(s).unwrap()[(0, 0)], zx[(0, 0)]) < 1e-3);
        assert_eq!(m1.shift(), 1e9);
    }

    #[test]
    fn rejects_non_finite_shift() {
        // NaN/∞ expansion points used to be accepted silently and produce
        // a nonsense shifted system; now they fail up front.
        let sys = MnaSystem::assemble(&rc_ladder(5, 1.0, 1e-12)).unwrap();
        for s0 in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let opts = SympvlOptions {
                shift: Shift::Value(s0),
                ..SympvlOptions::default()
            };
            match sympvl(&sys, 3, &opts) {
                Err(SympvlError::BadShift { s0: got }) => {
                    assert!(got.is_nan() == s0.is_nan() && (got.is_nan() || got == s0));
                }
                other => panic!("s0={s0}: expected BadShift, got {other:?}"),
            }
        }
        // A finite explicit shift still works.
        assert!(sympvl(
            &sys,
            3,
            &SympvlOptions {
                shift: Shift::Value(1e8),
                ..SympvlOptions::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn rejects_dimension_zero_system() {
        // A dim-0 system used to sail through Shift::Auto: pivot_range()
        // on an empty factor returned the fold identity (∞, 0), making the
        // "lo > 1e-10 * hi" acceptance vacuously true.
        use mpvl_circuit::CircuitClass;
        use mpvl_la::Mat;
        use mpvl_sparse::CscMat;
        let sys = MnaSystem {
            g: CscMat::zero(0, 0),
            c: CscMat::zero(0, 0),
            b: Mat::zeros(0, 1),
            s_power: 1,
            output_s_factor: 0,
            class: CircuitClass::Rc,
            num_node_unknowns: 0,
            num_inductor_unknowns: 0,
        };
        for shift in [Shift::Auto, Shift::None, Shift::Value(0.0)] {
            let opts = SympvlOptions {
                shift,
                ..SympvlOptions::default()
            };
            assert!(
                matches!(sympvl(&sys, 1, &opts), Err(SympvlError::EmptySystem)),
                "{shift:?} must reject a dim-0 system"
            );
        }
    }

    #[test]
    fn auto_rtol_is_judged_per_request_not_per_cached_factor() {
        // A cache behind the factor seam memoizes *factorizations* per
        // FactorTarget — not the Auto accept/reject decision. Flipping
        // auto_rtol between requests against the same cache must
        // re-judge the cached unshifted factor, not replay the earlier
        // verdict.
        use std::cell::{Cell, RefCell};
        use std::collections::HashMap;
        // random_rc is grounded: G is SPD and the unshifted factor is
        // acceptable at the default threshold (rc_ladder would not do —
        // its G is a floating resistor chain, singular by construction).
        let sys = MnaSystem::assemble(&random_rc(3, 25, 2)).unwrap();
        let cache: RefCell<HashMap<String, Result<Arc<GFactor>, SympvlError>>> =
            RefCell::new(HashMap::new());
        let calls = Cell::new(0usize);
        let mut cached_factor = |sys: &MnaSystem, target: FactorTarget| {
            let key = format!("{target:?}");
            if let Some(hit) = cache.borrow().get(&key) {
                return hit.clone();
            }
            calls.set(calls.get() + 1);
            let fresh = factor_target(sys, target);
            cache.borrow_mut().insert(key, fresh.clone());
            fresh
        };

        // Default threshold: the grounded RC ladder's G factors cleanly
        // and the unshifted factor is accepted (shift 0).
        let lenient = SympvlOptions::default();
        let (_, s0) = factor_with_options_via(&sys, &lenient, &mut cached_factor).unwrap();
        assert_eq!(s0, 0.0);
        assert_eq!(calls.get(), 1);

        // Absurdly strict threshold against the same warm cache: the
        // cached unshifted factor is re-judged, rejected, and the
        // ladder gets a genuinely fresh attempt (a new Shifted target).
        let strict = SympvlOptions::default().with_auto_rtol(0.999).unwrap();
        let (_, s1) = factor_with_options_via(&sys, &strict, &mut cached_factor).unwrap();
        assert!(s1 > 0.0, "strict rtol should force an automatic shift");
        assert_eq!(calls.get(), 2, "ladder must factor a fresh shifted target");

        // And the lenient request still accepts the cached factor after
        // the strict one rejected it — no cross-request poisoning.
        let (_, s2) = factor_with_options_via(&sys, &lenient, &mut cached_factor).unwrap();
        assert_eq!(s2, 0.0);
        assert_eq!(calls.get(), 2, "both targets already cached");
    }

    #[test]
    fn auto_rtol_builder_validates() {
        assert!(SympvlOptions::new().with_auto_rtol(0.0).is_ok());
        assert!(SympvlOptions::new().with_auto_rtol(1e-6).is_ok());
        for bad in [1.0, 1.5, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(
                SympvlOptions::new().with_auto_rtol(bad).is_err(),
                "auto_rtol {bad} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_zero_order() {
        let sys = MnaSystem::assemble(&rc_ladder(5, 1.0, 1e-12)).unwrap();
        assert!(matches!(
            sympvl(&sys, 0, &SympvlOptions::default()),
            Err(SympvlError::BadOrder { .. })
        ));
    }

    #[test]
    fn exhaustion_yields_exact_smaller_model() {
        // Request more than N: the model caps at N and is exact.
        let sys = MnaSystem::assemble(&rc_ladder(6, 100.0, 1e-12)).unwrap();
        let model = sympvl(&sys, 50, &SympvlOptions::default()).unwrap();
        assert!(model.order() <= sys.dim());
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let z = model.eval(s).unwrap()[(0, 0)];
        let zx = sys.dense_z(s).unwrap()[(0, 0)];
        assert!(rel_err(z, zx) < 1e-8);
    }
}
