//! Low-rank balanced truncation (the second reduction backend).
//!
//! Moment-matching Padé reduction is exact at its expansion points and
//! degrades away from them; balanced truncation instead orders state
//! directions by Hankel singular value — how much each one couples
//! input energy to output energy — and keeps the dominant ones, with
//! the classical twice-the-tail error bound. For the symmetric passive
//! pencils this workspace targets, the whole construction collapses
//! onto machinery that already exists:
//!
//! With `K = G + s_ref·C = MJMᵀ` and `J = I` (RC/RL/LC systems), the
//! port impedance in the shifted variable `x = σ − s_ref` is
//! `H(x) = rᵀ(I + xA)⁻¹r` with `A = M⁻¹CM⁻ᵀ` symmetric PSD and
//! `r = M⁻¹B` — a *state-space-symmetric* system, so the
//! controllability and observability Gramians coincide and one
//! Lyapunov equation `AP + PA = rrᵀ` yields both.
//!
//! The solver is a low-rank extended-Krylov method (the MORCIC /
//! Giamouzis et al. recipe): grow an orthonormal basis `V` of the block
//! extended Krylov subspace `span{r, Ar, A²r, …} ∪ {Wr, W²r, …}` where
//! `W = (I + ξA)⁻¹` with `ξ = s_inv − s_ref` chosen from the band's
//! high edge — the inverse arm is what makes slow (low-frequency) modes
//! appear early. Both arms reuse the sparse LDLT factor seam: `A·v`
//! goes through [`crate::KrylovOperator`] on the `s_ref` factor, and
//! `W·v = Mᵀ(G + s_inv·C)⁻¹M·v` composes the `s_ref` and `s_inv`
//! factors with one sparse matvec (`M v = K_ref·M⁻ᵀv` for `J = I`), so
//! a cached factorization at each band edge is all the large-scale
//! linear algebra needed.
//!
//! Projected onto `V`, the Lyapunov equation is solved exactly through
//! the eigendecomposition `VᵀAV = SΘSᵀ`:
//! `Y'ᵢⱼ = (R'R'ᵀ)ᵢⱼ/(θᵢ+θⱼ)` with `R' = SᵀVᵀr`, zeroing rows/columns
//! with `θ ≈ 0` (the static nullspace of `A` carries feedthrough, not
//! dynamics). A square-root factorization `Y = ZZᵀ` then gives the
//! Hankel singular values and balanced directions from the small
//! symmetric cross product `ZᵀVᵀAVZ` — the symmetric-system specialisation
//! of square-root balancing via the SVD of the Cholesky-factor cross
//! product. Truncation keeps the dominant balanced directions *plus the
//! static component of `r`* (its projection onto the numerical null
//! space of `A`, which carries the feedthrough); because those two
//! blocks are A-orthogonal eigenspaces the projected pencil decouples,
//! so the dynamic part of the reduced model is *exactly* the balanced
//! truncation of the (projected) system rather than merely a
//! projection near it — which is what makes the error bound sharp. The
//! kept physical directions `X = M⁻ᵀV[...]` are congruence-projected
//! through the same [`assemble_merged`](crate::multipoint) path as
//! multi-point reduction — so the result is an ordinary
//! [`ReducedModel`] with `J = I`, and certificates, pole extraction,
//! synthesis, and the compiled evaluator all work on it unchanged.
//!
//! Convergence is *frequency-aware*: after each extended-Krylov step
//! the truncated candidate model is compared to the previous
//! iteration's candidate on the request's band probes, and the
//! iteration stops when the worst relative disagreement falls below
//! `tol` — basis growth is spent only until the band answer stops
//! moving, not until an algebraic residual is small at frequencies
//! nobody asked about.
//!
//! The reported `hankel_bound = 2·Σ_tail σᵢ` is the classical H∞ bound
//! on the `x`-imaginary axis — the vertical line `σ = s_ref + jω` in
//! the shift variable — computed from the converged low-rank Gramian.
//! On that line the bound is sharp (the tests assert it with only a
//! small slack for Krylov truncation). The *physical* band line
//! `σ = j2πf` sits a distance `s_ref` to the left of it, so physical
//! band error tracks the bound up to a geometry factor that grows when
//! the circuit has poles below the band's low edge (a DC-open ladder
//! has a pole exactly on the physical line); [`BalancedOutcome::
//! estimated_band_error`] reports the physical-band convergence signal
//! directly for that case.
//!
//! Systems with an indefinite `J` (general RLC with both capacitive and
//! inductive storage in MNA form) are rejected with a typed
//! [`SympvlError::RequiresDefiniteForm`] — the symmetric Lyapunov
//! identification above needs the definite pencil. The driver is
//! deliberately sequential and built from thread-invariant kernels, so
//! results are bit-identical at any `MPVL_THREADS`.

use std::sync::Arc;

use crate::adaptive::band_disagreement;
use crate::multipoint::{assemble_merged, expansion_shift};
use crate::reduce::{factor_target, FactorTarget};
use crate::{GFactor, KrylovOperator, LinearOperator, ReducedModel, SympvlError};
use mpvl_circuit::MnaSystem;
use mpvl_la::{norm2, orthonormalize_into, sym_eigen, Mat};
use mpvl_sparse::CscMat;

/// Relative eigenvalue threshold below which a direction of `VᵀAV` is
/// treated as part of the static nullspace of `A` (no dynamics).
const THETA_DROP: f64 = 1e-12;
/// Relative threshold on eigenvalues of the projected Gramian below
/// which a square-root column is dropped.
const GRAMIAN_DROP: f64 = 1e-14;

/// Options for [`reduce_balanced`].
///
/// Construct via [`BtOptions::for_band`] and chain the `with_*`
/// builders; `#[non_exhaustive]` so options can grow without breaking
/// callers. Impossible values are rejected at build time.
///
/// ```
/// use sympvl::BtOptions;
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// let opts = BtOptions::for_band(1e7, 1e10)?.with_order(8)?;
/// assert!(BtOptions::for_band(1e9, 1e9).is_err()); // zero band
/// # let _ = opts;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BtOptions {
    /// Low band edge (Hz); sets the reference shift `s_ref`.
    pub f_lo: f64,
    /// High band edge (Hz); sets the inverse-arm shift `s_inv`.
    pub f_hi: f64,
    /// Target reduced order. `Some(q)`: keep the port block plus the
    /// `q − p` dominant balanced directions (total order ≤ `q`).
    /// `None`: keep every direction with `σᵢ > hsv_tol·σ₁`.
    pub order: Option<usize>,
    /// Frequency-aware convergence tolerance: stop growing the basis
    /// when consecutive truncated candidates agree to this worst
    /// relative difference over the band probes.
    pub tol: f64,
    /// Relative Hankel-singular-value cutoff for automatic order
    /// selection (`order: None`).
    pub hsv_tol: f64,
    /// Hard cap on the extended-Krylov basis dimension.
    pub max_basis: usize,
    /// Frequencies (Hz) at which candidate-model convergence is probed.
    pub probe_freqs_hz: Vec<f64>,
    /// Column-drop tolerance for basis orthonormalization.
    pub basis_tol: f64,
}

impl BtOptions {
    /// Sensible defaults for a band `f_lo..f_hi`: automatic order
    /// (`hsv_tol = 1e-8`), convergence tolerance `1e-6`, basis cap 96,
    /// 17 log-spaced probes.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `0 < f_lo < f_hi` with
    /// both endpoints finite.
    pub fn for_band(f_lo: f64, f_hi: f64) -> Result<Self, SympvlError> {
        if !(f_lo.is_finite() && f_hi.is_finite() && f_lo > 0.0 && f_hi > f_lo) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("need a finite positive band with f_hi > f_lo, got {f_lo}..{f_hi}"),
            });
        }
        let probes = 17;
        let (l0, l1) = (f_lo.ln(), f_hi.ln());
        Ok(BtOptions {
            f_lo,
            f_hi,
            order: None,
            tol: 1e-6,
            hsv_tol: 1e-8,
            max_basis: 96,
            probe_freqs_hz: (0..probes)
                .map(|i| (l0 + (l1 - l0) * i as f64 / (probes - 1) as f64).exp())
                .collect(),
            basis_tol: 1e-10,
        })
    }

    /// Targets a fixed reduced order.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for order zero.
    pub fn with_order(mut self, order: usize) -> Result<Self, SympvlError> {
        if order == 0 {
            return Err(SympvlError::InvalidOptions {
                reason: "reduced order must be at least 1".into(),
            });
        }
        self.order = Some(order);
        Ok(self)
    }

    /// Switches back to automatic order selection with the given
    /// relative Hankel-singular-value cutoff.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `hsv_tol` is finite in
    /// `(0, 1)`.
    pub fn with_hsv_tol(mut self, hsv_tol: f64) -> Result<Self, SympvlError> {
        if !(hsv_tol.is_finite() && hsv_tol > 0.0 && hsv_tol < 1.0) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("HSV cutoff must be finite in (0, 1), got {hsv_tol}"),
            });
        }
        self.order = None;
        self.hsv_tol = hsv_tol;
        Ok(self)
    }

    /// Sets the frequency-aware convergence tolerance.
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

    /// Caps the extended-Krylov basis dimension.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a cap below 2.
    pub fn with_max_basis(mut self, max_basis: usize) -> Result<Self, SympvlError> {
        if max_basis < 2 {
            return Err(SympvlError::InvalidOptions {
                reason: format!("basis cap must be at least 2, got {max_basis}"),
            });
        }
        self.max_basis = max_basis;
        Ok(self)
    }

    /// Replaces the convergence probe frequencies (Hz).
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] when the list is empty or any
    /// frequency is non-finite or not positive.
    pub fn with_probe_freqs(mut self, probe_freqs_hz: Vec<f64>) -> Result<Self, SympvlError> {
        if probe_freqs_hz.is_empty() {
            return Err(SympvlError::InvalidOptions {
                reason: "need at least one probe frequency".into(),
            });
        }
        if let Some(&bad) = probe_freqs_hz
            .iter()
            .find(|f| !(f.is_finite() && **f > 0.0))
        {
            return Err(SympvlError::InvalidOptions {
                reason: format!("probe frequencies must be finite and positive, got {bad}"),
            });
        }
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
}

/// Outcome of a balanced-truncation reduction.
#[derive(Debug, Clone)]
pub struct BalancedOutcome {
    /// The truncated, congruence-projected model (`J = I`).
    pub model: ReducedModel,
    /// Hankel singular values of the dynamic part, descending, from the
    /// converged low-rank Gramian.
    pub hankel: Vec<f64>,
    /// `2·Σ_tail σᵢ` over the truncated directions: the classical H∞
    /// error bound of the dynamic part.
    pub hankel_bound: f64,
    /// Balanced directions kept (the model order additionally includes
    /// the port block).
    pub kept: usize,
    /// Final extended-Krylov basis dimension.
    pub basis_dim: usize,
    /// Extended-Krylov expansion steps performed.
    pub iterations: usize,
    /// Whether the frequency-aware criterion converged (also true when
    /// the subspace was exhausted, i.e. the Gramian is exact).
    pub converged: bool,
    /// Worst relative band disagreement between the last two candidate
    /// models — the converged value of the frequency-aware signal.
    pub estimated_band_error: f64,
}

/// Hankel spectrum diagnostic from the low-rank Lyapunov solve alone
/// (no reduced model is assembled). See [`hankel_spectrum`].
#[derive(Debug, Clone)]
pub struct HankelSpectrum {
    /// Hankel singular values of the dynamic part, descending.
    pub hankel: Vec<f64>,
    /// Final extended-Krylov basis dimension.
    pub basis_dim: usize,
    /// Extended-Krylov expansion steps performed.
    pub iterations: usize,
    /// Whether the spectrum converged before the basis cap.
    pub converged: bool,
}

/// Reduces `sys` by low-rank balanced truncation over the options'
/// band.
///
/// # Errors
///
/// [`SympvlError::RequiresDefiniteForm`] for systems whose shifted
/// pencil is indefinite (`J ≠ I`); factorization or eigensolver
/// failures propagate as their usual variants.
pub fn reduce_balanced(sys: &MnaSystem, opts: &BtOptions) -> Result<BalancedOutcome, SympvlError> {
    reduce_balanced_via(sys, opts, &mut factor_target)
}

/// [`reduce_balanced`] with an injected factorization seam, so callers
/// holding a factor cache (the session engine) can share the shifted
/// LDLT factors with every other backend.
pub fn reduce_balanced_via<F>(
    sys: &MnaSystem,
    opts: &BtOptions,
    factor_fn: &mut F,
) -> Result<BalancedOutcome, SympvlError>
where
    F: FnMut(&MnaSystem, FactorTarget) -> Result<Arc<GFactor>, SympvlError>,
{
    let _span = mpvl_obs::span("balanced", "reduce_balanced");
    let core = drive(sys, opts, factor_fn, StopRule::Band)?;
    let model = core.model.expect("band rule always assembles a model");
    Ok(BalancedOutcome {
        model,
        hankel: core.hankel,
        hankel_bound: core.hankel_bound,
        kept: core.kept,
        basis_dim: core.basis_dim,
        iterations: core.iterations,
        converged: core.converged,
        estimated_band_error: core.estimated_band_error,
    })
}

/// Runs the low-rank Lyapunov solve and returns the Hankel spectrum
/// without assembling candidate models: convergence is judged on the
/// stationarity of the total Hankel sum instead of the band probes.
/// This isolates the Gramian cost for benchmarks and gives a quick
/// "how reducible is this system" diagnostic.
///
/// # Errors
///
/// Same as [`reduce_balanced`].
pub fn hankel_spectrum(sys: &MnaSystem, opts: &BtOptions) -> Result<HankelSpectrum, SympvlError> {
    let _span = mpvl_obs::span("balanced", "hankel_spectrum");
    let core = drive(sys, opts, &mut factor_target, StopRule::Spectrum)?;
    Ok(HankelSpectrum {
        hankel: core.hankel,
        basis_dim: core.basis_dim,
        iterations: core.iterations,
        converged: core.converged,
    })
}

/// How the extended-Krylov loop decides it is done.
enum StopRule {
    /// Compare consecutive truncated candidate models on the band
    /// probes (the frequency-aware criterion).
    Band,
    /// Compare consecutive total Hankel sums (spectrum-only runs).
    Spectrum,
}

struct BtCore {
    model: Option<ReducedModel>,
    hankel: Vec<f64>,
    hankel_bound: f64,
    kept: usize,
    basis_dim: usize,
    iterations: usize,
    converged: bool,
    estimated_band_error: f64,
}

/// One truncated snapshot of the current subspace: Gramian, spectrum,
/// and (under the band rule) the assembled candidate model.
struct Candidate {
    model: Option<ReducedModel>,
    hankel: Vec<f64>,
    hankel_bound: f64,
    kept: usize,
}

fn drive<F>(
    sys: &MnaSystem,
    opts: &BtOptions,
    factor_fn: &mut F,
    rule: StopRule,
) -> Result<BtCore, SympvlError>
where
    F: FnMut(&MnaSystem, FactorTarget) -> Result<Arc<GFactor>, SympvlError>,
{
    let n = sys.dim();
    if n == 0 {
        return Err(SympvlError::EmptySystem);
    }
    let p = sys.num_ports();
    if p == 0 {
        return Err(SympvlError::InvalidOptions {
            reason: "balanced truncation needs at least one port".into(),
        });
    }

    let s_ref = expansion_shift(opts.f_lo, sys.s_power);
    let s_inv = expansion_shift(opts.f_hi, sys.s_power);
    let f_ref = factor_fn(sys, FactorTarget::Shifted(s_ref))?;
    if !f_ref.is_identity_j() {
        return Err(SympvlError::RequiresDefiniteForm {
            operation: "balanced truncation",
        });
    }
    // ξ = s_inv − s_ref > 0 keeps K_inv = K_ref + ξC positive definite,
    // so the inverse arm inherits J = I; with a degenerate band shift
    // (s_power = 0) the arm is skipped rather than applying W = I.
    let w_arm = s_inv > s_ref;
    let f_inv = if w_arm {
        let f = factor_fn(sys, FactorTarget::Shifted(s_inv))?;
        if !f.is_identity_j() {
            return Err(SympvlError::RequiresDefiniteForm {
                operation: "balanced truncation",
            });
        }
        Some(f)
    } else {
        None
    };
    // Explicit K_ref: for J = I, M·v = K_ref·M⁻ᵀv and Mᵀ·v = M⁻¹K_ref·v,
    // which is how the inverse arm changes coordinates between factors.
    let k_ref_mat = sys.g.add_scaled(1.0, &sys.c, s_ref);
    let a_op = KrylovOperator::new(&f_ref, &sys.c);
    let r = f_ref.apply_minv_mat(&sys.b);

    // The basis always has room for the full port block plus one
    // balanced direction, whatever the configured cap.
    let cap = opts.max_basis.max(p + 1).min(n);
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut abasis: Vec<Vec<f64>> = Vec::new();

    orthonormalize_into(&mut basis, &r, opts.basis_tol, cap);
    if basis.is_empty() {
        return Err(SympvlError::InvalidOptions {
            reason: "port incidence matrix is numerically zero".into(),
        });
    }
    extend_abasis(&a_op, &basis, &mut abasis, n);
    // The basis starts empty, so all of it is the seeded port block.
    let mut fwd = basis.clone();
    let mut inv = basis.clone();

    let mut prev: Option<Candidate> = None;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut estimated = f64::INFINITY;

    loop {
        let cand = candidate(sys, opts, &f_ref, &basis, &abasis, &r, s_ref, &rule)?;
        if let Some(last) = &prev {
            let diff = match rule {
                StopRule::Band => {
                    let a = cand.model.as_ref().expect("band rule model");
                    let b = last.model.as_ref().expect("band rule model");
                    band_disagreement(a, b, &opts.probe_freqs_hz)?.0
                }
                // The Hankel *sum* is invariant by construction
                // (trace(AP) = ‖r‖²/2 for AP + PA = rrᵀ), so spectrum
                // stationarity compares the sorted values entrywise.
                StopRule::Spectrum => spectrum_drift(&cand.hankel, &last.hankel),
            };
            estimated = diff;
            if diff <= opts.tol {
                converged = true;
                prev = Some(cand);
                break;
            }
        }
        prev = Some(cand);
        if basis.len() >= cap {
            mpvl_obs::counter_add("balanced", "budget_stops", 1);
            break;
        }
        iterations += 1;
        mpvl_obs::counter_add("balanced", "iterations", 1);
        if !grow(
            &a_op,
            f_ref.as_ref(),
            f_inv.as_deref(),
            &k_ref_mat,
            &mut basis,
            &mut abasis,
            &mut fwd,
            &mut inv,
            opts.basis_tol,
            cap,
            n,
        ) {
            // Both frontiers fully deflated: the subspace is invariant,
            // the projected Gramian is the exact one.
            mpvl_obs::counter_add("balanced", "subspace_exhausted", 1);
            converged = true;
            estimated = 0.0;
            break;
        }
    }

    let last = prev.expect("at least one candidate is always built");
    Ok(BtCore {
        model: last.model,
        hankel: last.hankel,
        hankel_bound: last.hankel_bound,
        kept: last.kept,
        basis_dim: basis.len(),
        iterations,
        converged,
        estimated_band_error: estimated,
    })
}

/// Worst entrywise relative change between two descending HSV lists
/// (shorter list padded with zeros), relative to the current leader.
fn spectrum_drift(cur: &[f64], last: &[f64]) -> f64 {
    let top = cur.first().copied().unwrap_or(0.0).max(1e-300);
    let len = cur.len().max(last.len());
    let mut worst = 0.0f64;
    for i in 0..len {
        let a = cur.get(i).copied().unwrap_or(0.0);
        let b = last.get(i).copied().unwrap_or(0.0);
        worst = worst.max((a - b).abs() / top);
    }
    worst
}

/// Applies `A` to every basis column not yet mirrored in `abasis`.
fn extend_abasis(
    a_op: &KrylovOperator<'_>,
    basis: &[Vec<f64>],
    abasis: &mut Vec<Vec<f64>>,
    n: usize,
) {
    let start = abasis.len();
    if start == basis.len() {
        return;
    }
    let block = cols_to_mat(&basis[start..], n);
    let mut out = Mat::zeros(n, block.ncols());
    a_op.apply_block(&block, &mut out);
    for j in 0..out.ncols() {
        abasis.push(out.col(j).to_vec());
    }
}

fn cols_to_mat(cols: &[Vec<f64>], n: usize) -> Mat<f64> {
    let mut m = Mat::zeros(n, cols.len());
    for (j, c) in cols.iter().enumerate() {
        m.col_mut(j).copy_from_slice(c);
    }
    m
}

/// `W·x = Mᵀ·K_inv⁻¹·M·x` for `J = I`, composed entirely from the two
/// shifted factors and one explicit sparse `K_ref`:
/// `M x = K_ref·M⁻ᵀx` and `Mᵀ y = M⁻¹·K_ref·y`.
fn apply_w(f_ref: &GFactor, f_inv: &GFactor, k_ref_mat: &CscMat<f64>, x: &Mat<f64>) -> Mat<f64> {
    let t1 = f_ref.apply_minv_t_mat(x);
    let t2 = k_ref_mat.matmul(&t1);
    let t3 = f_inv.apply_minv_mat(&t2);
    let t4 = f_inv.apply_minv_t_mat(&t3);
    let t5 = k_ref_mat.matmul(&t4);
    f_ref.apply_minv_mat(&t5)
}

/// One extended-Krylov expansion: apply `A` to the forward frontier and
/// `W` to the inverse frontier, orthonormalize both into the basis, and
/// mirror the new columns into `abasis`. Returns `false` when nothing
/// survived deflation (the subspace is invariant).
#[allow(clippy::too_many_arguments)]
fn grow(
    a_op: &KrylovOperator<'_>,
    f_ref: &GFactor,
    f_inv: Option<&GFactor>,
    k_ref_mat: &CscMat<f64>,
    basis: &mut Vec<Vec<f64>>,
    abasis: &mut Vec<Vec<f64>>,
    fwd: &mut Vec<Vec<f64>>,
    inv: &mut Vec<Vec<f64>>,
    tol: f64,
    cap: usize,
    n: usize,
) -> bool {
    let before = basis.len();
    if !fwd.is_empty() {
        let block = cols_to_mat(fwd, n);
        let mut out = Mat::zeros(n, block.ncols());
        a_op.apply_block(&block, &mut out);
        let added = orthonormalize_into(basis, &out, tol, cap);
        *fwd = basis[basis.len() - added..].to_vec();
    }
    if let Some(f_inv) = f_inv {
        if !inv.is_empty() {
            let block = cols_to_mat(inv, n);
            let out = apply_w(f_ref, f_inv, k_ref_mat, &block);
            let added = orthonormalize_into(basis, &out, tol, cap);
            *inv = basis[basis.len() - added..].to_vec();
        }
    } else {
        inv.clear();
    }
    let added = basis.len() - before;
    if added == 0 {
        return false;
    }
    mpvl_obs::counter_add("balanced", "basis_columns", added as u64);
    extend_abasis(a_op, basis, abasis, n);
    true
}

/// Solves the projected Lyapunov equation on the current basis, ranks
/// directions by Hankel singular value, truncates, and (under the band
/// rule) assembles the candidate reduced model.
#[allow(clippy::too_many_arguments)]
fn candidate(
    sys: &MnaSystem,
    opts: &BtOptions,
    f_ref: &GFactor,
    basis: &[Vec<f64>],
    abasis: &[Vec<f64>],
    r: &Mat<f64>,
    s_ref: f64,
    rule: &StopRule,
) -> Result<Candidate, SympvlError> {
    let _span = mpvl_obs::span("balanced", "lyapunov");
    mpvl_obs::counter_add("balanced", "lyapunov_solves", 1);
    let n = sys.dim();
    let p = sys.num_ports();
    let m = basis.len();
    let v_mat = cols_to_mat(basis, n);
    let av_mat = cols_to_mat(abasis, n);

    // A_h = VᵀAV, symmetrized against matvec roundoff.
    let a_raw = v_mat.t_matmul(&av_mat);
    let a_h = Mat::from_fn(m, m, |i, j| 0.5 * (a_raw[(i, j)] + a_raw[(j, i)]));
    let r_h = v_mat.t_matmul(r);

    // Diagonalize and solve ΘY' + Y'Θ = R'R'ᵀ entrywise, excluding the
    // static nullspace of A (those directions carry feedthrough, not
    // Hankel content).
    let eig = sym_eigen(&a_h).map_err(|_| SympvlError::Eigen {
        reason: "eigendecomposition of the projected operator did not converge".to_string(),
    })?;
    let theta = &eig.values; // ascending, ≥ 0 up to roundoff
    let theta_max = theta.last().copied().unwrap_or(0.0).max(0.0);
    let theta_cut = theta_max * THETA_DROP;
    let rp = eig.vectors.t_matmul(&r_h);
    let yp = Mat::from_fn(m, m, |i, j| {
        if theta[i] > theta_cut && theta[j] > theta_cut {
            let rr: f64 = (0..p).map(|c| rp[(i, c)] * rp[(j, c)]).sum();
            rr / (theta[i] + theta[j])
        } else {
            0.0
        }
    });
    // Y = S·Y'·Sᵀ back in basis coordinates.
    let sy = eig.vectors.matmul(&yp);
    let y = Mat::from_fn(m, m, |i, j| {
        (0..m)
            .map(|k| sy[(i, k)] * eig.vectors[(j, k)])
            .sum::<f64>()
    });

    // Square root Y = ZZᵀ, dropping the numerical nullspace.
    let eig_y = sym_eigen(&y).map_err(|_| SympvlError::Eigen {
        reason: "eigendecomposition of the projected Gramian did not converge".to_string(),
    })?;
    let mu_max = eig_y.values.last().copied().unwrap_or(0.0).max(0.0);
    let z_cols: Vec<usize> = (0..m)
        .rev()
        .filter(|&i| eig_y.values[i] > mu_max * GRAMIAN_DROP && eig_y.values[i] > 0.0)
        .collect();
    let k = z_cols.len();
    let mut z_small = Mat::zeros(m, k);
    for (t, &i) in z_cols.iter().enumerate() {
        let w = eig_y.values[i].sqrt();
        let src = eig_y.vectors.col(i);
        let dst = z_small.col_mut(t);
        for (d, s) in dst.iter_mut().zip(src) {
            *d = w * s;
        }
    }

    // Hankel singular values: eigenvalues of ZᵀA_hZ (the symmetric
    // specialization of the Cholesky-factor cross-product SVD).
    let az = a_h.matmul(&z_small);
    let cross_raw = z_small.t_matmul(&az);
    let cross = Mat::from_fn(k, k, |i, j| 0.5 * (cross_raw[(i, j)] + cross_raw[(j, i)]));
    let eig_c = sym_eigen(&cross).map_err(|_| SympvlError::Eigen {
        reason: "eigendecomposition of the Gramian cross product did not converge".to_string(),
    })?;
    // Descending, clamped at zero.
    let hankel: Vec<f64> = (0..k).rev().map(|i| eig_c.values[i].max(0.0)).collect();

    // Static (feedthrough) directions: the component of each port
    // column inside the numerical null space of the projected operator.
    // Keeping exactly this component — rather than the raw port block —
    // leaves the dynamic directions a *pure* balanced truncation (the
    // two blocks are A-orthogonal eigenspaces, so the projected pencil
    // decouples), which is what makes the 2·Σ_tail bound hold.
    let mut static_cols = Mat::zeros(m, p);
    for c in 0..p {
        let dst = static_cols.col_mut(c);
        for (i, &th) in theta.iter().enumerate() {
            if th <= theta_cut {
                let coef: f64 = (0..m)
                    .map(|row| eig.vectors[(row, i)] * r_h[(row, c)])
                    .sum();
                for row in 0..m {
                    dst[row] += coef * eig.vectors[(row, i)];
                }
            }
        }
    }
    let r_scale = (0..p).map(|c| norm2(r_h.col(c))).fold(0.0f64, f64::max);
    let live_static: Vec<usize> = (0..p)
        .filter(|&c| norm2(static_cols.col(c)) > 1e-13 * r_scale)
        .collect();
    let n_static = live_static.len();

    let kept = match opts.order {
        Some(q) => k.min(q.saturating_sub(n_static)),
        None => {
            let top = hankel.first().copied().unwrap_or(0.0);
            hankel
                .iter()
                .take_while(|&&s| s > opts.hsv_tol * top)
                .count()
        }
    };
    let hankel_bound = 2.0 * hankel[kept..].iter().sum::<f64>();

    let model = match rule {
        StopRule::Spectrum => None,
        StopRule::Band => {
            // Selected directions in basis coordinates: the live static
            // columns plus the kept balanced directions Z·U.
            let mut sel = Mat::zeros(m, n_static + kept);
            for (t, &c) in live_static.iter().enumerate() {
                sel.col_mut(t).copy_from_slice(static_cols.col(c));
            }
            for t in 0..kept {
                let u = eig_c.vectors.col(k - 1 - t);
                let dst = sel.col_mut(n_static + t);
                for i in 0..m {
                    let mut acc = 0.0;
                    for (j, &uj) in u.iter().enumerate() {
                        acc += z_small[(i, j)] * uj;
                    }
                    dst[i] = acc;
                }
            }
            // Physical coordinates X = M⁻ᵀ(V·sel), then the shared
            // congruence-projection assembly.
            let x = f_ref.apply_minv_t_mat(&v_mat.matmul(&sel));
            Some(assemble_merged(sys, &x, opts.basis_tol, s_ref)?)
        }
    };

    Ok(Candidate {
        model,
        hankel,
        hankel_bound,
        kept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{certify, sympvl, Certificate, Shift, SympvlOptions};
    use mpvl_circuit::generators::{
        interconnect, package, peec, rc_ladder, InterconnectParams, PackageParams, PeecParams,
    };
    use mpvl_la::Complex64;

    fn log_probes(f_lo: f64, f_hi: f64, count: usize) -> Vec<f64> {
        let (l0, l1) = (f_lo.ln(), f_hi.ln());
        (0..count)
            .map(|i| (l0 + (l1 - l0) * i as f64 / (count - 1) as f64).exp())
            .collect()
    }

    fn worst_band_abs_error(sys: &MnaSystem, model: &ReducedModel, freqs: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for &f in freqs {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zx = sys.dense_z(s).unwrap();
            let z = model.eval(s).unwrap();
            worst = worst.max((&z - &zx).max_abs());
        }
        worst
    }

    #[test]
    fn rc_ladder_bound_holds_on_band_grid() {
        let sys = MnaSystem::assemble(&rc_ladder(60, 50.0, 1e-12)).unwrap();
        let (f_lo, f_hi) = (1e6, 1e9);
        let s_ref = expansion_shift(f_lo, sys.s_power);
        let opts = BtOptions::for_band(f_lo, f_hi)
            .unwrap()
            .with_order(6)
            .unwrap();
        let out = reduce_balanced(&sys, &opts).unwrap();
        assert!(out.converged, "frequency-aware criterion should converge");
        assert!(out.model.order() <= 6);
        assert!(out.kept > 0 && !out.hankel.is_empty());
        assert!(out.hankel_bound > 0.0, "a truncated tail must remain");
        // The 2·Σ_tail bound, asserted where it lives: on the shifted
        // axis σ = s_ref + j2πf, sampled over the band's frequencies.
        // 1.25x slack absorbs the low-rank Gramian truncation.
        let mut worst_axis = 0.0f64;
        for &f in &log_probes(f_lo, f_hi, 33) {
            let s = Complex64::new(s_ref, 2.0 * std::f64::consts::PI * f);
            let zx = sys.dense_z(s).unwrap();
            let zm = out.model.eval(s).unwrap();
            worst_axis = worst_axis.max((&zm - &zx).max_abs());
        }
        assert!(
            worst_axis <= 1.25 * out.hankel_bound,
            "axis error {worst_axis:.3e} vs Hankel bound {:.3e}",
            out.hankel_bound
        );
        // On the physical band line (a DC-open ladder has a pole
        // exactly on it, so the bound only holds up to a geometry
        // factor) the model is still uniformly accurate in the
        // relative sense.
        let mut worst_rel = 0.0f64;
        for &f in &log_probes(f_lo, f_hi, 33) {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zx = sys.dense_z(s).unwrap();
            let zm = out.model.eval(s).unwrap();
            worst_rel = worst_rel.max((&zm - &zx).max_abs() / zx.max_abs().max(1e-300));
        }
        assert!(
            worst_rel < 5e-2,
            "physical band relative error {worst_rel:.3e}"
        );
    }

    #[test]
    fn interconnect_band_error_tracks_hankel_bound() {
        // Grounded RC trees have no poles below the band, so the
        // physical band line stays clear of the spectrum and the axis
        // bound carries over with a small geometry factor.
        let sys = MnaSystem::assemble(&interconnect(&InterconnectParams {
            wires: 3,
            segments: 12,
            coupling_reach: 2,
            ..InterconnectParams::default()
        }))
        .unwrap();
        let (f_lo, f_hi) = (1e7, 1e10);
        let opts = BtOptions::for_band(f_lo, f_hi)
            .unwrap()
            .with_order(10)
            .unwrap();
        let out = reduce_balanced(&sys, &opts).unwrap();
        let err = worst_band_abs_error(&sys, &out.model, &log_probes(f_lo, f_hi, 33));
        assert!(
            err <= 4.0 * out.hankel_bound,
            "band error {err:.3e} vs Hankel bound {:.3e}",
            out.hankel_bound
        );
    }

    #[test]
    fn hankel_values_are_sorted_and_bound_shrinks_with_order() {
        let sys = MnaSystem::assemble(&interconnect(&InterconnectParams {
            wires: 3,
            segments: 12,
            coupling_reach: 2,
            ..InterconnectParams::default()
        }))
        .unwrap();
        let base = BtOptions::for_band(1e7, 1e10).unwrap();
        let small = reduce_balanced(&sys, &base.clone().with_order(6).unwrap()).unwrap();
        let large = reduce_balanced(&sys, &base.with_order(12).unwrap()).unwrap();
        for w in small.hankel.windows(2) {
            assert!(w[0] >= w[1], "HSVs must be descending");
        }
        assert!(
            large.hankel_bound <= small.hankel_bound,
            "keeping more directions cannot grow the bound: {:.3e} vs {:.3e}",
            large.hankel_bound,
            small.hankel_bound
        );
    }

    #[test]
    fn peec_lc_system_is_accepted_and_accurate() {
        // The strongly-coupled inductive case: J = I with s_power = 2.
        let sys = peec(&PeecParams::default()).system;
        let (f_lo, f_hi) = (1e8, 1e10);
        let opts = BtOptions::for_band(f_lo, f_hi)
            .unwrap()
            .with_order(16)
            .unwrap();
        let out = reduce_balanced(&sys, &opts).unwrap();
        assert!(out.model.guarantees_passivity());
        // A lossless LC structure has poles exactly on the evaluation
        // contour, so relative error *at* resonance measures pole
        // mismatch, not model quality. Evaluate on a lightly damped
        // contour s = ω(0.05 + j) — a Q ≈ 10 measurement — where the
        // transfer function is smooth.
        let probes = log_probes(f_lo, f_hi, 21);
        let mut worst = 0.0f64;
        for &f in &probes {
            let w = 2.0 * std::f64::consts::PI * f;
            let s = Complex64::new(0.05 * w, w);
            let zx = sys.dense_z(s).unwrap();
            let z = out.model.eval(s).unwrap();
            worst = worst.max((&z - &zx).max_abs() / zx.max_abs().max(1e-300));
        }
        assert!(worst < 0.5, "peec damped-contour error {worst:.3e}");
    }

    #[test]
    fn indefinite_pencil_is_rejected_with_typed_error() {
        let sys = MnaSystem::assemble(&package(&PackageParams {
            pins: 4,
            signal_pins: vec![0],
            sections: 3,
            ..PackageParams::default()
        }))
        .unwrap();
        let opts = BtOptions::for_band(1e7, 1e10).unwrap();
        match reduce_balanced(&sys, &opts) {
            Err(SympvlError::RequiresDefiniteForm { operation }) => {
                assert_eq!(operation, "balanced truncation");
            }
            other => panic!("expected RequiresDefiniteForm, got {other:?}"),
        }
    }

    #[test]
    fn bt_model_passes_the_shared_certificate_path() {
        let sys = MnaSystem::assemble(&rc_ladder(40, 75.0, 2e-12)).unwrap();
        let out = reduce_balanced(
            &sys,
            &BtOptions::for_band(1e6, 1e9)
                .unwrap()
                .with_order(5)
                .unwrap(),
        )
        .unwrap();
        match certify(&out.model, 1e-8).unwrap() {
            Certificate::ProvablyPassive { .. } => {}
            other => panic!("BT model on an RC system must certify, got {other:?}"),
        }
    }

    #[test]
    fn equal_order_bt_beats_pade_on_coupled_lc_band() {
        // The strongly-coupled case BT exists for: on a wide band of
        // the PEEC structure, the band-global Hankel criterion places
        // poles better than a mid-band single-point Padé of the same
        // order. Compared on the lightly damped contour (see above).
        let sys = peec(&PeecParams::default()).system;
        let (f_lo, f_hi) = (1e8, 1e10);
        let q = 16;
        let bt = reduce_balanced(
            &sys,
            &BtOptions::for_band(f_lo, f_hi)
                .unwrap()
                .with_order(q)
                .unwrap(),
        )
        .unwrap();
        let pade = sympvl(
            &sys,
            q,
            &SympvlOptions::new()
                .with_shift(Shift::Value(expansion_shift(
                    (f_lo * f_hi).sqrt(),
                    sys.s_power,
                )))
                .unwrap(),
        )
        .unwrap();
        let probes = log_probes(f_lo, f_hi, 33);
        let mut worst_bt = 0.0f64;
        let mut worst_pade = 0.0f64;
        for &f in &probes {
            let w = 2.0 * std::f64::consts::PI * f;
            let s = Complex64::new(0.02 * w, w);
            let zx = sys.dense_z(s).unwrap();
            let scale = zx.max_abs().max(1e-300);
            worst_bt = worst_bt.max((&bt.model.eval(s).unwrap() - &zx).max_abs() / scale);
            worst_pade = worst_pade.max((&pade.eval(s).unwrap() - &zx).max_abs() / scale);
        }
        assert!(
            worst_bt < worst_pade,
            "BT {worst_bt:.3e} should beat equal-order mid-band Padé {worst_pade:.3e}"
        );
    }

    #[test]
    fn deterministic_across_repeats_and_spectrum_matches() {
        let sys = MnaSystem::assemble(&rc_ladder(50, 60.0, 1e-12)).unwrap();
        let opts = BtOptions::for_band(1e6, 1e9)
            .unwrap()
            .with_order(6)
            .unwrap();
        let a = reduce_balanced(&sys, &opts).unwrap();
        let b = reduce_balanced(&sys, &opts).unwrap();
        assert_eq!(a.hankel, b.hankel, "bit-identical HSVs across repeats");
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 3e7);
        let za = a.model.eval(s).unwrap();
        let zb = b.model.eval(s).unwrap();
        for i in 0..za.nrows() {
            for j in 0..za.ncols() {
                assert_eq!(za[(i, j)].re, zb[(i, j)].re);
                assert_eq!(za[(i, j)].im, zb[(i, j)].im);
            }
        }
        let spec = hankel_spectrum(&sys, &opts).unwrap();
        assert!(!spec.hankel.is_empty() && spec.basis_dim >= a.model.order());
    }

    #[test]
    fn builders_reject_impossible_values() {
        assert!(BtOptions::for_band(1e9, 1e6).is_err());
        assert!(BtOptions::for_band(0.0, 1e9).is_err());
        let ok = BtOptions::for_band(1e6, 1e9).unwrap();
        assert!(ok.clone().with_order(0).is_err());
        assert!(ok.clone().with_tol(0.0).is_err());
        assert!(ok.clone().with_hsv_tol(1.0).is_err());
        assert!(ok.clone().with_max_basis(1).is_err());
        assert!(ok.clone().with_probe_freqs(vec![]).is_err());
        assert!(ok.clone().with_basis_tol(0.0).is_err());
        assert!(ok.with_order(8).is_ok());
    }
}
