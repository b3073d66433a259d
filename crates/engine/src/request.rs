//! Request and outcome types for the session engine.
//!
//! All request structs follow the workspace options convention: they are
//! `#[non_exhaustive]`, constructed through chainable `with_*` builders,
//! and impossible values are rejected at build time (a zero order, a
//! non-finite shift or frequency) rather than deep inside the run.
//!
//! The backend-agnostic entry point is [`ReduceSpec`]: one request type
//! carrying *which* reduction algorithm runs ([`Backend`]) next to the
//! by-products to compute ([`Want`]) and an optional cross-validation
//! pass ([`CrossValidateOptions`]).

use sympvl::{
    AdaptiveOptions, BtOptions, Certificate, MultiPointOptions, ReducedModel, Shift, SympvlError,
    SympvlOptions, SynthesisOptions, SynthesizedCircuit,
};

use mpvl_la::{Complex64, Mat};

/// How the reduction order is chosen for one Padé request.
#[derive(Debug, Clone)]
pub enum OrderSpec {
    /// Reduce to exactly this order (subject to Krylov exhaustion).
    Fixed(usize),
    /// Grow the order adaptively until the band criterion converges.
    /// The embedded [`AdaptiveOptions::sympvl`] field is ignored — the
    /// spec-level [`PadeSpec::sympvl`] options are what run.
    Adaptive(AdaptiveOptions),
}

/// Optional by-products to compute alongside the reduced model.
///
/// Defaults to the model alone; chain `with_*` to opt in. Every field
/// is honored uniformly by every [`Backend`]: a balanced-truncation
/// model goes through the same certificate, pole, and synthesis paths
/// a Padé model does.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Want {
    /// Compute the model's poles.
    pub poles: bool,
    /// Run the §5 passivity certificate with this tolerance.
    pub certificate: Option<f64>,
    /// Synthesize an RC netlist realizing the model.
    pub synthesis: Option<SynthesisOptions>,
}

impl Want {
    /// Just the reduced model, no by-products.
    pub fn model_only() -> Self {
        Self::default()
    }

    /// Also compute the model's poles.
    pub fn with_poles(mut self) -> Self {
        self.poles = true;
        self
    }

    /// Also run the passivity certificate ([`sympvl::certify`]) with the
    /// given eigenvalue tolerance.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `tol` is finite and
    /// non-negative.
    pub fn with_certificate(mut self, tol: f64) -> Result<Self, SympvlError> {
        if !(tol.is_finite() && tol >= 0.0) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("certificate tolerance must be finite and non-negative, got {tol}"),
            });
        }
        self.certificate = Some(tol);
        Ok(self)
    }

    /// Also synthesize an RC netlist ([`sympvl::synthesize_rc`]).
    pub fn with_synthesis(mut self, opts: SynthesisOptions) -> Self {
        self.synthesis = Some(opts);
        self
    }
}

/// The single-expansion-point matrix-Padé backend: order policy plus
/// the SyMPVL run options (shift policy, Lanczos tuning).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PadeSpec {
    /// Fixed order or adaptive band.
    pub order: OrderSpec,
    /// Reduction options. For adaptive orders these override the
    /// options embedded in the [`AdaptiveOptions`].
    pub sympvl: SympvlOptions,
}

impl PadeSpec {
    /// A fixed-order Padé reduction with default options.
    ///
    /// # Errors
    ///
    /// [`SympvlError::BadOrder`] for order zero.
    pub fn fixed(order: usize) -> Result<Self, SympvlError> {
        if order == 0 {
            return Err(SympvlError::BadOrder { order });
        }
        Ok(PadeSpec {
            order: OrderSpec::Fixed(order),
            sympvl: SympvlOptions::default(),
        })
    }

    /// An adaptive Padé reduction; the run options are taken from
    /// `opts.sympvl` (override with [`PadeSpec::with_shift`] /
    /// [`PadeSpec::with_sympvl`]).
    pub fn adaptive(opts: AdaptiveOptions) -> Self {
        let sympvl = opts.sympvl.clone();
        PadeSpec {
            order: OrderSpec::Adaptive(opts),
            sympvl,
        }
    }

    /// Sets the expansion-point policy.
    ///
    /// # Errors
    ///
    /// [`SympvlError::BadShift`] for a non-finite explicit shift.
    pub fn with_shift(mut self, shift: Shift) -> Result<Self, SympvlError> {
        self.sympvl = self.sympvl.with_shift(shift)?;
        Ok(self)
    }

    /// Replaces the run options wholesale.
    pub fn with_sympvl(mut self, sympvl: SympvlOptions) -> Self {
        self.sympvl = sympvl;
        self
    }
}

/// Which reduction algorithm a [`ReduceSpec`] runs.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Single-point matrix-Padé via symmetric block Lanczos
    /// ([`sympvl::sympvl`] / [`sympvl::reduce_adaptive`]).
    Pade(PadeSpec),
    /// Multi-point rational Krylov with adaptive point placement
    /// ([`sympvl::reduce_multipoint`]).
    MultiPoint(MultiPointOptions),
    /// Low-rank balanced truncation with Hankel error bounds
    /// ([`sympvl::reduce_balanced`]).
    BalancedTruncation(BtOptions),
}

impl Backend {
    /// The backend's kind tag (drops the per-backend options).
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Pade(_) => BackendKind::Pade,
            Backend::MultiPoint(_) => BackendKind::MultiPoint,
            Backend::BalancedTruncation(_) => BackendKind::BalancedTruncation,
        }
    }
}

/// Backend discriminant without options — used to report which referee
/// ran in a [`CrossValidation`] and to key service registries so
/// models from different algorithms never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`Backend::Pade`].
    Pade,
    /// [`Backend::MultiPoint`].
    MultiPoint,
    /// [`Backend::BalancedTruncation`].
    BalancedTruncation,
}

/// Cross-validation pass: after the primary backend produces its model,
/// run the *other* backend at the same order over this band and report
/// the band-worst disagreement between the two transfer functions.
///
/// A small disagreement is strong evidence both models are right — the
/// two algorithms share no approximation machinery (moment matching vs
/// Gramian truncation), so they do not fail the same way.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CrossValidateOptions {
    /// Low band edge (Hz).
    pub f_lo: f64,
    /// High band edge (Hz).
    pub f_hi: f64,
    /// Frequencies (Hz) at which the two models are compared.
    pub probe_freqs_hz: Vec<f64>,
}

impl CrossValidateOptions {
    /// Cross-validate over `f_lo..f_hi` with 17 log-spaced probes.
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
        Ok(CrossValidateOptions {
            f_lo,
            f_hi,
            probe_freqs_hz: (0..probes)
                .map(|i| (l0 + (l1 - l0) * i as f64 / (probes - 1) as f64).exp())
                .collect(),
        })
    }

    /// Replaces the comparison probe frequencies (Hz).
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] when the list is empty or any
    /// frequency is non-finite or not positive.
    pub fn with_probe_freqs(mut self, probe_freqs_hz: Vec<f64>) -> Result<Self, SympvlError> {
        if probe_freqs_hz.is_empty() {
            return Err(SympvlError::InvalidOptions {
                reason: "need at least one cross-validation probe frequency".into(),
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
}

/// One reduction to perform against a
/// [`ReductionSession`](crate::ReductionSession): backend, by-products,
/// and optional cross-validation.
///
/// ```
/// use mpvl_engine::{CrossValidateOptions, ReduceSpec, Want};
/// use sympvl::{BtOptions, Shift};
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// // Padé, order 12, expanding at 1 GHz, with poles.
/// let pade = ReduceSpec::pade_fixed(12)?
///     .with_shift(Shift::Value(1e9))?
///     .with_want(Want::model_only().with_poles());
/// // Balanced truncation over a band, cross-checked against Padé.
/// let bt = ReduceSpec::balanced(BtOptions::for_band(1e7, 1e10)?.with_order(12)?)
///     .with_cross_validation(CrossValidateOptions::for_band(1e7, 1e10)?);
/// assert!(ReduceSpec::pade_fixed(0).is_err()); // rejected at build
/// # let _ = (pade, bt);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ReduceSpec {
    /// Which reduction algorithm runs, with its options.
    pub backend: Backend,
    /// By-products to compute from the model.
    pub want: Want,
    /// When set, also run the complementary backend at the primary
    /// model's order and report the band-worst disagreement
    /// ([`ReductionOutcome::cross_validation`]).
    pub cross_validate: Option<CrossValidateOptions>,
}

impl ReduceSpec {
    /// Wraps a fully built [`Backend`].
    pub fn new(backend: Backend) -> Self {
        ReduceSpec {
            backend,
            want: Want::default(),
            cross_validate: None,
        }
    }

    /// A fixed-order Padé reduction with default options.
    ///
    /// # Errors
    ///
    /// [`SympvlError::BadOrder`] for order zero.
    pub fn pade_fixed(order: usize) -> Result<Self, SympvlError> {
        Ok(Self::new(Backend::Pade(PadeSpec::fixed(order)?)))
    }

    /// An adaptive Padé reduction (see [`PadeSpec::adaptive`]).
    pub fn pade_adaptive(opts: AdaptiveOptions) -> Self {
        Self::new(Backend::Pade(PadeSpec::adaptive(opts)))
    }

    /// A multi-point rational-Krylov reduction.
    pub fn multipoint(opts: MultiPointOptions) -> Self {
        Self::new(Backend::MultiPoint(opts))
    }

    /// A low-rank balanced-truncation reduction.
    pub fn balanced(opts: BtOptions) -> Self {
        Self::new(Backend::BalancedTruncation(opts))
    }

    /// Sets the Padé expansion-point policy.
    ///
    /// # Errors
    ///
    /// [`SympvlError::BadShift`] for a non-finite explicit shift;
    /// [`SympvlError::InvalidOptions`] when the backend is not
    /// [`Backend::Pade`] (multi-point and balanced-truncation shifts
    /// are derived from their band, not set directly).
    pub fn with_shift(mut self, shift: Shift) -> Result<Self, SympvlError> {
        match &mut self.backend {
            Backend::Pade(pade) => {
                pade.sympvl = pade.sympvl.clone().with_shift(shift)?;
                Ok(self)
            }
            other => Err(SympvlError::InvalidOptions {
                reason: format!(
                    "with_shift applies to the Padé backend only, not {:?}",
                    other.kind()
                ),
            }),
        }
    }

    /// Replaces the Padé run options wholesale.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] when the backend is not
    /// [`Backend::Pade`].
    pub fn with_sympvl(mut self, sympvl: SympvlOptions) -> Result<Self, SympvlError> {
        match &mut self.backend {
            Backend::Pade(pade) => {
                pade.sympvl = sympvl;
                Ok(self)
            }
            other => Err(SympvlError::InvalidOptions {
                reason: format!(
                    "with_sympvl applies to the Padé backend only, not {:?}",
                    other.kind()
                ),
            }),
        }
    }

    /// Selects the by-products to compute.
    pub fn with_want(mut self, want: Want) -> Self {
        self.want = want;
        self
    }

    /// Enables the cross-validation pass.
    pub fn with_cross_validation(mut self, opts: CrossValidateOptions) -> Self {
        self.cross_validate = Some(opts);
        self
    }
}

/// Handle to a reduced model retained by the session, usable in
/// [`EvalRequest`]s without re-reducing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

impl ModelId {
    /// The model's position in the session store. Ids are assigned in
    /// request order (deterministic under any thread count), so this is
    /// stable across reruns of the same request sequence.
    pub fn index(&self) -> usize {
        self.0
    }

    /// The id a session assigns to its first reduction — handy when a
    /// request is built before the reduction runs (ids are deterministic,
    /// assigned in request order starting at zero).
    pub fn first() -> ModelId {
        ModelId(0)
    }
}

/// Convergence bookkeeping from an adaptive request (mirrors
/// [`sympvl::AdaptiveOutcome`] minus the model).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AdaptiveInfo {
    /// Worst entrywise relative difference to the previous order.
    pub estimated_error: f64,
    /// Orders attempted, in sequence.
    pub orders_tried: Vec<usize>,
    /// `true` when the order cap was hit before convergence.
    pub hit_order_cap: bool,
}

/// Placement bookkeeping from a multi-point request (mirrors
/// [`sympvl::MultiPointOutcome`] minus the model).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MultiPointInfo {
    /// Expansion frequencies actually used (Hz, ascending).
    pub point_freqs_hz: Vec<f64>,
    /// The σ-domain shifts corresponding to `point_freqs_hz`.
    pub shifts: Vec<f64>,
    /// Krylov order spent at each point.
    pub per_point_order: usize,
    /// Worst inter-point disagreement over the probes at the final
    /// point set.
    pub estimated_error: f64,
}

/// Error-bound bookkeeping from a balanced-truncation request (mirrors
/// [`sympvl::BalancedOutcome`] minus the model).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BalancedInfo {
    /// Hankel singular values of the projected pencil, descending.
    pub hankel: Vec<f64>,
    /// `2·Σ σᵢ` over the truncated tail — the a-priori error bound on
    /// the shifted axis (see [`sympvl::BalancedOutcome::hankel_bound`]).
    pub hankel_bound: f64,
    /// Extended-Krylov basis dimension at convergence.
    pub basis_dim: usize,
    /// Basis growth iterations taken.
    pub iterations: usize,
    /// `false` when the basis cap stopped growth before the band
    /// criterion converged.
    pub converged: bool,
    /// Worst relative band disagreement between the last two candidate
    /// models (the convergence signal).
    pub estimated_band_error: f64,
}

/// Result of a [`ReduceSpec::with_cross_validation`] pass: how far the
/// complementary backend's equal-order model strays from the primary
/// model over the band probes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CrossValidation {
    /// Band-worst relative disagreement between the two models.
    pub disagreement: f64,
    /// Probe frequency (Hz) where the worst disagreement occurs.
    pub at_freq_hz: f64,
    /// Which backend served as the referee.
    pub referee: BackendKind,
    /// The referee model's order.
    pub referee_order: usize,
}

/// Result of one [`ReduceSpec`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ReductionOutcome {
    /// Handle for evaluating this model through the session later.
    pub model_id: ModelId,
    /// The reduced model itself.
    pub model: ReducedModel,
    /// Present for adaptive Padé requests.
    pub adaptive: Option<AdaptiveInfo>,
    /// Present for multi-point requests.
    pub multipoint: Option<MultiPointInfo>,
    /// Present for balanced-truncation requests.
    pub balanced: Option<BalancedInfo>,
    /// Present when [`ReduceSpec::cross_validate`] was set.
    pub cross_validation: Option<CrossValidation>,
    /// Present when [`Want::poles`] was set.
    pub poles: Option<Vec<Complex64>>,
    /// Present when [`Want::certificate`] was set.
    pub certificate: Option<Certificate>,
    /// Present when [`Want::synthesis`] was set.
    pub synthesis: Option<SynthesizedCircuit>,
}

/// A frequency-sweep evaluation of a session-retained reduced model.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EvalRequest {
    /// Which model to evaluate.
    pub model: ModelId,
    /// Frequencies (Hz) to evaluate at, `s = j·2πf`.
    pub freqs_hz: Vec<f64>,
}

impl EvalRequest {
    /// Builds an evaluation request.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] when the frequency list is empty
    /// or contains a non-finite entry (DC, `f = 0`, is allowed).
    pub fn new(model: ModelId, freqs_hz: Vec<f64>) -> Result<Self, SympvlError> {
        if freqs_hz.is_empty() {
            return Err(SympvlError::InvalidOptions {
                reason: "need at least one evaluation frequency".into(),
            });
        }
        if let Some(&bad) = freqs_hz.iter().find(|f| !f.is_finite()) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("evaluation frequencies must be finite, got {bad}"),
            });
        }
        Ok(EvalRequest { model, freqs_hz })
    }

    /// Builds a log-spaced sweep request through the validated
    /// [`mpvl_sim::FreqGrid`] helper.
    ///
    /// ```
    /// use mpvl_engine::{EvalRequest, ModelId};
    /// # fn main() -> Result<(), sympvl::SympvlError> {
    /// let req = EvalRequest::log_sweep(ModelId::first(), 1e6, 1e10, 201)?;
    /// assert_eq!(req.freqs_hz.len(), 201);
    /// assert!(EvalRequest::log_sweep(ModelId::first(), -1.0, 1e10, 201).is_err());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `0 < f_lo <= f_hi` (finite)
    /// and `points >= 1` (see [`mpvl_sim::FreqGrid::log`]; a degenerate
    /// span collapses to a single point).
    pub fn log_sweep(
        model: ModelId,
        f_lo: f64,
        f_hi: f64,
        points: usize,
    ) -> Result<Self, SympvlError> {
        let grid = mpvl_sim::FreqGrid::log(f_lo, f_hi, points).map_err(|e| {
            SympvlError::InvalidOptions {
                reason: e.to_string(),
            }
        })?;
        Ok(EvalRequest {
            model,
            freqs_hz: grid.into_vec(),
        })
    }
}

/// One evaluated frequency point of a reduced model.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// Frequency in Hz.
    pub freq_hz: f64,
    /// The `p × p` reduced impedance matrix `Zₙ(j·2πf)`.
    pub z: Mat<Complex64>,
}

/// Result of one [`EvalRequest`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EvalOutcome {
    /// The model that was evaluated.
    pub model: ModelId,
    /// One point per requested frequency, in request order.
    pub points: Vec<EvalPoint>,
}
