//! Adaptive order selection.
//!
//! The paper picks reduction orders by hand ("an approximation of order
//! n = 50 was needed…"; "the reduction level depends on the desired
//! accuracy", §7.2). This module automates that judgement: grow the order
//! until two successive models agree over the target band — the standard
//! practitioner's convergence estimate for Padé-type reductions, where
//! the difference between consecutive orders tracks the true error
//! remarkably well (both are dominated by the first unmatched moments).

use crate::{ReducedModel, SympvlError, SympvlOptions, SympvlRun};
use mpvl_circuit::MnaSystem;
use mpvl_la::Complex64;

/// Options for [`reduce_adaptive`].
///
/// Construct via [`AdaptiveOptions::for_band`] and chain the `with_*`
/// builders; the struct is `#[non_exhaustive]` so options can grow
/// without breaking callers. Impossible values (an empty or inverted
/// band, a zero order step, non-positive tolerances) are rejected at
/// build time, not deep inside the run.
///
/// ```
/// use sympvl::AdaptiveOptions;
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// let opts = AdaptiveOptions::for_band(1e7, 2e9)?
///     .with_tol(1e-5)?
///     .with_max_order(60)?;
/// assert!(AdaptiveOptions::for_band(1e9, 1e9).is_err()); // zero band
/// # let _ = opts;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AdaptiveOptions {
    /// Relative agreement (entrywise, worst over the band) between
    /// consecutive orders that counts as converged.
    pub tol: f64,
    /// First order to try.
    pub initial_order: usize,
    /// Additive order step between attempts (rounded up to a multiple of
    /// the port count internally, so each step adds whole block moments).
    pub order_step: usize,
    /// Hard cap on the order.
    pub max_order: usize,
    /// Frequencies (Hz) at which agreement is measured.
    pub probe_freqs_hz: Vec<f64>,
    /// Reduction options passed through to [`sympvl`](fn@crate::sympvl).
    pub sympvl: SympvlOptions,
}

impl AdaptiveOptions {
    /// Sensible defaults for a band `f_lo..f_hi` (log-spaced probes).
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `0 < f_lo < f_hi` with both
    /// endpoints finite — a zero or inverted band has no frequencies to
    /// probe.
    pub fn for_band(f_lo: f64, f_hi: f64) -> Result<Self, SympvlError> {
        let probe_freqs_hz = band_probes(f_lo, f_hi, 9)?;
        Ok(AdaptiveOptions {
            tol: 1e-4,
            initial_order: 4,
            order_step: 4,
            max_order: 200,
            probe_freqs_hz,
            sympvl: SympvlOptions::default(),
        })
    }

    /// Sets the convergence tolerance.
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

    /// Sets the first order to try.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for order zero.
    pub fn with_initial_order(mut self, initial_order: usize) -> Result<Self, SympvlError> {
        if initial_order == 0 {
            return Err(SympvlError::InvalidOptions {
                reason: "initial order must be at least 1".into(),
            });
        }
        self.initial_order = initial_order;
        Ok(self)
    }

    /// Sets the additive order step between attempts.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a zero step (the loop would
    /// never advance).
    pub fn with_order_step(mut self, order_step: usize) -> Result<Self, SympvlError> {
        if order_step == 0 {
            return Err(SympvlError::InvalidOptions {
                reason: "order step must be at least 1".into(),
            });
        }
        self.order_step = order_step;
        Ok(self)
    }

    /// Sets the hard cap on the order.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a zero cap.
    pub fn with_max_order(mut self, max_order: usize) -> Result<Self, SympvlError> {
        if max_order == 0 {
            return Err(SympvlError::InvalidOptions {
                reason: "maximum order must be at least 1".into(),
            });
        }
        self.max_order = max_order;
        Ok(self)
    }

    /// Replaces the probe frequencies (Hz) at which agreement is
    /// measured.
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

    /// Sets the reduction options passed through to [`crate::sympvl`].
    pub fn with_sympvl(mut self, sympvl: SympvlOptions) -> Self {
        self.sympvl = sympvl;
        self
    }
}

/// Outcome of an adaptive reduction.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The converged model.
    pub model: ReducedModel,
    /// Worst entrywise relative difference to the previous order.
    pub estimated_error: f64,
    /// Orders attempted, in sequence.
    pub orders_tried: Vec<usize>,
    /// `true` when the loop stopped at [`AdaptiveOptions::max_order`]
    /// without meeting the tolerance.
    pub hit_order_cap: bool,
}

/// Grows the reduction order until two consecutive models agree to
/// `opts.tol` at every probe frequency (or the cap/exhaustion is hit —
/// an exhausted Krylov space means the model is exact and wins outright).
///
/// # Errors
///
/// Propagates [`sympvl`](fn@crate::sympvl) and evaluation failures.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
/// use sympvl::{reduce_adaptive, AdaptiveOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_ladder(80, 60.0, 1e-12))?;
/// let out = reduce_adaptive(&sys, &AdaptiveOptions::for_band(1e7, 2e9)?)?;
/// assert!(out.estimated_error <= 1e-4);
/// assert!(out.model.order() < sys.dim());
/// # Ok(())
/// # }
/// ```
pub fn reduce_adaptive(
    sys: &MnaSystem,
    opts: &AdaptiveOptions,
) -> Result<AdaptiveOutcome, SympvlError> {
    let mut run = SympvlRun::new(sys, &opts.sympvl)?;
    reduce_adaptive_with(sys, opts, &mut run)
}

/// The adaptive loop on an existing [`SympvlRun`] — each order step
/// *continues* the retained Lanczos state (one factorization, no
/// repeated Krylov steps), yet every intermediate model is bit-identical
/// to a cold [`crate::sympvl`] call, so the convergence decisions — and
/// the final model — match the from-scratch loop exactly. The session
/// engine calls this against its cached run states.
pub fn reduce_adaptive_with(
    sys: &MnaSystem,
    opts: &AdaptiveOptions,
    run: &mut SympvlRun,
) -> Result<AdaptiveOutcome, SympvlError> {
    assert!(!opts.probe_freqs_hz.is_empty(), "need probe frequencies");
    let _span = mpvl_obs::span("adaptive", "reduce_adaptive");
    let p = sys.num_ports().max(1);
    let step = opts.order_step.max(1).div_ceil(p) * p;
    // Clamp the starting order to the cap: without the clamp an
    // `initial_order` above `max_order` built (and could return) a model
    // that exceeds the cap the caller asked for.
    let mut order = opts.initial_order.max(1).min(opts.max_order);
    let mut orders_tried = vec![order];
    let mut prev = run.model_at(sys, order)?;
    loop {
        if prev.is_exact() || prev.order() < order {
            // Krylov space exhausted: the model is as good as it gets.
            mpvl_obs::counter_add("adaptive", "exhausted_exact", 1);
            return Ok(AdaptiveOutcome {
                estimated_error: 0.0,
                model: prev,
                orders_tried,
                hit_order_cap: false,
            });
        }
        let next_order = (order + step).min(opts.max_order);
        if next_order == order {
            mpvl_obs::counter_add("adaptive", "order_cap_hits", 1);
            return Ok(AdaptiveOutcome {
                estimated_error: f64::INFINITY,
                model: prev,
                orders_tried,
                hit_order_cap: true,
            });
        }
        let next = run.model_at(sys, next_order)?;
        orders_tried.push(next_order);
        let diff = band_difference(&prev, &next, &opts.probe_freqs_hz)?;
        if mpvl_obs::enabled() {
            mpvl_obs::counter_add("adaptive", "order_steps", 1);
            mpvl_obs::event_at(
                "adaptive",
                "order_step",
                (orders_tried.len() - 1) as u64,
                vec![
                    ("order", mpvl_obs::Value::U64(next_order as u64)),
                    ("band_error", mpvl_obs::Value::F64(diff)),
                ],
            );
        }
        if diff <= opts.tol {
            return Ok(AdaptiveOutcome {
                model: next,
                estimated_error: diff,
                orders_tried,
                hit_order_cap: false,
            });
        }
        if next_order >= opts.max_order {
            mpvl_obs::counter_add("adaptive", "order_cap_hits", 1);
            return Ok(AdaptiveOutcome {
                model: next,
                estimated_error: diff,
                orders_tried,
                hit_order_cap: true,
            });
        }
        order = next_order;
        prev = next;
    }
}

/// Relative disagreement between two models at one frequency, or `None`
/// when either model has a pole there (a probe that happens to hit a
/// pole carries no convergence information). This is the per-probe form
/// of the band signal; multi-point placement uses it to locate *where*
/// on the band two expansion points disagree most.
pub(crate) fn difference_at(
    a: &ReducedModel,
    b: &ReducedModel,
    freq_hz: f64,
) -> Result<Option<f64>, SympvlError> {
    let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * freq_hz);
    let za = match a.eval(s) {
        Ok(z) => z,
        Err(SympvlError::Singular { .. }) => return Ok(None), // pole hit
        Err(e) => return Err(e),
    };
    let zb = match b.eval(s) {
        Ok(z) => z,
        Err(SympvlError::Singular { .. }) => return Ok(None),
        Err(e) => return Err(e),
    };
    let scale = zb.max_abs().max(1e-300);
    Ok(Some((&za - &zb).max_abs() / scale))
}

/// `probes` log-spaced probe frequencies over `f_lo..f_hi`, the default
/// grid of every `for_band` builder.
///
/// # Errors
///
/// [`SympvlError::InvalidOptions`] unless `0 < f_lo < f_hi` with both
/// endpoints finite.
pub(crate) fn band_probes(f_lo: f64, f_hi: f64, probes: usize) -> Result<Vec<f64>, SympvlError> {
    if !(f_lo.is_finite() && f_hi.is_finite() && f_lo > 0.0 && f_hi > f_lo) {
        return Err(SympvlError::InvalidOptions {
            reason: format!("need a finite positive band with f_hi > f_lo, got {f_lo}..{f_hi}"),
        });
    }
    Ok(mpvl_sim::log_space(f_lo, f_hi, probes))
}

/// The check every `with_probe_freqs` applies to a replacement list.
///
/// # Errors
///
/// [`SympvlError::InvalidOptions`] when the list is empty or any
/// frequency is non-finite or not positive.
pub(crate) fn check_probe_freqs(probe_freqs_hz: &[f64]) -> Result<(), SympvlError> {
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
    Ok(())
}

/// Worst entrywise relative difference between two models over the probes.
pub(crate) fn band_difference(
    a: &ReducedModel,
    b: &ReducedModel,
    freqs: &[f64],
) -> Result<f64, SympvlError> {
    Ok(band_disagreement(a, b, freqs)?.0)
}

/// Worst entrywise relative difference between two models over the
/// probes, with the probe frequency where it occurs. Probes that land
/// on a pole of either model are skipped; if every probe does, the
/// disagreement is reported as zero at the first probe.
pub fn band_disagreement(
    a: &ReducedModel,
    b: &ReducedModel,
    freqs: &[f64],
) -> Result<(f64, f64), SympvlError> {
    let mut worst = 0.0f64;
    let mut worst_f = freqs.first().copied().unwrap_or(0.0);
    for &f in freqs {
        if let Some(d) = difference_at(a, b, f)? {
            if d > worst {
                worst = d;
                worst_f = f;
            }
        }
    }
    Ok((worst, worst_f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::{interconnect, random_rc, InterconnectParams};

    #[test]
    fn converges_and_is_actually_accurate() {
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 20,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = AdaptiveOptions::for_band(1e7, 5e9)
            .unwrap()
            .with_tol(1e-5)
            .unwrap();
        let out = reduce_adaptive(&sys, &opts).unwrap();
        assert!(!out.hit_order_cap, "orders tried {:?}", out.orders_tried);
        assert!(out.orders_tried.len() >= 2);
        // The convergence estimate must predict true accuracy within ~100x.
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let zx = sys.dense_z(s).unwrap();
        let z = out.model.eval(s).unwrap();
        let true_err = (&z - &zx).max_abs() / zx.max_abs();
        assert!(
            true_err < out.estimated_error * 100.0 + 1e-9,
            "estimate {} vs true {}",
            out.estimated_error,
            true_err
        );
        assert!(true_err < 1e-3);
    }

    #[test]
    fn small_system_exhausts_and_returns_exact() {
        let sys = MnaSystem::assemble(&random_rc(5, 6, 1)).unwrap();
        let opts = AdaptiveOptions::for_band(1e7, 1e9)
            .unwrap()
            .with_initial_order(2)
            .unwrap()
            .with_order_step(2)
            .unwrap();
        let out = reduce_adaptive(&sys, &opts).unwrap();
        assert!(out.model.order() <= sys.dim());
        assert!(!out.hit_order_cap);
    }

    #[test]
    fn order_cap_is_reported() {
        let ckt = interconnect(&InterconnectParams {
            wires: 4,
            segments: 30,
            coupling_reach: 3,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = AdaptiveOptions::for_band(1e7, 5e9)
            .unwrap()
            .with_tol(1e-14) // unreachably tight
            .unwrap()
            .with_max_order(12)
            .unwrap();
        let out = reduce_adaptive(&sys, &opts).unwrap();
        assert!(out.hit_order_cap);
        assert!(out.model.order() <= 12);
    }

    #[test]
    fn convergence_exactly_at_max_order_is_not_a_cap_hit() {
        // Regression for the max_order boundary: when the tolerance is
        // first met by the model built at exactly `max_order`, that
        // model must have been built *and compared* — the outcome is
        // converged, never `hit_order_cap: true`.
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 20,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = AdaptiveOptions::for_band(1e7, 5e9)
            .unwrap()
            .with_tol(1e-5)
            .unwrap();
        // Learn where this configuration converges with a generous cap…
        let free = reduce_adaptive(&sys, &opts).unwrap();
        assert!(!free.hit_order_cap);
        let converged_order = *free.orders_tried.last().unwrap();
        // …then pin the cap to exactly that order and rerun.
        let capped_opts = opts.clone().with_max_order(converged_order).unwrap();
        let capped = reduce_adaptive(&sys, &capped_opts).unwrap();
        assert!(
            !capped.hit_order_cap,
            "convergence at exactly max_order misreported as a cap hit \
             (orders {:?})",
            capped.orders_tried
        );
        assert_eq!(capped.model.order(), converged_order);
        assert_eq!(capped.estimated_error, free.estimated_error);
    }

    #[test]
    fn initial_order_above_cap_is_clamped() {
        let ckt = interconnect(&InterconnectParams {
            wires: 4,
            segments: 30,
            coupling_reach: 3,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = AdaptiveOptions::for_band(1e7, 5e9)
            .unwrap()
            .with_initial_order(40)
            .unwrap()
            .with_max_order(12)
            .unwrap();
        let out = reduce_adaptive(&sys, &opts).unwrap();
        // The first (and only) order tried is the cap, not the oversized
        // initial order, and the returned model respects the cap.
        assert_eq!(out.orders_tried, vec![12]);
        assert!(out.model.order() <= 12);
        assert!(out.hit_order_cap);
        // A cap hit without a comparison cannot claim convergence.
        assert!(out.estimated_error > opts.tol);
    }

    #[test]
    fn cap_hits_never_claim_convergence() {
        // Sweep a range of caps; whenever hit_order_cap is reported the
        // estimated error must exceed the tolerance (i.e. `hit_max:
        // true` is never paired with a converged outcome).
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 20,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        for cap in [3usize, 6, 9, 12, 15, 18] {
            let opts = AdaptiveOptions::for_band(1e7, 5e9)
                .unwrap()
                .with_tol(1e-5)
                .unwrap()
                .with_initial_order(3)
                .unwrap()
                .with_order_step(3)
                .unwrap()
                .with_max_order(cap)
                .unwrap();
            let out = reduce_adaptive(&sys, &opts).unwrap();
            assert!(out.model.order() <= cap, "cap {cap} violated");
            if out.hit_order_cap {
                assert!(
                    out.estimated_error > opts.tol,
                    "cap {cap}: hit_order_cap paired with converged error {}",
                    out.estimated_error
                );
            }
        }
    }

    #[test]
    fn steps_align_to_port_blocks() {
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 15,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = AdaptiveOptions::for_band(1e7, 1e9)
            .unwrap()
            .with_tol(1e-3)
            .unwrap()
            .with_initial_order(3)
            .unwrap()
            .with_order_step(1) // should round up to p = 3
            .unwrap();
        let out = reduce_adaptive(&sys, &opts).unwrap();
        for w in out.orders_tried.windows(2) {
            assert_eq!((w[1] - w[0]) % 3, 0, "orders {:?}", out.orders_tried);
        }
    }
}
