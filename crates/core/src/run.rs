//! A resumable SyMPVL reduction: one factorization, many orders.
//!
//! [`SympvlRun`] pairs the (expensive) `G + s₀C = M J Mᵀ` factorization
//! with a paused [`BlockLanczos`] state, so escalating the reduction
//! order continues the Krylov process instead of recomputing it — the
//! machinery behind both the incremental [`crate::reduce_adaptive`]
//! loop and the session engine's order escalation. Every model it
//! produces is **bit-identical** to a cold [`crate::sympvl`] call at
//! the same order (see [`BlockLanczos`] for the argument; pinned by the
//! `run_matches_sympvl` tests below and the golden fingerprints).

use crate::lanczos::BlockLanczos;
use crate::reduce::{assemble_model, factor_target, factor_with_options_via, FactorTarget};
use crate::{GFactor, KrylovOperator, LanczosOutcome, ReducedModel, SympvlError, SympvlOptions};
use mpvl_circuit::MnaSystem;
use mpvl_la::Mat;
use std::sync::Arc;

/// A SyMPVL reduction with retained state, resumable to higher orders.
///
/// Constructed from an [`MnaSystem`] (factoring `G + s₀C` per the shift
/// policy up front), it serves [`SympvlRun::model_at`] requests at any
/// order:
///
/// * order **above** the retained Lanczos state: the process *continues*
///   from where it stopped — no repeated factorization, no repeated
///   Krylov steps;
/// * order **at or below** it: a fresh (cheap) Lanczos pass reusing the
///   retained factorization and starting block.
///
/// The factorization is held behind an [`Arc`] so callers (the session
/// engine's cache) can share it across runs. The system is *not* stored;
/// each call takes `sys` again and must pass the same system the run was
/// constructed from — debug-asserted by dimension.
pub struct SympvlRun {
    factor: Arc<GFactor>,
    shift: f64,
    opts: SympvlOptions,
    j_diag: Vec<f64>,
    /// The starting block `M⁻¹B`, retained for fresh smaller-order passes.
    start: Mat<f64>,
    state: BlockLanczos,
}

impl SympvlRun {
    /// Factors the system per `opts.shift` and seeds the Lanczos state.
    /// No Krylov iteration happens yet.
    pub fn new(sys: &MnaSystem, opts: &SympvlOptions) -> Result<Self, SympvlError> {
        Self::new_via(sys, opts, &mut factor_target)
    }

    /// Like [`SympvlRun::new`], but routes every factorization attempt
    /// through `factor_fn` (see [`crate::factor_with_options_via`]) —
    /// the session engine passes its cache lookup here.
    pub fn new_via<F>(
        sys: &MnaSystem,
        opts: &SympvlOptions,
        factor_fn: &mut F,
    ) -> Result<Self, SympvlError>
    where
        F: FnMut(&MnaSystem, FactorTarget) -> Result<Arc<GFactor>, SympvlError>,
    {
        let (factor, shift) = factor_with_options_via(sys, opts, factor_fn)?;
        let start = factor.apply_minv_mat(&sys.b);
        let j_diag = factor.j_diag();
        let state = BlockLanczos::new(&j_diag, &start, &opts.lanczos);
        Ok(SympvlRun {
            factor,
            shift,
            opts: opts.clone(),
            j_diag,
            start,
            state,
        })
    }

    /// The expansion point `s₀` actually used.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The shared factorization of `G + s₀C`.
    pub fn factor(&self) -> &Arc<GFactor> {
        &self.factor
    }

    /// Highest order the retained Lanczos state has reached so far.
    pub fn reached_order(&self) -> usize {
        self.state.accepted()
    }

    /// `true` once the Krylov space is exhausted: higher orders cannot
    /// add vectors and every further model is the same exact one.
    pub fn is_exhausted(&self) -> bool {
        self.state.is_exhausted()
    }

    /// Produces the order-`order` reduced model, continuing the retained
    /// Lanczos state when `order` is at or above it.
    ///
    /// `sys` must be the system this run was constructed from.
    ///
    /// # Errors
    ///
    /// [`SympvlError::BadOrder`] for `order == 0` or when no vector
    /// survives (empty usable Krylov space).
    pub fn model_at(&mut self, sys: &MnaSystem, order: usize) -> Result<ReducedModel, SympvlError> {
        self.run_to(sys, order, |run, out| {
            assemble_model(sys, &run.factor, run.shift, out, order)
        })
    }

    /// Like [`SympvlRun::model_at`], but also returns the Krylov basis
    /// mapped back to circuit coordinates: `X = M⁻ᵀV`, whose columns
    /// span `{K⁻¹B, (K⁻¹C)K⁻¹B, …}` with `K = G + s₀C`. Multi-point
    /// reduction stacks these per-expansion-point bases and projects
    /// the full system onto their union (congruence projection), so
    /// the merged model interpolates at every expansion point.
    ///
    /// The model is bit-identical to [`SympvlRun::model_at`] at the
    /// same order (both run one resume/fresh-pass routine on the
    /// retained state).
    ///
    /// # Errors
    ///
    /// As [`SympvlRun::model_at`].
    pub fn model_and_basis_at(
        &mut self,
        sys: &MnaSystem,
        order: usize,
    ) -> Result<(ReducedModel, Mat<f64>), SympvlError> {
        self.run_to(sys, order, |run, out| {
            let basis = run.factor.apply_minv_t_mat(&out.v);
            let model = assemble_model(sys, &run.factor, run.shift, out, order)?;
            Ok((model, basis))
        })
    }

    /// Runs the Lanczos process to `order` — a fresh pass below the
    /// retained state, a resume at or above it — and hands the outcome
    /// to `finish`, all inside one `block_lanczos` span.
    fn run_to<T>(
        &mut self,
        sys: &MnaSystem,
        order: usize,
        finish: impl FnOnce(&Self, LanczosOutcome) -> Result<T, SympvlError>,
    ) -> Result<T, SympvlError> {
        if order == 0 {
            return Err(SympvlError::BadOrder { order });
        }
        debug_assert_eq!(sys.dim(), self.factor.dim(), "wrong system for this run");
        let op = KrylovOperator::new(&self.factor, &sys.c);
        let _span = mpvl_obs::span("lanczos", "block_lanczos");
        let out = if order < self.state.accepted() {
            // Below the retained state: outcome() would report the larger
            // order, so run a fresh pass. The factorization and starting
            // block — the expensive parts — are still reused, and a fresh
            // pass is bit-identical to a cold call by construction.
            let mut fresh = BlockLanczos::new(&self.j_diag, &self.start, &self.opts.lanczos);
            fresh.run(&op, order);
            fresh.outcome()
        } else {
            if self.state.accepted() > 0 && order > self.state.accepted() {
                mpvl_obs::counter_add("sympvl_run", "lanczos_resumes", 1);
            }
            self.state.run(&op, order);
            self.state.outcome()
        };
        finish(self, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sympvl;
    use mpvl_circuit::generators::{interconnect, rc_ladder, InterconnectParams};

    fn assert_models_bit_eq(a: &ReducedModel, b: &ReducedModel) {
        for (ma, mb, what) in [
            (a.t_matrix(), b.t_matrix(), "T"),
            (a.delta_matrix(), b.delta_matrix(), "Delta"),
            (a.rho_matrix(), b.rho_matrix(), "rho"),
        ] {
            assert_eq!(ma.nrows(), mb.nrows(), "{what} rows");
            assert_eq!(ma.ncols(), mb.ncols(), "{what} cols");
            for j in 0..ma.ncols() {
                for (i, (x, y)) in ma.col(j).iter().zip(mb.col(j)).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what} at ({i},{j})");
                }
            }
        }
        assert_eq!(a.shift().to_bits(), b.shift().to_bits());
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn escalating_run_matches_cold_sympvl_at_every_order() {
        let sys = MnaSystem::assemble(&rc_ladder(40, 10.0, 1e-12)).unwrap();
        let opts = SympvlOptions::default();
        let mut run = SympvlRun::new(&sys, &opts).unwrap();
        for order in [4, 8, 12] {
            let incremental = run.model_at(&sys, order).unwrap();
            let cold = sympvl(&sys, order, &opts).unwrap();
            assert_models_bit_eq(&incremental, &cold);
        }
        assert_eq!(run.reached_order(), 12);
    }

    #[test]
    fn smaller_order_after_escalation_matches_cold() {
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 12,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let opts = SympvlOptions::default();
        let mut run = SympvlRun::new(&sys, &opts).unwrap();
        let _big = run.model_at(&sys, 12).unwrap();
        // Now ask below the retained order: must still equal a cold call.
        let small = run.model_at(&sys, 6).unwrap();
        let cold = sympvl(&sys, 6, &opts).unwrap();
        assert_models_bit_eq(&small, &cold);
        // And the retained state is still usable above.
        let grown = run.model_at(&sys, 15).unwrap();
        let cold_grown = sympvl(&sys, 15, &opts).unwrap();
        assert_models_bit_eq(&grown, &cold_grown);
    }

    #[test]
    fn model_and_basis_matches_model_at_and_spans_the_krylov_space() {
        let sys = MnaSystem::assemble(&rc_ladder(30, 20.0, 1e-12)).unwrap();
        let opts = SympvlOptions::default();
        let mut a = SympvlRun::new(&sys, &opts).unwrap();
        let mut b = SympvlRun::new(&sys, &opts).unwrap();
        let plain = a.model_at(&sys, 8).unwrap();
        let (with_basis, x) = b.model_and_basis_at(&sys, 8).unwrap();
        assert_models_bit_eq(&plain, &with_basis);
        assert_eq!(x.nrows(), sys.dim());
        assert_eq!(x.ncols(), with_basis.order());
        // X = M⁻ᵀV must contain K⁻¹B (the zeroth Krylov block): check
        // that K·x_col reconstructs combinations lying in span(B)'s
        // first block, via the model's exactness at the expansion
        // point being implied by interpolation — here we just sanity
        // check the basis is full column rank at working precision.
        let q = mpvl_la::orthonormalize_columns(&x, 1e-10);
        assert_eq!(q.ncols(), x.ncols(), "basis should be full rank");
    }

    #[test]
    fn zero_order_rejected_without_touching_state() {
        let sys = MnaSystem::assemble(&rc_ladder(10, 10.0, 1e-12)).unwrap();
        let mut run = SympvlRun::new(&sys, &SympvlOptions::default()).unwrap();
        assert!(matches!(
            run.model_at(&sys, 0),
            Err(SympvlError::BadOrder { order: 0 })
        ));
        assert_eq!(run.reached_order(), 0);
        let m = run.model_at(&sys, 5).unwrap();
        assert_eq!(m.order(), 5);
    }
}
