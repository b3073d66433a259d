//! The reduction session: one system, many requests.
//!
//! # Lock discipline
//!
//! The session guards three independent pieces of mutable state, each
//! behind its own mutex: the factorization cache (`factors`), the
//! paused-run pool (`runs`) and the model store (`store`). Whenever
//! more than one lock must be held at once they are acquired in exactly
//! that order —
//!
//! > `factors` → `runs` → `store`
//!
//! — which makes deadlock impossible by construction. Today only
//! [`ReductionSession::cache_stats`] holds several at a time: it takes
//! all three simultaneously so the snapshot it returns is
//! *consistent* (every number describes the same instant, not a torn
//! read across concurrent requests).
//!
//! All acquisitions go through [`relock`], which recovers from mutex
//! poisoning instead of propagating it: a request that panics (an
//! application bug caught by `catch_unwind` at a service boundary)
//! must not brick the session for every later caller. Recovery is
//! sound here because each guarded structure is valid after any
//! partial mutation — a panic can at worst lose one entry's worth of
//! cached work, never a structural invariant.

use crate::cache::{CacheStats, FactorCache, FactorKey, Lru};
use crate::request::{
    AdaptiveInfo, Backend, BalancedInfo, CrossValidateOptions, CrossValidation, EvalOutcome,
    EvalPoint, EvalRequest, ModelId, MultiPointInfo, OrderSpec, ReduceSpec, ReductionOutcome,
};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use sympvl::{
    band_disagreement, expansion_shift, factor_target, reduce_adaptive_with, reduce_balanced_via,
    reduce_multipoint_with, BtOptions, EvalPlan, EvalWorkspace, FactorTarget, GFactor,
    MultiPointOptions, ReducedModel, RunProvider, Shift, SympvlError, SympvlOptions, SympvlRun,
};

/// Locks `m`, recovering from poison (see the module-level lock
/// discipline): the guarded session state is valid after any partial
/// mutation, so a panic under a lock must not turn every later request
/// into a `PoisonError` unwrap.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resource bounds for a [`ReductionSession`].
///
/// `#[non_exhaustive]` with chainable `with_*` builders, like every
/// options struct in the workspace; zero capacities are rejected at
/// build time.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SessionOptions {
    /// Most factorizations (successes and cached failures) kept, LRU.
    pub max_cached_factors: usize,
    /// Most paused Lanczos run states kept, LRU.
    pub max_retained_runs: usize,
    /// Most reduced models (with their compiled eval plans) retained
    /// for later [`crate::EvalRequest`]s, LRU. Evicted ids are retired
    /// permanently — see [`SympvlError::ModelEvicted`].
    pub max_retained_models: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_cached_factors: 8,
            max_retained_runs: 8,
            max_retained_models: 32,
        }
    }
}

impl SessionOptions {
    /// Starts from the defaults (8 factors, 8 runs, 32 models).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the factorization cache.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a zero capacity.
    pub fn with_max_cached_factors(mut self, n: usize) -> Result<Self, SympvlError> {
        self.max_cached_factors = at_least_one(n, "factor cache")?;
        Ok(self)
    }

    /// Bounds the retained-run pool.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a zero capacity.
    pub fn with_max_retained_runs(mut self, n: usize) -> Result<Self, SympvlError> {
        self.max_retained_runs = at_least_one(n, "retained-run")?;
        Ok(self)
    }

    /// Bounds the retained-model store.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a zero capacity.
    pub fn with_max_retained_models(mut self, n: usize) -> Result<Self, SympvlError> {
        self.max_retained_models = at_least_one(n, "retained-model")?;
        Ok(self)
    }
}

/// `n`, unless it is zero: then the builder of the `what` capacity fails.
fn at_least_one(n: usize, what: &str) -> Result<usize, SympvlError> {
    match n {
        0 => Err(SympvlError::InvalidOptions {
            reason: format!("{what} capacity must be at least 1"),
        }),
        n => Ok(n),
    }
}

/// Identity of a retained [`SympvlRun`]: the shift policy plus every
/// Lanczos tuning field, by exact bits. Two requests share a run state
/// only when nothing about their reduction can differ.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunKey {
    shift: ShiftKey,
    /// By bits: the acceptance threshold participates in the `Auto`
    /// ladder's outcome, so runs built under different thresholds can
    /// sit at different shifts and must never alias.
    auto_rtol: u64,
    dtol: u64,
    cluster_tol: u64,
    full_reorth: bool,
    max_cluster: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ShiftKey {
    None,
    Auto,
    Value(u64),
}

impl RunKey {
    fn of(opts: &SympvlOptions) -> Self {
        RunKey {
            shift: match opts.shift {
                Shift::None => ShiftKey::None,
                Shift::Auto => ShiftKey::Auto,
                Shift::Value(s0) => ShiftKey::Value(s0.to_bits()),
            },
            auto_rtol: opts.auto_rtol.to_bits(),
            dtol: opts.lanczos.dtol.to_bits(),
            cluster_tol: opts.lanczos.cluster_tol.to_bits(),
            full_reorth: opts.lanczos.full_reorth,
            max_cluster: opts.lanczos.max_cluster,
        }
    }
}

/// The run key a Padé request is grouped under; `None` for the other
/// backends, which form groups of their own.
fn run_key(spec: &ReduceSpec) -> Option<RunKey> {
    match &spec.backend {
        Backend::Pade(pade) => Some(RunKey::of(&pade.sympvl)),
        Backend::MultiPoint(_) | Backend::BalancedTruncation(_) => None,
    }
}

/// One retained model plus its lazily compiled evaluation plan.
struct ModelEntry {
    model: Arc<ReducedModel>,
    plan: Option<Arc<EvalPlan>>,
}

/// LRU-bounded store of retained models and their compiled eval plans,
/// keyed by id (eval counts as a use). Ids are monotonic and never
/// reused: a stale handle resolves to a typed
/// [`SympvlError::ModelEvicted`], never silently to a different model.
struct ModelStore {
    next_id: usize,
    entries: Lru<usize, ModelEntry>,
    evictions: u64,
}

impl ModelStore {
    fn new(capacity: usize) -> Self {
        ModelStore {
            next_id: 0,
            entries: Lru::new(capacity),
            evictions: 0,
        }
    }

    fn count_eviction(&mut self) {
        self.evictions += 1;
        mpvl_obs::counter_add("engine", "model_evictions", 1);
    }

    fn adopt(&mut self, model: Arc<ReducedModel>) -> ModelId {
        let id = self.next_id;
        self.next_id += 1;
        let entry = ModelEntry { model, plan: None };
        if self.entries.insert(id, entry).is_some() {
            self.count_eviction();
        }
        ModelId(id)
    }

    /// The retained model, touched most-recently-used; a dropped id is
    /// [`SympvlError::ModelEvicted`], never an unknown one.
    fn lookup(&mut self, id: ModelId) -> Result<Arc<ReducedModel>, SympvlError> {
        match self.entries.get(&id.0) {
            Some(entry) => Ok(entry.model.clone()),
            None if id.0 < self.next_id => Err(SympvlError::ModelEvicted { id: id.0 }),
            None => Err(SympvlError::InvalidOptions {
                reason: format!("no model with id {} in this session", id.0),
            }),
        }
    }

    fn evict(&mut self, id: ModelId) -> bool {
        let held = self.entries.remove(&id.0).is_some();
        if held {
            self.count_eviction();
        }
        held
    }
}

/// [`RunProvider`] adapter that routes the multi-point driver's
/// per-point checkouts through the session's factor cache and run pool,
/// under the keys a single-point request at that shift would use — so
/// the two request kinds warm each other.
struct SessionRuns<'a> {
    session: &'a ReductionSession,
}

impl RunProvider for SessionRuns<'_> {
    fn checkout(
        &mut self,
        sys: &MnaSystem,
        opts: &SympvlOptions,
    ) -> Result<SympvlRun, SympvlError> {
        debug_assert_eq!(sys.dim(), self.session.sys.dim(), "foreign system");
        self.session.checkout_or_create_run(opts)
    }

    fn checkin(&mut self, opts: &SympvlOptions, run: SympvlRun) {
        self.session.checkin_run(RunKey::of(opts), run);
    }
}

/// One system, many reductions: a [`ReductionSession`] is constructed
/// once from an [`MnaSystem`] and serves reduction and evaluation
/// requests, reusing everything reusable in between (the
/// [crate docs](crate) list what). Retained models are bounded by
/// [`SessionOptions::max_retained_models`]; evicted ids are retired,
/// never reused, so a stale handle gets [`SympvlError::ModelEvicted`].
///
/// **Determinism contract:** every model a session produces is
/// bit-identical to the corresponding free-function call
/// ([`sympvl::sympvl`], [`sympvl::reduce_adaptive`]) — cache hits, evictions, batching, and
/// thread counts never change a single bit, only the time it takes.
/// Batch results come back in request-index order.
///
/// ```
/// use mpvl_circuit::{generators::rc_ladder, MnaSystem};
/// use mpvl_engine::{ReduceSpec, ReductionSession};
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// let sys = MnaSystem::assemble(&rc_ladder(40, 100.0, 1e-12)).unwrap();
/// let session = ReductionSession::new(sys);
/// let small = session.reduce(&ReduceSpec::pade_fixed(4)?)?;
/// let large = session.reduce(&ReduceSpec::pade_fixed(8)?)?; // resumes, no refactor
/// assert_eq!(small.model.order(), 4);
/// assert_eq!(large.model.order(), 8);
/// // Auto-shift probed singular G (cached failure), then factored the
/// // shifted matrix — and the second reduce touched neither.
/// assert_eq!(session.cache_stats().factor_misses, 2);
/// # Ok(())
/// # }
/// ```
pub struct ReductionSession {
    sys: MnaSystem,
    factors: Mutex<FactorCache>,
    /// Paused Lanczos runs, checked out (removed) while in use.
    runs: Mutex<Lru<RunKey, SympvlRun>>,
    store: Mutex<ModelStore>,
}

impl ReductionSession {
    /// Builds a session around `sys` with default bounds.
    pub fn new(sys: MnaSystem) -> Self {
        Self::with_options(sys, SessionOptions::default())
    }

    /// Builds a session with explicit resource bounds.
    pub fn with_options(sys: MnaSystem, opts: SessionOptions) -> Self {
        ReductionSession {
            sys,
            factors: Mutex::new(FactorCache::new(opts.max_cached_factors)),
            runs: Mutex::new(Lru::new(opts.max_retained_runs)),
            store: Mutex::new(ModelStore::new(opts.max_retained_models)),
        }
    }

    /// The system this session reduces.
    pub fn system(&self) -> &MnaSystem {
        &self.sys
    }

    /// Serves one reduction request, for any [`ReduceSpec`] backend: a
    /// one-element [`ReductionSession::reduce_batch`].
    ///
    /// # Errors
    ///
    /// Whatever the underlying reduction, cross-validation, pole,
    /// certificate, or synthesis computation reports.
    pub fn reduce(&self, spec: &ReduceSpec) -> Result<ReductionOutcome, SympvlError> {
        let _span = mpvl_obs::span("engine", "reduce");
        self.reduce_many(std::slice::from_ref(spec))
            .pop()
            .expect("one result per spec")
    }

    /// Serves a batch of reduction requests, fanning independent groups
    /// across [`mpvl_par::thread_count`] workers.
    ///
    /// Results come back in request-index order, with per-request errors
    /// in place, and are bit-identical to serving the requests one at a
    /// time — Padé requests sharing a run key are processed sequentially
    /// on one worker so escalations still resume retained state, while
    /// multi-point and balanced-truncation requests each form their own
    /// group (their factorizations still share the session factor
    /// cache).
    pub fn reduce_batch(&self, specs: &[ReduceSpec]) -> Vec<Result<ReductionOutcome, SympvlError>> {
        let _span = mpvl_obs::span("engine", "reduce_batch");
        self.reduce_many(specs)
    }

    /// The shared reduction core. Padé requests are grouped by run key
    /// in first-appearance order, each group running sequentially on one
    /// checked-out run; multi-point and balanced requests are groups of
    /// their own (key `None`). Groups fan out across workers (one group
    /// runs inline), then models are registered in request-index order.
    fn reduce_many(&self, specs: &[ReduceSpec]) -> Vec<Result<ReductionOutcome, SympvlError>> {
        let mut groups: Vec<(Option<RunKey>, Vec<usize>)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let key = run_key(spec);
            match groups.iter_mut().find(|(k, _)| key.is_some() && *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        let per_group = mpvl_par::parallel_map_with(
            mpvl_par::thread_count(),
            &groups,
            |_| (),
            |_, _, (key, members)| self.execute_group(*key, specs, members),
        );
        // Scatter back to request order, then register models in that
        // order so ModelIds are deterministic under any thread count.
        let mut slots: Vec<Option<Result<ReductionOutcome, SympvlError>>> =
            specs.iter().map(|_| None).collect();
        for group in per_group {
            for (i, result) in group {
                slots[i] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.expect("every request is in exactly one group")
                    .map(|outcome| self.register(outcome))
            })
            .collect()
    }

    /// Resolves an id to its retained model, distinguishing the two
    /// failure modes (counts as a use for the LRU bound).
    ///
    /// # Errors
    ///
    /// [`SympvlError::ModelEvicted`] for an id this session issued
    /// whose model has since been dropped — by the
    /// [`SessionOptions::max_retained_models`] bound or an explicit
    /// [`ReductionSession::evict_model`]; ids are never reused, so the
    /// condition is permanent. [`SympvlError::InvalidOptions`] for an
    /// id this session never issued.
    pub fn lookup_model(&self, id: ModelId) -> Result<Arc<ReducedModel>, SympvlError> {
        relock(&self.store).lookup(id)
    }

    /// Adopts an externally constructed model — e.g. one deserialized
    /// from a persisted registry by the service layer — into the
    /// session store, assigning the next [`ModelId`] exactly as
    /// [`ReductionSession::reduce`] would.
    pub fn adopt_model(&self, model: ReducedModel) -> ModelId {
        relock(&self.store).adopt(Arc::new(model))
    }

    /// Drops a retained model (and its compiled plan) now instead of
    /// waiting for the LRU bound; the id is retired either way.
    /// Returns `false` when the id is not currently retained.
    pub fn evict_model(&self, id: ModelId) -> bool {
        relock(&self.store).evict(id)
    }

    /// The compiled evaluation plan for a retained model, compiling it on
    /// first use. Obs counters: `engine/eval_plan_hits`,
    /// `engine/eval_plan_compiles`, `engine/eval_plan_fallbacks`.
    pub fn plan_for(&self, id: ModelId, model: &Arc<ReducedModel>) -> Arc<EvalPlan> {
        let mut store = relock(&self.store);
        if let Some(plan) = store.entries.peek(&id.0).and_then(|e| e.plan.clone()) {
            mpvl_obs::counter_add("engine", "eval_plan_hits", 1);
            return plan;
        }
        let plan = Arc::new(EvalPlan::compile(model));
        mpvl_obs::counter_add("engine", "eval_plan_compiles", 1);
        if !plan.is_compiled() {
            mpvl_obs::counter_add("engine", "eval_plan_fallbacks", 1);
        }
        // The entry may be gone (evicted between lookup and planning, or
        // a model the store never held): the one-shot plan still
        // evaluates bit-identically, it just is not cached.
        if let Some(entry) = store.entries.peek(&id.0) {
            entry.plan = Some(plan.clone());
        }
        plan
    }

    /// Evaluates a retained model over a frequency sweep, fanning the
    /// **points** across [`mpvl_par::thread_count`] workers. The first
    /// eval of a model compiles its pole–residue [`EvalPlan`]; warm evals
    /// are pure O(order·ports²) accumulation with zero per-point
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] for a [`ModelId`] this session
    /// never issued; [`SympvlError::ModelEvicted`] for one whose model
    /// was dropped by the retention bound; [`SympvlError::Singular`]
    /// when a frequency hits a pole.
    pub fn eval(&self, request: &EvalRequest) -> Result<EvalOutcome, SympvlError> {
        let _span = mpvl_obs::span("engine", "eval");
        self.eval_many(std::slice::from_ref(request))
            .pop()
            .expect("one result per request")
    }

    /// Evaluates a batch of sweeps, results in request-index order. All
    /// points of all requests are flattened into one pool and chunked
    /// across [`mpvl_par::thread_count`] workers, so a single 2000-point
    /// sweep parallelizes as well as 2000 one-point sweeps — with
    /// bit-identical results at any thread count.
    pub fn eval_batch(&self, requests: &[EvalRequest]) -> Vec<Result<EvalOutcome, SympvlError>> {
        let _span = mpvl_obs::span("engine", "eval_batch");
        self.eval_many(requests)
    }

    /// The shared eval core: resolve plans serially (deterministic obs
    /// counters), flatten every (request, point) pair into one slot pool,
    /// chunk the pool across workers with per-worker workspaces, then
    /// reassemble per-request outcomes in request-index order.
    ///
    /// Each point's arithmetic is self-contained (its own workspace fill,
    /// its own output matrix), so the chunk boundaries cannot change a
    /// single bit of any result — only the wall-clock time.
    fn eval_many(&self, requests: &[EvalRequest]) -> Vec<Result<EvalOutcome, SympvlError>> {
        let resolved: Vec<Result<Arc<EvalPlan>, SympvlError>> = requests
            .iter()
            .map(|request| {
                self.lookup_model(request.model)
                    .map(|model| self.plan_for(request.model, &model))
            })
            .collect();
        struct Slot {
            req: usize,
            freq_hz: f64,
            z: Mat<Complex64>,
            err: Option<SympvlError>,
        }
        let total: usize = requests
            .iter()
            .zip(&resolved)
            .filter(|(_, r)| r.is_ok())
            .map(|(request, _)| request.freqs_hz.len())
            .sum();
        let mut slots: Vec<Slot> = Vec::with_capacity(total);
        for (i, plan) in resolved.iter().enumerate() {
            if let Ok(plan) = plan {
                let p = plan.ports();
                for &f in &requests[i].freqs_hz {
                    slots.push(Slot {
                        req: i,
                        freq_hz: f,
                        z: Mat::zeros(p, p),
                        err: None,
                    });
                }
            }
        }
        mpvl_obs::counter_add("engine", "eval_points", slots.len() as u64);
        {
            let _span = mpvl_obs::span("engine", "eval_points");
            mpvl_par::parallel_for_chunks_with_init(
                mpvl_par::thread_count(),
                &mut slots,
                |_| None::<(usize, EvalWorkspace)>,
                |state, _, chunk| {
                    for slot in chunk.iter_mut() {
                        let Ok(plan) = &resolved[slot.req] else {
                            continue; // failed requests contribute no slots
                        };
                        // Rebuild the workspace only when the plan changes
                        // (slots are contiguous per request, so this is
                        // rare); keyed by plan identity.
                        let key = Arc::as_ptr(plan) as usize;
                        if state.as_ref().map(|(k, _)| *k) != Some(key) {
                            *state = Some((key, plan.workspace()));
                        }
                        let ws = &mut state.as_mut().expect("workspace installed above").1;
                        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * slot.freq_hz);
                        if let Err(e) = plan.eval_into(ws, s, &mut slot.z) {
                            slot.err = Some(e);
                        }
                    }
                },
            );
        }
        // Reassemble in request-index order (each resolved request owns
        // the next `freqs_hz.len()` slots); the first failing point of a
        // request, in frequency order, decides its error, matching the
        // serial early-exit semantics.
        let mut slots = slots.into_iter();
        resolved
            .into_iter()
            .zip(requests)
            .map(|(plan, request)| {
                plan?;
                let own: Vec<Slot> = slots.by_ref().take(request.freqs_hz.len()).collect();
                let points = own
                    .into_iter()
                    .map(|slot| match slot.err {
                        Some(e) => Err(e),
                        None => Ok(EvalPoint {
                            freq_hz: slot.freq_hz,
                            z: slot.z,
                        }),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(EvalOutcome {
                    model: request.model,
                    points,
                })
            })
            .collect()
    }

    /// Cache occupancy and hit/miss counters, as one **consistent**
    /// snapshot: the factor, run, and model locks are all held
    /// simultaneously (acquired in the documented
    /// `factors` → `runs` → `store` order) while the numbers are read,
    /// so concurrent requests cannot tear the view — every field
    /// describes the same instant.
    pub fn cache_stats(&self) -> CacheStats {
        let factors = relock(&self.factors);
        let runs = relock(&self.runs);
        let store = relock(&self.store);
        CacheStats {
            factor_hits: factors.hits,
            factor_misses: factors.misses,
            factor_evictions: factors.evictions,
            cached_factors: factors.entries.len(),
            retained_runs: runs.len(),
            cached_models: store.entries.len(),
            model_evictions: store.evictions,
        }
    }

    /// Factorization with the session cache interposed — the `factor_fn`
    /// seam of [`sympvl::factor_with_options_via`].
    fn cached_factor(&self, target: FactorTarget) -> Result<Arc<GFactor>, SympvlError> {
        relock(&self.factors)
            .get_or_insert_with(FactorKey::of(target), || factor_target(&self.sys, target))
    }

    fn checkout_or_create_run(&self, opts: &SympvlOptions) -> Result<SympvlRun, SympvlError> {
        if let Some(run) = relock(&self.runs).remove(&RunKey::of(opts)) {
            return Ok(run);
        }
        SympvlRun::new_via(&self.sys, opts, &mut |_, target| self.cached_factor(target))
    }

    /// Checks a run back in. If another worker raced a fresh run in
    /// under the same key, the further-advanced state wins (results are
    /// bit-identical either way; keeping the deeper state saves work).
    fn checkin_run(&self, key: RunKey, run: SympvlRun) {
        let mut runs = relock(&self.runs);
        if runs
            .peek(&key)
            .is_some_and(|held| held.reached_order() >= run.reached_order())
        {
            return;
        }
        runs.insert(key, run);
    }

    /// Runs one group of `specs` without registering its models. A Padé
    /// group (`key` set) runs its members in request order on the one
    /// run checked out under the key, so escalations resume it; any
    /// other group is a single multi-point or balanced request.
    fn execute_group(
        &self,
        key: Option<RunKey>,
        specs: &[ReduceSpec],
        members: &[usize],
    ) -> Vec<(usize, Result<ReductionOutcome, SympvlError>)> {
        let Some(key) = key else {
            let spec = &specs[members[0]];
            let result = match &spec.backend {
                Backend::MultiPoint(opts) => self.execute_multipoint(opts, spec),
                Backend::BalancedTruncation(opts) => self.execute_balanced(opts, spec),
                Backend::Pade(_) => unreachable!("Padé requests are keyed"),
            };
            return vec![(members[0], result)];
        };
        let Backend::Pade(first) = &specs[members[0]].backend else {
            unreachable!("keyed groups hold Padé requests only");
        };
        match self.checkout_or_create_run(&first.sympvl) {
            Ok(mut run) => {
                let results = members
                    .iter()
                    .map(|&i| (i, self.execute_pade_with_run(&mut run, &specs[i])))
                    .collect();
                self.checkin_run(key, run);
                results
            }
            Err(e) => members.iter().map(|&i| (i, Err(e.clone()))).collect(),
        }
    }

    fn execute_pade_with_run(
        &self,
        run: &mut SympvlRun,
        spec: &ReduceSpec,
    ) -> Result<ReductionOutcome, SympvlError> {
        let Backend::Pade(pade) = &spec.backend else {
            unreachable!("keyed groups hold Padé requests only");
        };
        let outcome = match &pade.order {
            OrderSpec::Fixed(order) => {
                ReductionOutcome::unregistered(run.model_at(&self.sys, *order)?)
            }
            OrderSpec::Adaptive(adaptive_opts) => {
                let mut opts = adaptive_opts.clone();
                opts.sympvl = pade.sympvl.clone();
                let out = reduce_adaptive_with(&self.sys, &opts, run)?;
                let mut outcome = ReductionOutcome::unregistered(out.model);
                outcome.adaptive = Some(AdaptiveInfo {
                    estimated_error: out.estimated_error,
                    orders_tried: out.orders_tried,
                    hit_order_cap: out.hit_order_cap,
                });
                outcome
            }
        };
        self.finish(outcome, spec)
    }

    /// The session-level face of [`sympvl::reduce_multipoint`]: every
    /// per-point factorization is cached under its [`FactorKey`] and
    /// every paused per-point Lanczos state is pooled exactly as a
    /// single-point request at that shift would pool it. The driver is
    /// sequential over points, so the outcome is bit-identical to the
    /// free-function call at any `MPVL_THREADS` and any cache state.
    fn execute_multipoint(
        &self,
        opts: &MultiPointOptions,
        spec: &ReduceSpec,
    ) -> Result<ReductionOutcome, SympvlError> {
        let _span = mpvl_obs::span("engine", "reduce_multipoint");
        let out = reduce_multipoint_with(&self.sys, opts, &mut SessionRuns { session: self })?;
        let mut outcome = ReductionOutcome::unregistered(out.model);
        outcome.multipoint = Some(MultiPointInfo {
            point_freqs_hz: out.point_freqs_hz,
            shifts: out.shifts,
            per_point_order: out.per_point_order,
            estimated_error: out.estimated_error,
        });
        self.finish(outcome, spec)
    }

    /// The session-level face of [`sympvl::reduce_balanced`]: both
    /// shifted factorizations (the reference arm and the inverse arm)
    /// go through the session factor cache, so a balanced request warms
    /// — and is warmed by — Padé and multi-point requests at the same
    /// expansion points.
    fn execute_balanced(
        &self,
        opts: &BtOptions,
        spec: &ReduceSpec,
    ) -> Result<ReductionOutcome, SympvlError> {
        let _span = mpvl_obs::span("engine", "reduce_balanced");
        let out =
            reduce_balanced_via(&self.sys, opts, &mut |_, target| self.cached_factor(target))?;
        let mut outcome = ReductionOutcome::unregistered(out.model);
        outcome.balanced = Some(BalancedInfo {
            hankel: out.hankel,
            hankel_bound: out.hankel_bound,
            basis_dim: out.basis_dim,
            iterations: out.iterations,
            converged: out.converged,
            estimated_band_error: out.estimated_band_error,
        });
        self.finish(outcome, spec)
    }

    /// Shared tail of every backend executor: optional cross-validation
    /// against the complementary backend, then the
    /// [`Want`](crate::Want) by-products.
    fn finish(
        &self,
        mut outcome: ReductionOutcome,
        spec: &ReduceSpec,
    ) -> Result<ReductionOutcome, SympvlError> {
        if let Some(cv) = &spec.cross_validate {
            outcome.cross_validation =
                Some(self.cross_validate(&outcome.model, &spec.backend, cv)?);
        }
        (outcome.poles, outcome.certificate, outcome.synthesis) =
            spec.want.by_products(&outcome.model)?;
        Ok(outcome)
    }

    /// Runs the complementary backend at the primary model's order and
    /// measures the band-worst disagreement: a balanced-truncation
    /// primary is refereed by a single-point Padé model expanded at the
    /// band's geometric-mean frequency; a Padé or multi-point primary
    /// is refereed by balanced truncation over the band. The referee
    /// runs through the request executors, so it reuses the session's
    /// factor cache (and, for Padé, the run pool); it is not retained.
    fn cross_validate(
        &self,
        model: &ReducedModel,
        backend: &Backend,
        cv: &CrossValidateOptions,
    ) -> Result<CrossValidation, SympvlError> {
        let _span = mpvl_obs::span("engine", "cross_validate");
        let order = model.order().max(1);
        let referee = match backend {
            Backend::BalancedTruncation(_) => {
                let s0 = expansion_shift((cv.f_lo * cv.f_hi).sqrt(), self.sys.s_power);
                ReduceSpec::pade_fixed(order)?.with_shift(Shift::Value(s0))?
            }
            Backend::Pade(_) | Backend::MultiPoint(_) => {
                ReduceSpec::balanced(BtOptions::for_band(cv.f_lo, cv.f_hi)?.with_order(order)?)
            }
        };
        let (_, result) = self
            .execute_group(run_key(&referee), std::slice::from_ref(&referee), &[0])
            .pop()
            .expect("one result per member");
        let referee_model = result?.model;
        let (disagreement, at_freq_hz) =
            band_disagreement(model, &referee_model, &cv.probe_freqs_hz)?;
        Ok(CrossValidation {
            disagreement,
            at_freq_hz,
            referee: referee.backend.kind(),
            referee_order: referee_model.order(),
        })
    }

    /// Retains the model and assigns its id. Called in request-index
    /// order (sequentially) so ids are deterministic.
    fn register(&self, mut outcome: ReductionOutcome) -> ReductionOutcome {
        outcome.model_id = relock(&self.store).adopt(Arc::new(outcome.model.clone()));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::rc_ladder;

    fn session_with(max_models: usize) -> ReductionSession {
        let sys = MnaSystem::assemble(&rc_ladder(30, 100.0, 1e-12)).unwrap();
        ReductionSession::with_options(
            sys,
            SessionOptions::new()
                .with_max_retained_models(max_models)
                .unwrap(),
        )
    }

    #[test]
    fn a_panic_under_a_session_lock_does_not_poison_later_requests() {
        let session = session_with(8);
        let first = session.reduce(&ReduceSpec::pade_fixed(4).unwrap()).unwrap();
        // Poison every session mutex: one thread per lock panics while
        // holding the guard (the service layer catches such panics with
        // catch_unwind, leaving exactly this state behind).
        std::thread::scope(|scope| {
            let handles = [
                scope.spawn(|| {
                    let _g = session.factors.lock().unwrap();
                    panic!("poison factors");
                }),
                scope.spawn(|| {
                    let _g = session.runs.lock().unwrap();
                    panic!("poison runs");
                }),
                scope.spawn(|| {
                    let _g = session.store.lock().unwrap();
                    panic!("poison store");
                }),
            ];
            for h in handles {
                assert!(h.join().is_err(), "the poisoning thread must panic");
            }
        });
        assert!(session.factors.is_poisoned());
        assert!(session.store.is_poisoned());
        // Every request path still works — and produces the same bits a
        // never-poisoned session produces.
        let escalated = session.reduce(&ReduceSpec::pade_fixed(6).unwrap()).unwrap();
        let clean = session_with(8);
        clean.reduce(&ReduceSpec::pade_fixed(4).unwrap()).unwrap();
        let reference = clean.reduce(&ReduceSpec::pade_fixed(6).unwrap()).unwrap();
        assert_eq!(
            sympvl::write_model(&escalated.model),
            sympvl::write_model(&reference.model),
            "post-poison reduction must stay bit-identical"
        );
        let sweep = session
            .eval(&EvalRequest::new(first.model_id, vec![1e8, 1e9]).unwrap())
            .unwrap();
        assert_eq!(sweep.points.len(), 2);
        let stats = session.cache_stats();
        assert_eq!(stats.cached_models, 2);
    }

    #[test]
    fn model_store_is_bounded_and_retires_ids() {
        let session = session_with(2);
        let a = session
            .reduce(&ReduceSpec::pade_fixed(2).unwrap())
            .unwrap()
            .model_id;
        let b = session
            .reduce(&ReduceSpec::pade_fixed(3).unwrap())
            .unwrap()
            .model_id;
        let c = session.reduce(&ReduceSpec::pade_fixed(4).unwrap()).unwrap();
        assert_eq!(
            (a.index(), b.index(), c.model_id.index()),
            (0, 1, 2),
            "ids are monotonic in request order"
        );
        // Capacity 2: the oldest model is gone and its id is retired —
        // a typed error, distinct from an id that never existed.
        assert!(session.lookup_model(a).is_err());
        let err = session
            .eval(&EvalRequest::new(a, vec![1e9]).unwrap())
            .unwrap_err();
        assert_eq!(err, SympvlError::ModelEvicted { id: 0 });
        assert!(matches!(
            session.eval(&EvalRequest::new(ModelId(99), vec![1e9]).unwrap()),
            Err(SympvlError::InvalidOptions { .. })
        ));
        // Explicit eviction retires ids the same way, and is idempotent.
        assert!(session.evict_model(b));
        assert!(!session.evict_model(b), "already evicted");
        assert_eq!(
            session.lookup_model(b).unwrap_err(),
            SympvlError::ModelEvicted { id: 1 }
        );
        let stats = session.cache_stats();
        assert_eq!(stats.cached_models, 1);
        assert_eq!(stats.model_evictions, 2);
        // Adoption (the registry seam) shares the same id sequence.
        let d = session.adopt_model(c.model.clone());
        assert_eq!(d.index(), 3);
        let sweep = session
            .eval(&EvalRequest::new(d, vec![1e8]).unwrap())
            .unwrap();
        assert_eq!(sweep.points.len(), 1);
    }

    #[test]
    fn eval_counts_as_lru_use_for_model_retention() {
        let session = session_with(2);
        let a = session
            .reduce(&ReduceSpec::pade_fixed(2).unwrap())
            .unwrap()
            .model_id;
        let _b = session.reduce(&ReduceSpec::pade_fixed(3).unwrap());
        // Touch `a`, then push a third model: the untouched one evicts.
        session
            .eval(&EvalRequest::new(a, vec![1e9]).unwrap())
            .unwrap();
        let _c = session.reduce(&ReduceSpec::pade_fixed(4).unwrap());
        assert!(
            session.lookup_model(a).is_ok(),
            "recently used model survives"
        );
        assert_eq!(
            session.lookup_model(ModelId(1)).unwrap_err(),
            SympvlError::ModelEvicted { id: 1 }
        );
    }

    #[test]
    fn run_checkin_keeps_the_deeper_of_two_raced_runs() {
        let session = session_with(8);
        let opts = SympvlOptions::default();
        let key = RunKey::of(&opts);
        // With no run pooled under `key`, each checkout creates a fresh
        // run, as two racing workers would.
        let advanced = |order: usize| {
            let mut run = session.checkout_or_create_run(&opts).unwrap();
            run.model_at(&session.sys, order).unwrap();
            run
        };
        let depth = advanced(8).reached_order();
        assert!(depth > advanced(4).reached_order());
        // Whichever order the two check in, the deeper run is kept.
        for deeper_first in [true, false] {
            let (deep, shallow) = (advanced(8), advanced(4));
            let (first, second) = if deeper_first {
                (deep, shallow)
            } else {
                (shallow, deep)
            };
            session.checkin_run(key, first);
            session.checkin_run(key, second);
            assert_eq!(session.cache_stats().retained_runs, 1);
            let kept = session.checkout_or_create_run(&opts).unwrap();
            assert_eq!(kept.reached_order(), depth, "deeper first: {deeper_first}");
        }
    }

    #[test]
    fn unshifted_reduction_of_a_floating_ladder_is_a_typed_error() {
        // A 30-section RC ladder with graded resistors and no path to
        // ground. The graded values keep G's rounded row sums off zero,
        // so dense Bunch–Kaufman would return a factor whose smallest
        // pivot is ≈1e-16 of the largest; under `Shift::None` the
        // floating-group check rejects G before that attempt.
        // `Shift::Auto` expands at s₀ > 0.
        let mut ckt = mpvl_circuit::Circuit::new();
        let mut prev = ckt.add_node();
        ckt.add_port("in", prev, mpvl_circuit::GROUND);
        for k in 0..30 {
            let next = ckt.add_node();
            ckt.add_resistor(&format!("R{k}"), prev, next, 100.0 + 7.3 * k as f64);
            ckt.add_capacitor(&format!("C{k}"), next, mpvl_circuit::GROUND, 1e-12);
            prev = next;
        }
        let session = ReductionSession::new(MnaSystem::assemble(&ckt).unwrap());
        let none = ReduceSpec::pade_fixed(4)
            .unwrap()
            .with_shift(Shift::None)
            .unwrap();
        match session.reduce(&none) {
            Err(SympvlError::Factorization { reason }) => {
                assert!(
                    reason.contains("31 node voltages in 1 group(s)"),
                    "{reason}"
                );
            }
            other => panic!("expected a Factorization error, got {other:?}"),
        }
        let auto = session.reduce(&ReduceSpec::pade_fixed(4).unwrap()).unwrap();
        assert!(auto.model.shift() > 0.0);
    }
}
