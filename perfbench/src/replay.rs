//! A layered replay of the service and session request paths.
//!
//! `ReductionService::submit` and `ReductionSession::reduce_batch`
//! time almost nothing themselves, and the factorization — the cost
//! that dominates at scale — not at all. The replay sends one request
//! as the same sequence of public calls those paths make, in the same
//! order and against the same kind of caches, with a bench span around
//! each call (see [`crate::trace`]). It must return the very bits the
//! real path returns; the traced run checks that for every request.
//!
//! Re-implemented here, because the program makes these decisions in
//! private code: the service's admission count, session LRU and
//! two-tier registry, the session's factor cache (LRU, failures cached,
//! factoring under its lock) and run pool (LRU, the deeper run wins),
//! and the batch grouping of the engine. Each re-implemented decision
//! records the `mpvl_obs` counter the program records for it, under the
//! program's name, so the traced run can compare every counter of the
//! replay with the program's: a policy change in the program that the
//! replay does not follow fails the run.

use crate::trace::Tracer;
use mpvl_circuit::{parse_spice, to_spice, MnaSystem};
use mpvl_engine::{
    Backend, EvalPoint, EvalRequest, FactorKey, ModelId, OrderSpec, PadeSpec, ReduceSpec,
    ReductionSession, SessionOptions, Want,
};
use mpvl_obs::counter_add;
use mpvl_service::{sha256_hex, ServiceOptions, ServiceRequest};
use mpvl_sparse::{compute_ordering, NumericLdlt, Ordering, SymbolicLdlt};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use sympvl::{
    factor_target, read_model, reduce_adaptive_with, reduce_balanced_via, reduce_multipoint_with,
    write_model, EvalPlan, FactorTarget, GFactor, ReducedModel, RunProvider, Shift, SympvlError,
    SympvlOptions, SympvlRun,
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a replay worker panicked")
}

/// Work measured after a request, off its clock.
enum Pending {
    /// A factorization the seam performed: re-run in phases on the same
    /// matrix to split its time.
    Factor {
        span: usize,
        target: FactorTarget,
        session: Arc<ReplaySession>,
    },
    /// An ingest: re-run in phases on the same text.
    Ingest { span: usize, text: Arc<str> },
    /// An eval that compiled its model's plan: the compile re-run on
    /// the same model.
    Plan {
        span: usize,
        model: Arc<ReducedModel>,
    },
}

/// What only the bench measures; the program's counters are in the
/// captures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Netlist bytes ingested.
    pub ingested_bytes: u64,
    /// Off-diagonal nonzeros of `L`, summed over factorizations.
    pub l_nnz: u64,
}

/// The state shared by one traced replay.
pub struct Replay {
    /// The spans of every replayed call.
    pub tracer: Tracer,
    pending: Mutex<Vec<Pending>>,
    counts: Mutex<Counts>,
}

impl Default for Replay {
    fn default() -> Self {
        Self::new()
    }
}

impl Replay {
    /// An empty replay.
    pub fn new() -> Self {
        Replay {
            tracer: Tracer::new(),
            pending: Mutex::new(Vec::new()),
            counts: Mutex::new(Counts::default()),
        }
    }

    fn defer(&self, p: Pending) {
        lock(&self.pending).push(p);
    }

    fn count(&self, f: impl FnOnce(&mut Counts)) {
        f(&mut lock(&self.counts));
    }

    /// The counts so far.
    pub fn counts(&self) -> Counts {
        lock(&self.counts).clone()
    }

    /// Splits the last requests' factorizations, ingests and plan
    /// compiles out of the spans around them by timing each phase on the
    /// same input. Runs with program recording off, so its work never
    /// reaches the program's counters; call it outside every span.
    pub fn settle(&self) {
        let pending = std::mem::take(&mut *lock(&self.pending));
        let recording = mpvl_obs::enabled();
        mpvl_obs::set_enabled(false);
        for p in pending {
            match p {
                Pending::Factor {
                    span,
                    target,
                    session,
                } => self.split_factor(span, target, session.system()),
                Pending::Ingest { span, text } => self.split_ingest(span, &text),
                Pending::Plan { span, model } => {
                    let t = Instant::now();
                    std::hint::black_box(EvalPlan::compile(&model));
                    self.tracer
                        .add_split(span, "core.plan_compile", nanos(t.elapsed()));
                }
            }
        }
        mpvl_obs::set_enabled(recording);
    }

    /// The phases `GFactor::factor` runs: ordering, symbolic analysis,
    /// numeric factorization.
    fn split_factor(&self, span: usize, target: FactorTarget, sys: &MnaSystem) {
        let a = match target {
            FactorTarget::Unshifted => sys.g.clone(),
            FactorTarget::Shifted(s0) => sys.g.add_scaled(1.0, &sys.c, s0),
        };
        let t = Instant::now();
        let perm = compute_ordering(&a.adjacency(), Ordering::MinDegree);
        let order = t.elapsed();
        let t = Instant::now();
        let sym = SymbolicLdlt::analyze_with_perm(&a, perm);
        let symbolic = t.elapsed();
        let t = Instant::now();
        let l_nnz = sym.map_or(0, |sym| {
            let sym = Arc::new(sym);
            let mut num = NumericLdlt::new(Arc::clone(&sym));
            let _ = num.refactor_with_threads(&a, mpvl_par::thread_count());
            sym.l_nnz() as u64
        });
        let numeric = t.elapsed();
        self.count(|c| c.l_nnz += l_nnz);
        for (layer, d) in [
            ("sparse.order", order),
            ("sparse.symbolic", symbolic),
            ("sparse.numeric", numeric),
        ] {
            self.tracer.add_split(span, layer, nanos(d));
        }
    }

    /// The phases `ServiceRequest::from_spec` runs: parse, canonicalize,
    /// and the two content hashes.
    fn split_ingest(&self, span: usize, text: &str) {
        let t = Instant::now();
        let parsed = parse_spice(text);
        let parse = t.elapsed();
        let Ok((ckt, _)) = parsed else {
            return;
        };
        let t = Instant::now();
        let canonical = to_spice(&ckt);
        let canonicalize = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(sha256_hex(canonical.as_bytes()));
        std::hint::black_box(sha256_hex(format!("{canonical}\x00").as_bytes()));
        let hash = t.elapsed();
        for (layer, d) in [
            ("circuit.parse", parse),
            ("circuit.canonicalize", canonicalize),
            ("service.hash", hash),
        ] {
            self.tracer.add_split(span, layer, nanos(d));
        }
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Identity of a pooled run: the shift policy and every Lanczos option,
/// by exact bits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunKey {
    shift: (u8, u64),
    auto_rtol: u64,
    dtol: u64,
    cluster_tol: u64,
    full_reorth: bool,
    max_cluster: usize,
}

impl RunKey {
    fn of(opts: &SympvlOptions) -> Self {
        RunKey {
            shift: match opts.shift {
                Shift::None => (0, 0),
                Shift::Auto => (1, 0),
                Shift::Value(s0) => (2, s0.to_bits()),
            },
            auto_rtol: opts.auto_rtol.to_bits(),
            dtol: opts.lanczos.dtol.to_bits(),
            cluster_tol: opts.lanczos.cluster_tol.to_bits(),
            full_reorth: opts.lanczos.full_reorth,
            max_cluster: opts.lanczos.max_cluster,
        }
    }
}

type CachedFactor = Result<Arc<GFactor>, SympvlError>;

/// A model reduced by the replay, registered in its session.
pub struct Reduced {
    /// The id the session assigned.
    pub id: ModelId,
    /// The model.
    pub model: ReducedModel,
    /// The Hankel bound, for balanced truncation.
    pub hankel_bound: Option<f64>,
}

/// The replay of one `ReductionSession`: the real session holds the
/// models and evaluates them; reductions run through the core seams
/// with the replay's factor cache and run pool.
pub struct ReplaySession {
    session: ReductionSession,
    opts: SessionOptions,
    factors: Mutex<Vec<(FactorKey, CachedFactor)>>,
    runs: Mutex<Vec<(RunKey, SympvlRun)>>,
    /// Models evaluated so far. The session compiles a model's plan on
    /// its first eval and keeps it as long as the model, whose id is
    /// never reused.
    evaluated: Mutex<HashSet<ModelId>>,
}

impl ReplaySession {
    /// A session over `sys`.
    pub fn new(sys: MnaSystem, opts: SessionOptions) -> Arc<Self> {
        Arc::new(ReplaySession {
            session: ReductionSession::with_options(sys, opts.clone()),
            opts,
            factors: Mutex::new(Vec::new()),
            runs: Mutex::new(Vec::new()),
            evaluated: Mutex::new(HashSet::new()),
        })
    }

    /// The system reduced.
    pub fn system(&self) -> &MnaSystem {
        self.session.system()
    }

    /// The factor seam: the session cache in front of `factor_target`.
    fn factor(self: &Arc<Self>, r: &Replay, target: FactorTarget) -> CachedFactor {
        let key = FactorKey::of(target);
        let mut cache = lock(&self.factors);
        if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
            counter_add("engine", "factor_cache_hits", 1);
            let entry = cache.remove(pos);
            let result = entry.1.clone();
            cache.push(entry);
            return result;
        }
        counter_add("engine", "factor_cache_misses", 1);
        let (result, span) = r
            .tracer
            .span_id("core.factor", || factor_target(self.system(), target));
        r.defer(Pending::Factor {
            span,
            target,
            session: Arc::clone(self),
        });
        if cache.len() >= self.opts.max_cached_factors.max(1) {
            let _evicted = cache.remove(0);
            counter_add("engine", "factor_cache_evictions", 1);
        }
        cache.push((key, result.clone()));
        result
    }

    fn checkout(
        self: &Arc<Self>,
        r: &Replay,
        opts: &SympvlOptions,
    ) -> Result<SympvlRun, SympvlError> {
        let key = RunKey::of(opts);
        {
            let mut runs = lock(&self.runs);
            if let Some(pos) = runs.iter().position(|(k, _)| *k == key) {
                return Ok(runs.remove(pos).1);
            }
        }
        r.tracer.span("core.run_new", || {
            SympvlRun::new_via(self.system(), opts, &mut |_, target| self.factor(r, target))
        })
    }

    fn checkin(&self, opts: &SympvlOptions, run: SympvlRun) {
        let key = RunKey::of(opts);
        let mut runs = lock(&self.runs);
        if let Some(pos) = runs.iter().position(|(k, _)| *k == key) {
            if runs[pos].1.reached_order() >= run.reached_order() {
                return;
            }
            runs.remove(pos);
        }
        if runs.len() >= self.opts.max_retained_runs.max(1) {
            runs.remove(0);
        }
        runs.push((key, run));
    }

    /// `ReductionSession::reduce`.
    ///
    /// # Errors
    ///
    /// Whatever the reduction reports.
    pub fn reduce(self: &Arc<Self>, r: &Replay, spec: &ReduceSpec) -> Result<Reduced, SympvlError> {
        r.tracer.span("engine.reduce", || {
            let (model, hankel_bound) = self.execute(r, spec)?;
            Ok(self.register(model, hankel_bound))
        })
    }

    /// `ReductionSession::reduce_batch`: Padé specs grouped by run key,
    /// the other backends one group each, groups fanned out over the
    /// workers, models registered in request order.
    pub fn reduce_batch(
        self: &Arc<Self>,
        r: &Replay,
        specs: &[ReduceSpec],
    ) -> Vec<Result<Reduced, SympvlError>> {
        r.tracer.span("engine.reduce_batch", || {
            let mut groups: Vec<(Option<RunKey>, Vec<usize>)> = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                match &spec.backend {
                    Backend::Pade(pade) => {
                        let key = Some(RunKey::of(&pade.sympvl));
                        match groups.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, members)) => members.push(i),
                            None => groups.push((key, vec![i])),
                        }
                    }
                    Backend::MultiPoint(_) | Backend::BalancedTruncation(_) => {
                        groups.push((None, vec![i]));
                    }
                }
            }
            let parent = r.tracer.current();
            let per_group = mpvl_par::parallel_map_with(
                mpvl_par::thread_count(),
                &groups,
                |_| (),
                |_, _, (key, members)| {
                    r.tracer.under(parent, || match key {
                        Some(_) => self.pade_group(r, specs, members),
                        None => vec![(members[0], self.execute(r, &specs[members[0]]))],
                    })
                },
            );
            let mut slots: Vec<Option<_>> = specs.iter().map(|_| None).collect();
            for (i, result) in per_group.into_iter().flatten() {
                slots[i] = Some(result);
            }
            slots
                .into_iter()
                .map(|slot| {
                    slot.expect("every spec is in one group")
                        .map(|(model, hankel)| self.register(model, hankel))
                })
                .collect()
        })
    }

    #[allow(clippy::type_complexity)]
    fn pade_group(
        self: &Arc<Self>,
        r: &Replay,
        specs: &[ReduceSpec],
        members: &[usize],
    ) -> Vec<(usize, Result<(ReducedModel, Option<f64>), SympvlError>)> {
        let pade_of = |i: usize| match &specs[i].backend {
            Backend::Pade(p) => p,
            _ => unreachable!("keyed groups hold Padé specs only"),
        };
        let first = &pade_of(members[0]).sympvl;
        match self.checkout(r, first) {
            Ok(mut run) => {
                let out = members
                    .iter()
                    .map(|&i| (i, self.pade(r, &mut run, pade_of(i))))
                    .collect();
                self.checkin(first, run);
                out
            }
            Err(e) => members.iter().map(|&i| (i, Err(e.clone()))).collect(),
        }
    }

    fn execute(
        self: &Arc<Self>,
        r: &Replay,
        spec: &ReduceSpec,
    ) -> Result<(ReducedModel, Option<f64>), SympvlError> {
        let want = &spec.want;
        if spec.cross_validate.is_some()
            || want.poles
            || want.certificate.is_some()
            || want.synthesis.is_some()
        {
            return Err(SympvlError::InvalidOptions {
                reason: "the replay covers model-only specs".into(),
            });
        }
        match &spec.backend {
            Backend::Pade(pade) => {
                let mut run = self.checkout(r, &pade.sympvl)?;
                let out = self.pade(r, &mut run, pade);
                self.checkin(&pade.sympvl, run);
                out
            }
            Backend::MultiPoint(opts) => r
                .tracer
                .span("core.merge", || {
                    reduce_multipoint_with(self.system(), opts, &mut Provider { session: self, r })
                })
                .map(|out| (out.model, None)),
            Backend::BalancedTruncation(opts) => r
                .tracer
                .span("core.balanced", || {
                    reduce_balanced_via(self.system(), opts, &mut |_, t| self.factor(r, t))
                })
                .map(|out| (out.model, Some(out.hankel_bound))),
        }
    }

    fn pade(
        &self,
        r: &Replay,
        run: &mut SympvlRun,
        pade: &PadeSpec,
    ) -> Result<(ReducedModel, Option<f64>), SympvlError> {
        let model = match &pade.order {
            OrderSpec::Fixed(order) => r
                .tracer
                .span("core.lanczos", || run.model_at(self.system(), *order))?,
            OrderSpec::Adaptive(adaptive) => {
                let mut opts = adaptive.clone();
                opts.sympvl = pade.sympvl.clone();
                r.tracer
                    .span("core.adaptive", || {
                        reduce_adaptive_with(self.system(), &opts, run)
                    })?
                    .model
            }
        };
        Ok((model, None))
    }

    fn register(&self, model: ReducedModel, hankel_bound: Option<f64>) -> Reduced {
        Reduced {
            id: self.session.adopt_model(model.clone()),
            model,
            hankel_bound,
        }
    }

    /// Adopts a model into the session store (the registry-hit path).
    pub fn adopt(&self, r: &Replay, model: &ReducedModel) -> ModelId {
        r.tracer
            .span("engine.adopt", || self.session.adopt_model(model.clone()))
    }

    /// `ReductionSession::eval`. The plan compile of a model's first
    /// eval is split out of the span afterwards.
    ///
    /// # Errors
    ///
    /// As `ReductionSession::eval`.
    pub fn eval(&self, r: &Replay, request: &EvalRequest) -> Result<Vec<EvalPoint>, SympvlError> {
        let (points, span) = r
            .tracer
            .span_id("engine.eval", || Ok(self.session.eval(request)?.points));
        if points.is_ok() && lock(&self.evaluated).insert(request.model) {
            let model = self.session.lookup_model(request.model)?;
            r.defer(Pending::Plan { span, model });
        }
        points
    }
}

/// The run seam of a multi-point reduction, through the session's pool.
struct Provider<'a> {
    session: &'a Arc<ReplaySession>,
    r: &'a Replay,
}

impl RunProvider for Provider<'_> {
    fn checkout(&mut self, _: &MnaSystem, opts: &SympvlOptions) -> Result<SympvlRun, SympvlError> {
        self.session.checkout(self.r, opts)
    }

    fn checkin(&mut self, opts: &SympvlOptions, run: SympvlRun) {
        self.session.checkin(opts, run);
    }
}

/// One service request: the netlist text, the reduction, and the
/// optional evaluation sweep — the inputs of `ServiceRequest`.
#[derive(Debug, Clone)]
pub struct Item {
    /// Netlist text.
    pub text: Arc<str>,
    /// The reduction.
    pub spec: ReduceSpec,
    /// Evaluation frequencies, Hz.
    pub eval_hz: Option<Vec<f64>>,
}

impl Item {
    /// The `ServiceRequest` the real path submits.
    ///
    /// # Errors
    ///
    /// As `ServiceRequest::from_spec` and `with_eval`.
    pub fn request(&self) -> Result<ServiceRequest, String> {
        let request =
            ServiceRequest::from_spec(&self.text, self.spec.clone()).map_err(|e| e.to_string())?;
        match &self.eval_hz {
            Some(freqs) => request.with_eval(freqs.clone()).map_err(|e| e.to_string()),
            None => Ok(request),
        }
    }
}

/// What one replayed service request returns.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The model's id in its session.
    pub id: ModelId,
    /// The session's shard key.
    pub shard_key: String,
    /// The model.
    pub model: ReducedModel,
    /// Whether the registry held it.
    pub registry_hit: bool,
    /// The evaluation sweep, if asked for.
    pub eval: Option<Vec<EvalPoint>>,
    /// The Hankel bound, for a balanced-truncation miss.
    pub hankel_bound: Option<f64>,
}

struct Resolved {
    id: ModelId,
    model: Arc<ReducedModel>,
    hit: bool,
    hankel_bound: Option<f64>,
}

/// The replay of one `ReductionService`.
pub struct ReplayService {
    opts: ServiceOptions,
    shards: Mutex<Vec<(String, Arc<ReplaySession>)>>,
    registry: Mutex<Vec<(String, Arc<ReducedModel>)>>,
}

impl ReplayService {
    /// A service with the given options.
    pub fn new(opts: ServiceOptions) -> Self {
        ReplayService {
            opts,
            shards: Mutex::new(Vec::new()),
            registry: Mutex::new(Vec::new()),
        }
    }

    /// The live session for a shard key.
    pub fn session_of(&self, shard_key: &str) -> Option<Arc<ReplaySession>> {
        lock(&self.shards)
            .iter()
            .find(|(k, _)| k == shard_key)
            .map(|(_, s)| Arc::clone(s))
    }

    /// `ServiceRequest::from_spec` (+ `with_eval`), traced.
    ///
    /// # Errors
    ///
    /// As [`Item::request`].
    pub fn ingest(&self, r: &Replay, item: &Item) -> Result<ServiceRequest, String> {
        let (request, span) = r.tracer.span_id("service.ingest", || item.request());
        r.defer(Pending::Ingest {
            span,
            text: Arc::clone(&item.text),
        });
        r.count(|c| c.ingested_bytes += item.text.len() as u64);
        request
    }

    /// `ReductionService::submit`.
    ///
    /// # Errors
    ///
    /// Any ingest, assembly, reduction, persistence or eval failure.
    pub fn submit(&self, r: &Replay, item: &Item) -> Result<Reply, String> {
        let request = self.ingest(r, item)?;
        counter_add("service", "admitted", 1);
        let session = self.session_for(r, &request)?;
        let resolved = match self.registry_get(r, request.registry_key()) {
            Some(model) => Resolved {
                id: session.adopt(r, &model),
                model,
                hit: true,
                hankel_bound: None,
            },
            None => {
                let reduced = session
                    .reduce(r, &engine_spec(&item.spec))
                    .map_err(|e| e.to_string())?;
                self.miss(r, &request, reduced)?
            }
        };
        self.finish(r, &session, item, &request, resolved)
    }

    /// `ReductionService::submit_batch` for requests the caller has
    /// already ingested with [`ReplayService::ingest`].
    pub fn submit_batch(
        &self,
        r: &Replay,
        items: &[Item],
        requests: &[ServiceRequest],
    ) -> Vec<Result<Reply, String>> {
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            counter_add("service", "admitted", 1);
            match groups.iter_mut().find(|(k, _)| *k == request.shard_key()) {
                Some((_, members)) => members.push(i),
                None => groups.push((request.shard_key(), vec![i])),
            }
        }
        let mut slots: Vec<Option<Result<Reply, String>>> = requests.iter().map(|_| None).collect();
        for (_, members) in &groups {
            let session = match self.session_for(r, &requests[members[0]]) {
                Ok(session) => session,
                Err(e) => {
                    for &i in members {
                        slots[i] = Some(Err(e.clone()));
                    }
                    continue;
                }
            };
            let probes: Vec<Option<Arc<ReducedModel>>> = members
                .iter()
                .map(|&i| self.registry_get(r, requests[i].registry_key()))
                .collect();
            let misses: Vec<ReduceSpec> = members
                .iter()
                .zip(&probes)
                .filter(|(_, p)| p.is_none())
                .map(|(&i, _)| engine_spec(&items[i].spec))
                .collect();
            let mut reduced = session.reduce_batch(r, &misses).into_iter();
            for (&i, probe) in members.iter().zip(probes) {
                let resolved = match probe {
                    Some(model) => Ok(Resolved {
                        id: session.adopt(r, &model),
                        model,
                        hit: true,
                        hankel_bound: None,
                    }),
                    None => reduced
                        .next()
                        .expect("one outcome per registry miss")
                        .map_err(|e| e.to_string())
                        .and_then(|done| self.miss(r, &requests[i], done)),
                };
                slots[i] = Some(
                    resolved.and_then(|res| self.finish(r, &session, &items[i], &requests[i], res)),
                );
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every request is in one group"))
            .collect()
    }

    fn miss(
        &self,
        r: &Replay,
        request: &ServiceRequest,
        done: Reduced,
    ) -> Result<Resolved, String> {
        let model = Arc::new(done.model);
        self.registry_put(r, request.registry_key(), &model)?;
        Ok(Resolved {
            id: done.id,
            model,
            hit: false,
            hankel_bound: done.hankel_bound,
        })
    }

    fn finish(
        &self,
        r: &Replay,
        session: &ReplaySession,
        item: &Item,
        request: &ServiceRequest,
        res: Resolved,
    ) -> Result<Reply, String> {
        let eval = match &item.eval_hz {
            Some(freqs) => {
                let request = EvalRequest::new(res.id, freqs.clone()).map_err(|e| e.to_string())?;
                Some(session.eval(r, &request).map_err(|e| e.to_string())?)
            }
            None => None,
        };
        Ok(r.tracer.span("service.finish", || Reply {
            id: res.id,
            shard_key: request.shard_key().to_string(),
            model: (*res.model).clone(),
            registry_hit: res.hit,
            eval,
            hankel_bound: res.hankel_bound,
        }))
    }

    fn session_for(
        &self,
        r: &Replay,
        request: &ServiceRequest,
    ) -> Result<Arc<ReplaySession>, String> {
        r.tracer.span("service.session", || {
            let mut shards = lock(&self.shards);
            if let Some(pos) = shards.iter().position(|(k, _)| k == request.shard_key()) {
                let entry = shards.remove(pos);
                let session = Arc::clone(&entry.1);
                shards.push(entry);
                return Ok(session);
            }
            let sys = r.tracer.span("circuit.assemble", || {
                let (ckt, _) =
                    parse_spice(request.canonical_netlist()).map_err(|e| e.to_string())?;
                MnaSystem::assemble(&ckt).map_err(|e| e.to_string())
            })?;
            let session = ReplaySession::new(sys, self.opts.session.clone());
            if shards.len() >= self.opts.max_sessions.max(1) {
                shards.remove(0);
                counter_add("service", "sessions_evicted", 1);
            }
            counter_add("service", "sessions_created", 1);
            shards.push((request.shard_key().to_string(), Arc::clone(&session)));
            Ok(session)
        })
    }

    fn rom_path(&self, key: &str) -> Option<PathBuf> {
        self.opts
            .registry_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.rom")))
    }

    fn remember(&self, key: &str, model: Arc<ReducedModel>) {
        let mut registry = lock(&self.registry);
        if let Some(pos) = registry.iter().position(|(k, _)| k == key) {
            let entry = registry.remove(pos);
            registry.push(entry);
            return;
        }
        if registry.len() >= self.opts.registry_capacity.max(1) {
            registry.remove(0);
        }
        registry.push((key.to_string(), model));
    }

    fn registry_get(&self, r: &Replay, key: &str) -> Option<Arc<ReducedModel>> {
        r.tracer.span("service.registry", || {
            {
                let mut registry = lock(&self.registry);
                if let Some(pos) = registry.iter().position(|(k, _)| k == key) {
                    let entry = registry.remove(pos);
                    let model = Arc::clone(&entry.1);
                    registry.push(entry);
                    counter_add("service", "registry_hits", 1);
                    return Some(model);
                }
            }
            if let Some(path) = self.rom_path(key) {
                let loaded = r.tracer.span("service.registry_io", || {
                    std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| read_model(&text).ok())
                });
                if let Some(model) = loaded {
                    let model = Arc::new(model);
                    self.remember(key, Arc::clone(&model));
                    counter_add("service", "registry_hits", 1);
                    return Some(model);
                }
            }
            counter_add("service", "registry_misses", 1);
            None
        })
    }

    fn registry_put(&self, r: &Replay, key: &str, model: &Arc<ReducedModel>) -> Result<(), String> {
        r.tracer.span("service.registry", || {
            if let Some(path) = self.rom_path(key) {
                r.tracer
                    .span("service.registry_io", || {
                        mpvl_obs::write_atomic(&path, &write_model(model))
                    })
                    .map_err(|e| format!("persist {}: {e}", path.display()))?;
            }
            self.remember(key, Arc::clone(model));
            Ok(())
        })
    }
}

/// The spec a registry miss runs: the caller's, without by-products.
fn engine_spec(spec: &ReduceSpec) -> ReduceSpec {
    let mut spec = spec.clone();
    spec.want = Want::default();
    spec
}
