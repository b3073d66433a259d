//! The service proper: validated requests, session shards, admission
//! control, and the submit paths.
//!
//! # Lock discipline
//!
//! The service holds three locks of its own — the shard map, the
//! registry's in-memory tier, and the SLO counters — acquired, when
//! more than one is needed, in exactly that order:
//!
//! > `shards` → `registry` → `counters`
//!
//! (only [`ReductionService::stats`] takes more than one, holding all
//! three so the snapshot is consistent). Session-internal locks nest
//! strictly *inside* a single session call and are never held across
//! service locks, so the combined order is acyclic. Every acquisition
//! recovers from poisoning, same as the engine: a panicking request is
//! contained by `catch_unwind` at the submit boundary and must not
//! brick the service.

use crate::error::ServiceError;
use crate::hash::sha256_hex;
use crate::registry::ModelRegistry;
use mpvl_circuit::{parse_spice, to_spice, MnaSystem};
use mpvl_engine::{
    AdaptiveInfo, Backend, BalancedInfo, CrossValidation, EvalPoint, EvalRequest, ModelId,
    MultiPointInfo, OrderSpec, ReduceSpec, ReductionSession, SessionOptions, Want,
};
use mpvl_la::Complex64;
use mpvl_par::{BoundedQueue, PushError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use sympvl::{
    certify, synthesize_rc, Certificate, PointPlacement, ReducedModel, Shift, SynthesizedCircuit,
};

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resource bounds and persistence configuration for a
/// [`ReductionService`]. Workspace options idiom: `#[non_exhaustive]`,
/// chainable validating `with_*` builders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceOptions {
    /// Most live [`ReductionSession`]s kept, LRU by netlist. Evicting
    /// a session drops its retained models and caches; persisted
    /// registry entries survive.
    pub max_sessions: usize,
    /// Most requests in flight at once; the one above this is rejected
    /// immediately with [`ServiceError::Overloaded`].
    pub max_in_flight: usize,
    /// Most models held in the registry's in-memory tier, LRU.
    pub registry_capacity: usize,
    /// Directory for persisted `<key>.rom` models; `None` keeps the
    /// registry memory-only.
    pub registry_dir: Option<PathBuf>,
    /// Bounds applied to every session the service creates.
    pub session: SessionOptions,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            max_sessions: 4,
            max_in_flight: 64,
            registry_capacity: 128,
            registry_dir: None,
            session: SessionOptions::default(),
        }
    }
}

impl ServiceOptions {
    /// Starts from the defaults (4 sessions, 64 in flight, 128
    /// registry models, no persistence).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the live-session LRU.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for a zero capacity.
    pub fn with_max_sessions(mut self, n: usize) -> Result<Self, ServiceError> {
        if n == 0 {
            return Err(ServiceError::InvalidRequest {
                reason: "session capacity must be at least 1".into(),
            });
        }
        self.max_sessions = n;
        Ok(self)
    }

    /// Bounds concurrent in-flight requests (the admission ticket
    /// count).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for zero.
    pub fn with_max_in_flight(mut self, n: usize) -> Result<Self, ServiceError> {
        if n == 0 {
            return Err(ServiceError::InvalidRequest {
                reason: "in-flight capacity must be at least 1".into(),
            });
        }
        self.max_in_flight = n;
        Ok(self)
    }

    /// Bounds the registry's in-memory tier.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for zero.
    pub fn with_registry_capacity(mut self, n: usize) -> Result<Self, ServiceError> {
        if n == 0 {
            return Err(ServiceError::InvalidRequest {
                reason: "registry capacity must be at least 1".into(),
            });
        }
        self.registry_capacity = n;
        Ok(self)
    }

    /// Persists registry models under `dir` (created on first write).
    pub fn with_registry_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.registry_dir = Some(dir.into());
        self
    }

    /// Bounds applied to every session the service creates.
    pub fn with_session(mut self, session: SessionOptions) -> Self {
        self.session = session;
        self
    }
}

/// A validated unit of work: a netlist (parsed and canonicalized at
/// construction — malformed input never reaches a worker) plus the
/// reduction to perform and an optional evaluation sweep of the
/// result.
///
/// Two addresses are derived at construction:
///
/// * the **shard key** — SHA-256 of the canonical netlist — selects
///   the [`ReductionSession`] (same circuit, same session, whatever
///   whitespace or node names the caller used);
/// * the **registry key** — SHA-256 of the canonical netlist plus the
///   exact reduction options (shift and Lanczos tuning by `f64` bits,
///   order spec, adaptive probe grid) — addresses the reduced model
///   itself. [`Want`](mpvl_engine::Want) by-products and eval sweeps
///   are deliberately excluded: they are recomputed from the model,
///   bit-identically, so they must not fragment the registry.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    canonical: String,
    shard_hex: String,
    key_hex: String,
    spec: ReduceSpec,
    eval_freqs_hz: Option<Vec<f64>>,
    chaos_panic: bool,
}

impl ServiceRequest {
    /// Parses and validates `netlist`, deriving the canonical form and
    /// both content addresses, for any [`ReduceSpec`] backend. The
    /// three backends serialize to disjoint canonical leaders (see
    /// `canonical_reduction`), so a Padé, a multi-point, and a
    /// balanced-truncation model over the same netlist can never alias
    /// one registry address — even at identical orders and bands.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] on malformed input;
    /// [`ServiceError::InvalidRequest`] for a circuit with no ports
    /// (nothing to reduce against).
    pub fn from_spec(netlist: &str, spec: ReduceSpec) -> Result<Self, ServiceError> {
        let (ckt, _names) = parse_spice(netlist)?;
        if ckt.num_ports() == 0 {
            return Err(ServiceError::InvalidRequest {
                reason: "netlist declares no ports (add `P<name> <node+> <node->` cards)".into(),
            });
        }
        let canonical = to_spice(&ckt);
        let shard_hex = sha256_hex(canonical.as_bytes());
        let key_hex =
            sha256_hex(format!("{canonical}\x00{}", canonical_reduction(&spec)).as_bytes());
        Ok(ServiceRequest {
            canonical,
            shard_hex,
            key_hex,
            spec,
            eval_freqs_hz: None,
            chaos_panic: false,
        })
    }

    /// The by-products this request asks for.
    fn want(&self) -> &Want {
        &self.spec.want
    }

    /// The reduction to run on a registry miss: the caller's backend
    /// and cross-validation, with by-products stripped — those are
    /// computed in `finish`, shared with the registry-hit path.
    fn engine_spec(&self) -> ReduceSpec {
        let mut spec = self.spec.clone();
        spec.want = Want::default();
        spec
    }

    /// Also evaluate the reduced model at these frequencies (Hz).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] when the list is empty or has
    /// a non-finite entry.
    pub fn with_eval(mut self, freqs_hz: Vec<f64>) -> Result<Self, ServiceError> {
        if freqs_hz.is_empty() {
            return Err(ServiceError::InvalidRequest {
                reason: "need at least one evaluation frequency".into(),
            });
        }
        if let Some(&bad) = freqs_hz.iter().find(|f| !f.is_finite()) {
            return Err(ServiceError::InvalidRequest {
                reason: format!("evaluation frequencies must be finite, got {bad}"),
            });
        }
        self.eval_freqs_hz = Some(freqs_hz);
        Ok(self)
    }

    /// Test seam: make the handler panic mid-request, to exercise the
    /// containment guarantee. Hidden because no real caller wants it.
    #[doc(hidden)]
    pub fn with_chaos_panic(mut self) -> Self {
        self.chaos_panic = true;
        self
    }

    /// The canonical (round-trip stable) form of the netlist.
    pub fn canonical_netlist(&self) -> &str {
        &self.canonical
    }

    /// The registry content address (64 hex chars).
    pub fn registry_key(&self) -> &str {
        &self.key_hex
    }

    /// The session shard address (64 hex chars).
    pub fn shard_key(&self) -> &str {
        &self.shard_hex
    }
}

/// Revision of the Lanczos arithmetic behind Padé and multi-point
/// models. Raise it whenever the same inputs start producing different
/// bits, so registry entries written by an older build miss (and are
/// rewritten) instead of breaking the [`ServiceOutcome::registry_hit`]
/// promise that a hit returns the bits a fresh reduction would.
/// Revision 2: block classical Gram–Schmidt re-orthogonalization.
const LANCZOS_NUMERICS: u32 = 2;

/// The exact reduction identity, canonicalized: everything that can
/// change a model's bits, nothing that cannot. Floats by bit pattern —
/// "nearly the same" options must not share a model. The three
/// backends open with disjoint leaders (`order …` vs `multipoint …` vs
/// `balanced …`), so their addresses can never alias — a backend kind
/// is part of the key by construction. Cross-validation and
/// [`Want`](mpvl_engine::Want) by-products are deliberately excluded:
/// they never change the model's bits, so they must not fragment the
/// registry.
fn canonical_reduction(spec: &ReduceSpec) -> String {
    let mut s = String::new();
    let sympvl = match &spec.backend {
        Backend::Pade(p) => {
            match &p.order {
                OrderSpec::Fixed(n) => s.push_str(&format!("order fixed {n}\n")),
                OrderSpec::Adaptive(a) => {
                    s.push_str(&format!(
                        "order adaptive tol={:016x} init={} step={} max={}\nprobes",
                        a.tol.to_bits(),
                        a.initial_order,
                        a.order_step,
                        a.max_order
                    ));
                    for f in &a.probe_freqs_hz {
                        s.push_str(&format!(" {:016x}", f.to_bits()));
                    }
                    s.push('\n');
                }
            }
            match p.sympvl.shift {
                Shift::None => s.push_str("shift none\n"),
                Shift::Auto => s.push_str("shift auto\n"),
                Shift::Value(v) => s.push_str(&format!("shift value {:016x}\n", v.to_bits())),
            }
            &p.sympvl
        }
        Backend::MultiPoint(o) => {
            s.push_str(&format!(
                "multipoint band={:016x}..{:016x} total={} tol={:016x} btol={:016x}\n",
                o.f_lo.to_bits(),
                o.f_hi.to_bits(),
                o.total_order,
                o.tol.to_bits(),
                o.basis_tol.to_bits()
            ));
            match &o.placement {
                PointPlacement::Explicit(freqs) => {
                    s.push_str("points");
                    for f in freqs {
                        s.push_str(&format!(" {:016x}", f.to_bits()));
                    }
                    s.push('\n');
                }
                PointPlacement::Adaptive { max_points } => {
                    s.push_str(&format!("adaptive max_points={max_points}\n"));
                }
            }
            s.push_str("probes");
            for f in &o.probe_freqs_hz {
                s.push_str(&format!(" {:016x}", f.to_bits()));
            }
            s.push('\n');
            &o.sympvl
        }
        Backend::BalancedTruncation(o) => {
            // Balanced truncation runs no Lanczos process, so there is
            // no trailing sympvl line — the leader alone is the whole
            // identity, still disjoint from both other backends.
            match o.order {
                Some(q) => s.push_str(&format!(
                    "balanced band={:016x}..{:016x} order={q}",
                    o.f_lo.to_bits(),
                    o.f_hi.to_bits()
                )),
                None => s.push_str(&format!(
                    "balanced band={:016x}..{:016x} order=auto hsv={:016x}",
                    o.f_lo.to_bits(),
                    o.f_hi.to_bits(),
                    o.hsv_tol.to_bits()
                )),
            }
            s.push_str(&format!(
                " tol={:016x} maxbasis={} btol={:016x}\nprobes",
                o.tol.to_bits(),
                o.max_basis,
                o.basis_tol.to_bits()
            ));
            for f in &o.probe_freqs_hz {
                s.push_str(&format!(" {:016x}", f.to_bits()));
            }
            s.push('\n');
            return s;
        }
    };
    let l = &sympvl.lanczos;
    s.push_str(&format!(
        "rtol={:016x} lanczos dtol={:016x} ctol={:016x} reorth={} maxc={}\n",
        sympvl.auto_rtol.to_bits(),
        l.dtol.to_bits(),
        l.cluster_tol.to_bits(),
        l.full_reorth,
        l.max_cluster
    ));
    s.push_str(&format!("numerics {LANCZOS_NUMERICS}\n"));
    s
}

/// Result of one [`ServiceRequest`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceOutcome {
    /// Handle to the model inside its session (valid until the session
    /// is evicted or the model ages out of the session store).
    pub model_id: ModelId,
    /// The reduced model.
    pub model: ReducedModel,
    /// `true` when the model came from the registry instead of being
    /// reduced (the bits are identical either way — that is the
    /// registry's contract).
    pub registry_hit: bool,
    /// Adaptive convergence info — `None` on registry hits (the
    /// escalation history is not persisted, only its result).
    pub adaptive: Option<AdaptiveInfo>,
    /// Multi-point placement info — `None` on registry hits (the
    /// placement history is not persisted, only its result).
    pub multipoint: Option<MultiPointInfo>,
    /// Balanced-truncation diagnostics (Hankel spectrum, error bound) —
    /// `None` on registry hits (only the model is persisted).
    pub balanced: Option<BalancedInfo>,
    /// Cross-validation verdict — `None` on registry hits (the referee
    /// run is not persisted, only the primary model).
    pub cross_validation: Option<CrossValidation>,
    /// Present when [`Want::poles`](mpvl_engine::Want) was set.
    pub poles: Option<Vec<Complex64>>,
    /// Present when a certificate was requested.
    pub certificate: Option<Certificate>,
    /// Present when synthesis was requested.
    pub synthesis: Option<SynthesizedCircuit>,
    /// Present when [`ServiceRequest::with_eval`] was used.
    pub eval: Option<Vec<EvalPoint>>,
}

/// A model resolved for a request — from the registry or freshly
/// reduced — before by-products and eval are attached.
struct Resolved {
    model_id: ModelId,
    model: Arc<ReducedModel>,
    adaptive: Option<AdaptiveInfo>,
    multipoint: Option<MultiPointInfo>,
    balanced: Option<BalancedInfo>,
    cross_validation: Option<CrossValidation>,
    registry_hit: bool,
}

impl Resolved {
    /// A registry hit: only the model survives persistence, so every
    /// reduction-time diagnostic is absent by construction.
    fn from_registry(model_id: ModelId, model: Arc<ReducedModel>) -> Self {
        Resolved {
            model_id,
            model,
            adaptive: None,
            multipoint: None,
            balanced: None,
            cross_validation: None,
            registry_hit: true,
        }
    }
}

/// One consistent snapshot of the service's SLO counters (all service
/// locks held simultaneously while it is taken).
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests admitted past the in-flight bound.
    pub admitted: u64,
    /// Requests rejected with [`ServiceError::Overloaded`].
    pub rejected_overload: u64,
    /// Requests rejected with [`ServiceError::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Handler panics contained at the boundary.
    pub panics: u64,
    /// Registry lookups that found a model (memory or disk).
    pub registry_hits: u64,
    /// Registry lookups that found nothing.
    pub registry_misses: u64,
    /// Sessions evicted by the live-session LRU.
    pub sessions_evicted: u64,
    /// Live sessions right now.
    pub live_sessions: usize,
    /// Models in the registry's memory tier right now.
    pub registry_models: usize,
    /// Requests in flight right now.
    pub in_flight: usize,
}

#[derive(Default)]
struct ServiceCounters {
    admitted: u64,
    rejected_overload: u64,
    rejected_shutdown: u64,
    panics: u64,
    sessions_evicted: u64,
}

/// LRU of live sessions, keyed by shard (canonical-netlist) hash; most
/// recently used at the back.
struct ShardMap {
    capacity: usize,
    entries: Vec<(String, Arc<ReductionSession>)>,
}

/// An admission ticket: holds one slot of the in-flight bound, released
/// on drop (including when the handler panics — the guard lives outside
/// `catch_unwind`).
struct Ticket<'a>(&'a BoundedQueue<()>);

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.0.try_pop();
    }
}

/// Reduction as a service: hand it netlists, get reduced models back.
///
/// Wraps the [`ReductionSession`] engine with the operational layer a
/// long-lived server needs — see the crate docs for the tour. Shared
/// by reference across threads (`&self` everywhere); results are
/// bit-identical to driving a session directly, at any thread count.
///
/// ```
/// use mpvl_engine::ReduceSpec;
/// use mpvl_service::{ReductionService, ServiceOptions, ServiceRequest};
/// # fn main() -> Result<(), mpvl_service::ServiceError> {
/// let service = ReductionService::new(ServiceOptions::default());
/// let netlist = "R1 in mid 100\nC1 mid 0 1n\nR2 mid out 100\nC2 out 0 1n\nPdrv in 0\n.end";
/// let request = ServiceRequest::from_spec(netlist, ReduceSpec::pade_fixed(4)?)?
///     .with_eval(vec![1e6, 1e9])?;
/// let cold = service.submit(&request)?;
/// let warm = service.submit(&request)?; // same address → registry hit
/// assert!(!cold.registry_hit);
/// assert!(warm.registry_hit);
/// service.drain();
/// assert!(service.submit(&request).is_err()); // shutting down
/// # Ok(())
/// # }
/// ```
pub struct ReductionService {
    opts: ServiceOptions,
    admission: BoundedQueue<()>,
    shards: Mutex<ShardMap>,
    registry: ModelRegistry,
    counters: Mutex<ServiceCounters>,
}

impl ReductionService {
    /// Builds a service with the given bounds.
    pub fn new(opts: ServiceOptions) -> Self {
        ReductionService {
            admission: BoundedQueue::new(opts.max_in_flight),
            shards: Mutex::new(ShardMap {
                capacity: opts.max_sessions.max(1),
                entries: Vec::new(),
            }),
            registry: ModelRegistry::new(opts.registry_capacity, opts.registry_dir.clone()),
            counters: Mutex::new(ServiceCounters::default()),
            opts,
        }
    }

    /// Serves one request end to end: admission, session resolution,
    /// registry lookup, reduction on a miss, optional eval.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] / [`ServiceError::ShuttingDown`]
    /// from admission control (deterministic, nothing queued);
    /// [`ServiceError::Panicked`] when the handler panicked (contained
    /// — the service stays healthy); otherwise whatever assembly,
    /// reduction, persistence, or evaluation reported.
    pub fn submit(&self, request: &ServiceRequest) -> Result<ServiceOutcome, ServiceError> {
        let _ticket = self.admit()?;
        let _span = mpvl_obs::span("service", "submit");
        self.contain(|| self.handle(request))
    }

    /// Serves a batch. Admission is per request, in index order — when
    /// the in-flight bound leaves room for only `k` more, exactly the
    /// first `k` are admitted and the rest are rejected in place
    /// (deterministic back-pressure). Admitted requests are grouped by
    /// circuit; each group runs through
    /// [`ReductionSession::reduce_batch`] / `eval_batch`, so results
    /// are bit-identical to serial submission at any `MPVL_THREADS`.
    pub fn submit_batch(
        &self,
        requests: &[ServiceRequest],
    ) -> Vec<Result<ServiceOutcome, ServiceError>> {
        let _span = mpvl_obs::span("service", "submit_batch");
        let mut slots: Vec<Option<Result<ServiceOutcome, ServiceError>>> =
            requests.iter().map(|_| None).collect();
        let mut tickets = Vec::new();
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            match self.admit() {
                Ok(ticket) => {
                    tickets.push(ticket);
                    match groups.iter_mut().find(|(k, _)| *k == request.shard_key()) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((request.shard_key(), vec![i])),
                    }
                }
                Err(e) => slots[i] = Some(Err(e)),
            }
        }
        for (_, members) in &groups {
            self.process_group(requests, members, &mut slots);
        }
        drop(tickets);
        slots
            .into_iter()
            .map(|slot| slot.expect("every request admitted or rejected"))
            .collect()
    }

    /// Graceful shutdown: stop admitting, then block until every
    /// in-flight request has finished. Idempotent; afterwards every
    /// submit gets [`ServiceError::ShuttingDown`].
    pub fn drain(&self) {
        self.admission.close();
        self.admission.wait_empty();
    }

    /// Drops the live session for `netlist` (its retained models and
    /// caches go with it; persisted registry entries survive, so the
    /// next request for this circuit re-creates the session and warm
    /// models come back from the registry). Returns `false` when the
    /// netlist does not parse or has no live session.
    pub fn evict_session(&self, netlist: &str) -> bool {
        let Ok((ckt, _)) = parse_spice(netlist) else {
            return false;
        };
        let shard_hex = sha256_hex(to_spice(&ckt).as_bytes());
        let mut shards = relock(&self.shards);
        match shards.entries.iter().position(|(k, _)| *k == shard_hex) {
            Some(pos) => {
                shards.entries.remove(pos);
                relock(&self.counters).sessions_evicted += 1;
                mpvl_obs::counter_add("service", "sessions_evicted", 1);
                true
            }
            None => false,
        }
    }

    /// The live session for a request's circuit, if one exists (for
    /// inspection — [`ReductionSession::cache_stats`] etc.).
    pub fn session_of(&self, request: &ServiceRequest) -> Option<Arc<ReductionSession>> {
        let shards = relock(&self.shards);
        shards
            .entries
            .iter()
            .find(|(k, _)| *k == request.shard_hex)
            .map(|(_, s)| s.clone())
    }

    /// One consistent snapshot of the SLO counters: the shard, registry,
    /// and counter locks are held simultaneously (in the documented
    /// order) while it is taken, so the numbers describe one instant.
    pub fn stats(&self) -> ServiceStats {
        let shards = relock(&self.shards);
        let registry = self.registry.lock();
        let counters = relock(&self.counters);
        ServiceStats {
            admitted: counters.admitted,
            rejected_overload: counters.rejected_overload,
            rejected_shutdown: counters.rejected_shutdown,
            panics: counters.panics,
            registry_hits: registry.hits,
            registry_misses: registry.misses,
            sessions_evicted: counters.sessions_evicted,
            live_sessions: shards.entries.len(),
            registry_models: registry.len(),
            in_flight: self.admission.len(),
        }
    }

    fn admit(&self) -> Result<Ticket<'_>, ServiceError> {
        match self.admission.try_push(()) {
            Ok(()) => {
                relock(&self.counters).admitted += 1;
                mpvl_obs::counter_add("service", "admitted", 1);
                Ok(Ticket(&self.admission))
            }
            Err(PushError::Full(())) => {
                relock(&self.counters).rejected_overload += 1;
                mpvl_obs::counter_add("service", "rejected_overload", 1);
                Err(ServiceError::Overloaded {
                    capacity: self.admission.capacity(),
                })
            }
            Err(PushError::Closed(())) => {
                relock(&self.counters).rejected_shutdown += 1;
                mpvl_obs::counter_add("service", "rejected_shutdown", 1);
                Err(ServiceError::ShuttingDown)
            }
        }
    }

    /// Runs `f` with panic containment: a panic becomes
    /// [`ServiceError::Panicked`] and the service carries on (session
    /// locks recover from poisoning; the admission ticket is released
    /// by its guard outside this frame).
    fn contain<T>(&self, f: impl FnOnce() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => {
                relock(&self.counters).panics += 1;
                mpvl_obs::counter_add("service", "request_panics", 1);
                Err(ServiceError::Panicked {
                    message: panic_message(payload),
                })
            }
        }
    }

    /// The session for a request's circuit, created (and LRU-inserted)
    /// on first use. Assembly happens under the shard lock: serializing
    /// session creation is what guarantees one session per circuit.
    fn session_for(&self, request: &ServiceRequest) -> Result<Arc<ReductionSession>, ServiceError> {
        let mut shards = relock(&self.shards);
        if let Some(pos) = shards
            .entries
            .iter()
            .position(|(k, _)| *k == request.shard_hex)
        {
            let entry = shards.entries.remove(pos);
            shards.entries.push(entry);
            return Ok(shards.entries.last().expect("just pushed").1.clone());
        }
        let (ckt, _) = parse_spice(&request.canonical)
            .expect("canonical netlists round-trip through the parser");
        let sys = MnaSystem::assemble(&ckt)?;
        let session = Arc::new(ReductionSession::with_options(
            sys,
            self.opts.session.clone(),
        ));
        if shards.entries.len() >= shards.capacity {
            shards.entries.remove(0);
            relock(&self.counters).sessions_evicted += 1;
            mpvl_obs::counter_add("service", "sessions_evicted", 1);
        }
        mpvl_obs::counter_add("service", "sessions_created", 1);
        shards
            .entries
            .push((request.shard_hex.clone(), session.clone()));
        Ok(session)
    }

    fn handle(&self, request: &ServiceRequest) -> Result<ServiceOutcome, ServiceError> {
        if request.chaos_panic {
            panic!("chaos: injected request panic");
        }
        let session = self.session_for(request)?;
        let resolved = match self.registry.get(&request.key_hex) {
            Some(cached) => {
                let id = session.adopt_model((*cached).clone());
                Resolved::from_registry(id, cached)
            }
            None => {
                // By-products are computed in `finish` (shared with the
                // registry-hit path), so the engine spec carries no
                // Want of its own — only the backend and any
                // cross-validation.
                let outcome = session.reduce(&request.engine_spec())?;
                let model = Arc::new(outcome.model);
                self.registry.put(&request.key_hex, model.clone())?;
                Resolved {
                    model_id: outcome.model_id,
                    model,
                    adaptive: outcome.adaptive,
                    multipoint: outcome.multipoint,
                    balanced: outcome.balanced,
                    cross_validation: outcome.cross_validation,
                    registry_hit: false,
                }
            }
        };
        self.finish(request, &session, resolved)
    }

    /// By-products and eval for a resolved model — shared by the single
    /// and batch paths so hits and misses produce identical outcomes.
    fn finish(
        &self,
        request: &ServiceRequest,
        session: &ReductionSession,
        resolved: Resolved,
    ) -> Result<ServiceOutcome, ServiceError> {
        let Resolved {
            model_id,
            model,
            adaptive,
            multipoint,
            balanced,
            cross_validation,
            registry_hit,
        } = resolved;
        let want = request.want();
        let poles = if want.poles {
            Some(model.poles()?)
        } else {
            None
        };
        let certificate = want
            .certificate
            .map(|tol| certify(&model, tol))
            .transpose()?;
        let synthesis = want
            .synthesis
            .as_ref()
            .map(|opts| synthesize_rc(&model, opts))
            .transpose()?;
        let eval = match &request.eval_freqs_hz {
            Some(freqs) => {
                let eval_request = EvalRequest::new(model_id, freqs.clone())?;
                Some(session.eval(&eval_request)?.points)
            }
            None => None,
        };
        Ok(ServiceOutcome {
            model_id,
            model: (*model).clone(),
            registry_hit,
            adaptive,
            multipoint,
            balanced,
            cross_validation,
            poles,
            certificate,
            synthesis,
            eval,
        })
    }

    /// One shard group of a batch: registry probes per member (panic
    /// contained per member), one `reduce_batch` for all misses, then
    /// by-products/eval per member.
    fn process_group(
        &self,
        requests: &[ServiceRequest],
        members: &[usize],
        slots: &mut [Option<Result<ServiceOutcome, ServiceError>>],
    ) {
        let session = match self.session_for(&requests[members[0]]) {
            Ok(session) => session,
            Err(e) => {
                for &i in members {
                    slots[i] = Some(Err(e.clone()));
                }
                return;
            }
        };
        // Probe the registry per member; the chaos seam fires here so a
        // panicking member is contained without touching its peers.
        let probes: Vec<Result<Option<Arc<ReducedModel>>, ServiceError>> = members
            .iter()
            .map(|&i| {
                self.contain(|| {
                    if requests[i].chaos_panic {
                        panic!("chaos: injected request panic");
                    }
                    Ok(self.registry.get(&requests[i].key_hex))
                })
            })
            .collect();
        // Every miss — whatever its backend — reduces through one
        // `reduce_batch` call: the engine groups Padé specs by shared
        // run state and runs multi-point and balanced-truncation specs
        // as their own deterministic units, so the service stays
        // bit-identical to the engine at any thread count.
        let misses: Vec<ReduceSpec> = members
            .iter()
            .zip(&probes)
            .filter(|(_, p)| matches!(p, Ok(None)))
            .map(|(&i, _)| requests[i].engine_spec())
            .collect();
        let mut reduced = session.reduce_batch(&misses).into_iter();
        for (&i, probe) in members.iter().zip(probes) {
            let resolved = match probe {
                Err(e) => Err(e),
                Ok(Some(cached)) => {
                    let id = session.adopt_model((*cached).clone());
                    Ok(Resolved::from_registry(id, cached))
                }
                Ok(None) => {
                    let outcome = reduced
                        .next()
                        .expect("one outcome per registry miss")
                        .map_err(ServiceError::from);
                    match outcome {
                        Ok(outcome) => {
                            let model = Arc::new(outcome.model);
                            match self.registry.put(&requests[i].key_hex, model.clone()) {
                                Ok(()) => Ok(Resolved {
                                    model_id: outcome.model_id,
                                    model,
                                    adaptive: outcome.adaptive,
                                    multipoint: outcome.multipoint,
                                    balanced: outcome.balanced,
                                    cross_validation: outcome.cross_validation,
                                    registry_hit: false,
                                }),
                                Err(e) => Err(e),
                            }
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            slots[i] = Some(
                resolved.and_then(|r| self.contain(|| self.finish(&requests[i], &session, r))),
            );
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
