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
//! three so the snapshot is consistent, and reading the admission
//! gate's count last; the gate's own lock is never held while another
//! is taken). Session-internal locks nest
//! strictly *inside* a single session call and are never held across
//! service locks, so the combined order is acyclic. Every acquisition
//! recovers from poisoning, same as the engine: a panicking request is
//! contained by `catch_unwind` at the submit boundary and must not
//! brick the service.

use crate::admission::{Admission, Ticket};
use crate::error::ServiceError;
use crate::hash::Sha256;
use crate::registry::ModelRegistry;
use mpvl_circuit::{canonical_circuit, parse_spice_circuit, to_spice, Circuit, Element, MnaSystem};
use mpvl_engine::{
    AdaptiveInfo, Backend, BalancedInfo, CrossValidation, EvalPoint, EvalRequest, Lru, ModelId,
    MultiPointInfo, OrderSpec, ReduceSpec, ReductionSession, SessionOptions, Want,
};
use mpvl_la::Complex64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use sympvl::{Certificate, PointPlacement, ReducedModel, Shift, SympvlError, SynthesizedCircuit};

pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
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
        self.max_sessions = at_least_one(n, "session")?;
        Ok(self)
    }

    /// Bounds concurrent in-flight requests (the admission ticket
    /// count).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for zero.
    pub fn with_max_in_flight(mut self, n: usize) -> Result<Self, ServiceError> {
        self.max_in_flight = at_least_one(n, "in-flight")?;
        Ok(self)
    }

    /// Bounds the registry's in-memory tier.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for zero.
    pub fn with_registry_capacity(mut self, n: usize) -> Result<Self, ServiceError> {
        self.registry_capacity = at_least_one(n, "registry")?;
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

/// `n`, unless it is zero: then the builder of the `what` capacity fails.
fn at_least_one(n: usize, what: &str) -> Result<usize, ServiceError> {
    match n {
        0 => Err(ServiceError::InvalidRequest {
            reason: format!("{what} capacity must be at least 1"),
        }),
        n => Ok(n),
    }
}

/// A validated unit of work: a netlist (parsed and canonicalized at
/// construction — malformed input never reaches a worker) plus the
/// reduction to perform and an optional evaluation sweep of the
/// result. The request keeps the canonical circuit, so a session is
/// assembled from it without parsing the canonical text again.
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
    /// `canonical_circuit` of the parsed netlist, shared by clones.
    circuit: Arc<Circuit>,
    shard_hex: String,
    key_hex: String,
    spec: ReduceSpec,
    /// The sweep to run on the model; its id is set once it is known.
    eval: Option<EvalRequest>,
    chaos_panic: bool,
}

impl ServiceRequest {
    /// Parses and validates `netlist`, deriving the canonical form and
    /// both content addresses, for any [`ReduceSpec`] backend. The
    /// backend kind is part of the registry key, so models of different
    /// backends never alias, even at identical orders and bands.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] on malformed input;
    /// [`ServiceError::InvalidRequest`] for an element value that is
    /// not finite (`1e400`, `nan`, …; named with its element), and for
    /// a circuit with no ports (nothing to reduce against).
    pub fn from_spec(netlist: &str, spec: ReduceSpec) -> Result<Self, ServiceError> {
        let ckt = parse_spice_circuit(netlist)?;
        reject_non_finite(&ckt)?;
        if ckt.num_ports() == 0 {
            return Err(ServiceError::InvalidRequest {
                reason: "netlist declares no ports (add `P<name> <node+> <node->` cards)".into(),
            });
        }
        let (canonical, mut state) = canonical_hash(&ckt);
        let shard_hex = state.clone().finish_hex();
        state.update(b"\0");
        state.update(canonical_reduction(&spec).as_bytes());
        let key_hex = state.finish_hex();
        Ok(ServiceRequest {
            canonical,
            circuit: Arc::new(canonical_circuit(ckt)),
            shard_hex,
            key_hex,
            spec,
            eval: None,
            chaos_panic: false,
        })
    }

    /// Also evaluate the reduced model at these frequencies (Hz).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] when the list is empty or has
    /// a non-finite entry.
    pub fn with_eval(mut self, freqs_hz: Vec<f64>) -> Result<Self, ServiceError> {
        let eval = EvalRequest::new(ModelId::first(), freqs_hz).map_err(|e| match e {
            SympvlError::InvalidOptions { reason } => ServiceError::InvalidRequest { reason },
            other => ServiceError::Reduce(other),
        })?;
        self.eval = Some(eval);
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

    /// The circuit [`ServiceRequest::canonical_netlist`] parses back
    /// to, built without parsing it (see
    /// [`canonical_circuit`](mpvl_circuit::canonical_circuit)): what a
    /// session is assembled from.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
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

/// Refuses the first element whose value is not finite. Such values
/// parse (`1e400` is `inf`) but no circuit built from them assembles,
/// so they get no canonical text and no key.
fn reject_non_finite(ckt: &Circuit) -> Result<(), ServiceError> {
    for element in ckt.elements() {
        let value = match element {
            Element::Resistor { ohms: v, .. }
            | Element::Capacitor { farads: v, .. }
            | Element::Inductor { henries: v, .. }
            | Element::Mutual { k: v, .. }
            | Element::Vccs { gm: v, .. } => *v,
        };
        if !value.is_finite() {
            return Err(ServiceError::InvalidRequest {
                reason: format!("element {} has non-finite value {value}", element.name()),
            });
        }
    }
    Ok(())
}

/// The canonical text of `ckt` and the hash state after it. The state's
/// digest is the shard key, and the registry key continues from it, so
/// the text is hashed once. [`ServiceRequest::from_spec`] and
/// [`ReductionService::evict_session`] both derive the shard key here,
/// so the two addresses cannot drift.
fn canonical_hash(ckt: &Circuit) -> (String, Sha256) {
    let canonical = to_spice(ckt);
    let mut state = Sha256::new();
    state.update(canonical.as_bytes());
    (canonical, state)
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
                    push_bits(&mut s, &a.probe_freqs_hz);
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
                    push_bits(&mut s, freqs);
                }
                PointPlacement::Adaptive { max_points } => {
                    s.push_str(&format!("adaptive max_points={max_points}\n"));
                }
            }
            s.push_str("probes");
            push_bits(&mut s, &o.probe_freqs_hz);
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
            push_bits(&mut s, &o.probe_freqs_hz);
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

/// Appends each value as ` {bits:016x}`, then a newline.
fn push_bits(s: &mut String, values: &[f64]) {
    for v in values {
        s.push_str(&format!(" {:016x}", v.to_bits()));
    }
    s.push('\n');
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

impl ServiceOutcome {
    /// An outcome before `finish` attaches by-products and eval (a
    /// registry hit has no reduction diagnostics: only models persist).
    fn resolved(model_id: ModelId, model: ReducedModel, registry_hit: bool) -> Self {
        ServiceOutcome {
            model_id,
            model,
            registry_hit,
            adaptive: None,
            multipoint: None,
            balanced: None,
            cross_validation: None,
            poles: None,
            certificate: None,
            synthesis: None,
            eval: None,
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
    admission: Admission,
    /// Live sessions, keyed by shard (canonical-netlist) hash.
    shards: Mutex<Lru<String, Arc<ReductionSession>>>,
    registry: ModelRegistry,
    /// The service's own counters; `stats` fills in the rest.
    counters: Mutex<ServiceStats>,
}

impl ReductionService {
    /// Builds a service with the given bounds.
    pub fn new(opts: ServiceOptions) -> Self {
        ReductionService {
            admission: Admission::new(opts.max_in_flight),
            shards: Mutex::new(Lru::new(opts.max_sessions)),
            registry: ModelRegistry::new(opts.registry_capacity, opts.registry_dir.clone()),
            counters: Mutex::new(ServiceStats::default()),
            opts,
        }
    }

    /// Serves one request end to end: admission, session resolution,
    /// registry lookup, reduction on a miss, optional eval — as a
    /// one-element [`ReductionService::submit_batch`].
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
        self.serve_group(std::slice::from_ref(request), &[0])
            .pop()
            .expect("one result per member")
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
            for (&i, result) in members.iter().zip(self.serve_group(requests, members)) {
                slots[i] = Some(result);
            }
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
        self.admission.drain();
    }

    /// Drops the live session for `netlist` (its retained models and
    /// caches go with it; persisted registry entries survive, so the
    /// next request for this circuit re-creates the session and warm
    /// models come back from the registry). Returns `false` when the
    /// netlist does not parse or has no live session.
    pub fn evict_session(&self, netlist: &str) -> bool {
        let Ok(ckt) = parse_spice_circuit(netlist) else {
            return false;
        };
        let shard_hex = canonical_hash(&ckt).1.finish_hex();
        let mut shards = relock(&self.shards);
        let live = shards.remove(&shard_hex).is_some();
        if live {
            self.count_session_eviction();
        }
        live
    }

    /// The live session for a request's circuit, if one exists (for
    /// inspection — [`ReductionSession::cache_stats`] etc.).
    pub fn session_of(&self, request: &ServiceRequest) -> Option<Arc<ReductionSession>> {
        relock(&self.shards).peek(&request.shard_hex).cloned()
    }

    /// One consistent snapshot of the SLO counters: the shard, registry,
    /// and counter locks are held simultaneously (in the documented
    /// order) while it is taken, so the numbers describe one instant.
    pub fn stats(&self) -> ServiceStats {
        let shards = relock(&self.shards);
        let registry = self.registry.lock();
        let counters = relock(&self.counters);
        ServiceStats {
            registry_hits: registry.hits,
            registry_misses: registry.misses,
            live_sessions: shards.len(),
            registry_models: registry.entries.len(),
            in_flight: self.admission.in_flight(),
            ..counters.clone()
        }
    }

    /// Takes an admission ticket, counting the admission or the
    /// rejection. The ticket is released on drop, also when the handler
    /// panics: it lives outside `catch_unwind`.
    fn admit(&self) -> Result<Ticket<'_>, ServiceError> {
        let admitted = self.admission.try_enter();
        let mut counters = relock(&self.counters);
        let (count, name) = match &admitted {
            Ok(_) => (&mut counters.admitted, "admitted"),
            Err(ServiceError::ShuttingDown) => {
                (&mut counters.rejected_shutdown, "rejected_shutdown")
            }
            Err(_) => (&mut counters.rejected_overload, "rejected_overload"),
        };
        *count += 1;
        mpvl_obs::counter_add("service", name, 1);
        admitted
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

    fn count_session_eviction(&self) {
        relock(&self.counters).sessions_evicted += 1;
        mpvl_obs::counter_add("service", "sessions_evicted", 1);
    }

    /// The session for a request's circuit, created (and LRU-inserted)
    /// on first use. Assembly happens under the shard lock: serializing
    /// session creation is what guarantees one session per circuit.
    fn session_for(&self, request: &ServiceRequest) -> Result<Arc<ReductionSession>, ServiceError> {
        let mut shards = relock(&self.shards);
        if let Some(session) = shards.get(&request.shard_hex) {
            return Ok(session.clone());
        }
        let sys = MnaSystem::assemble(&request.circuit)?;
        let session = Arc::new(ReductionSession::with_options(
            sys,
            self.opts.session.clone(),
        ));
        let evicted = shards.insert(request.shard_hex.clone(), session.clone());
        if evicted.is_some() {
            self.count_session_eviction();
        }
        mpvl_obs::counter_add("service", "sessions_created", 1);
        Ok(session)
    }

    /// Serves `members` of `requests` (one circuit), results in member
    /// order. Every stage runs under [`ReductionService::contain`]:
    /// session creation and the misses' one `reduce_batch` per group,
    /// the registry probe, put, by-products and eval per member.
    fn serve_group(
        &self,
        requests: &[ServiceRequest],
        members: &[usize],
    ) -> Vec<Result<ServiceOutcome, ServiceError>> {
        let session = match self.contain(|| self.session_for(&requests[members[0]])) {
            Ok(session) => session,
            Err(e) => return members.iter().map(|_| Err(e.clone())).collect(),
        };
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
        // Every miss, whatever its backend, reduces through one
        // `reduce_batch`, so the service stays bit-identical to the
        // engine at any thread count. By-products are stripped here and
        // computed in `finish`, shared with the registry-hit path.
        let misses: Vec<ReduceSpec> = members
            .iter()
            .zip(&probes)
            .filter(|(_, p)| matches!(p, Ok(None)))
            .map(|(&i, _)| requests[i].spec.clone().with_want(Want::default()))
            .collect();
        let mut reduced = match self.contain(|| Ok(session.reduce_batch(&misses))) {
            Ok(outcomes) => outcomes
                .into_iter()
                .map(|r| r.map_err(ServiceError::from))
                .collect(),
            Err(e) => vec![Err(e); misses.len()],
        }
        .into_iter();
        members
            .iter()
            .zip(probes)
            .map(|(&i, probe)| {
                let request = &requests[i];
                match probe? {
                    Some(cached) => self.contain(|| {
                        let id = session.adopt_model((*cached).clone());
                        let outcome = ServiceOutcome::resolved(id, (*cached).clone(), true);
                        self.finish(request, &session, outcome)
                    }),
                    None => {
                        let fresh = reduced.next().expect("one outcome per registry miss")?;
                        self.contain(|| {
                            self.registry
                                .put(&request.key_hex, Arc::new(fresh.model.clone()))?;
                            let outcome = ServiceOutcome {
                                adaptive: fresh.adaptive,
                                multipoint: fresh.multipoint,
                                balanced: fresh.balanced,
                                cross_validation: fresh.cross_validation,
                                ..ServiceOutcome::resolved(fresh.model_id, fresh.model, false)
                            };
                            self.finish(request, &session, outcome)
                        })
                    }
                }
            })
            .collect()
    }

    /// By-products and eval for a resolved model — shared by registry
    /// hits and fresh reductions so both produce identical outcomes.
    fn finish(
        &self,
        request: &ServiceRequest,
        session: &ReductionSession,
        mut outcome: ServiceOutcome,
    ) -> Result<ServiceOutcome, ServiceError> {
        (outcome.poles, outcome.certificate, outcome.synthesis) =
            request.spec.want.by_products(&outcome.model)?;
        if let Some(eval) = &request.eval {
            let mut eval = eval.clone();
            eval.model = outcome.model_id;
            outcome.eval = Some(session.eval(&eval)?.points);
        }
        Ok(outcome)
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
