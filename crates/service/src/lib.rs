//! Reduction as a service: the operational layer over the
//! [`mpvl_engine`] session.
//!
//! A long-lived server that reduces circuits for many clients needs
//! more than a fast reducer. This crate wraps [`ReductionSession`]
//! (one circuit, many requests) with the four things a service
//! boundary adds, all zero-dependency like the rest of the workspace:
//!
//! 1. **Netlist ingestion** — [`ServiceRequest`] parses and validates
//!    the SPICE text at construction, so malformed input is rejected
//!    before it ever reaches a worker, and canonicalizes it
//!    ([`mpvl_circuit::to_spice`]) so formatting and node naming don't
//!    fragment anything downstream.
//! 2. **A content-addressed model registry** — the SHA-256 of the
//!    canonical netlist plus the exact reduction options addresses the
//!    reduced model. Same circuit + same options = same model bits, so
//!    the second request anywhere (including another process, via the
//!    persisted `<key>.rom` directory) is a registry hit that skips
//!    the reduction entirely.
//! 3. **Session sharding** — live sessions are kept in an LRU keyed by
//!    circuit, so a service juggling many netlists bounds its memory
//!    while each circuit still gets the full benefit of cached
//!    factorizations and resumable Lanczos runs.
//! 4. **Admission control** — a bounded in-flight ticket pool
//!    ([`mpvl_par::BoundedQueue`]). The request over the bound is
//!    rejected *immediately and deterministically* with
//!    [`ServiceError::Overloaded`] — no unbounded queue, no tail
//!    latency cliff — and [`ReductionService::drain`] gives a graceful
//!    shutdown barrier. Handler panics are contained at the boundary
//!    ([`ServiceError::Panicked`]); the engine's locks recover from
//!    poisoning, so one crashing request never bricks the session for
//!    the next.
//!
//! Determinism is inherited, not re-proven: the service adds routing
//! and caching around the engine, and every model or sweep it returns
//! is bit-identical to driving [`ReductionSession`] directly, at any
//! `MPVL_THREADS`, warm or cold.
//!
//! ```
//! use mpvl_engine::ReduceSpec;
//! use mpvl_service::{ReductionService, ServiceOptions, ServiceRequest};
//! # fn main() -> Result<(), mpvl_service::ServiceError> {
//! let service = ReductionService::new(ServiceOptions::default());
//! let netlist = "R1 in mid 50\nC1 mid 0 2n\nR2 mid out 50\nC2 out 0 1n\nPdrv in 0\n.end";
//! let request = ServiceRequest::from_spec(netlist, ReduceSpec::pade_fixed(3)?)?;
//! let outcome = service.submit(&request)?;
//! assert!(outcome.model.order() >= 1);
//! assert!(service.submit(&request)?.registry_hit); // content-addressed
//! # Ok(())
//! # }
//! ```
//!
//! The registry key includes the *backend kind*: a Padé, a multi-point,
//! and a balanced-truncation request over the same netlist serialize to
//! disjoint canonical leaders, so their models can never alias one
//! address — even at identical orders and bands.

mod error;
mod hash;
mod registry;
mod service;

pub use error::ServiceError;
pub use hash::sha256_hex;
pub use service::{ReductionService, ServiceOptions, ServiceOutcome, ServiceRequest, ServiceStats};

// Convenience re-exports so a service caller needs one `use` line.
pub use mpvl_engine::{Backend, BackendKind, ReduceSpec, ReductionSession, SessionOptions, Want};
