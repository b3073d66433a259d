//! # mpvl-engine — the reduction session
//!
//! One [`ReductionSession`] is constructed from an assembled
//! [`mpvl_circuit::MnaSystem`] and serves many requests against it:
//! fixed-order Padé, adaptive Padé, multi-point rational-Krylov, and
//! low-rank balanced-truncation reductions (one backend-agnostic
//! [`ReduceSpec`]), frequency sweeps of retained reduced models
//! ([`EvalRequest`]), and exact AC sweeps of the full system. In between, the session reuses everything
//! the free functions would recompute:
//!
//! * **Factorizations** of `G + s₀C`, in a shift-keyed LRU cache
//!   ([`FactorKey`]) — symbolic analysis and numeric factorization
//!   happen once per distinct expansion point, including the failures
//!   probed by the `Shift::Auto` back-off ladder.
//! * **Lanczos state** — adaptive requests and order escalations at an
//!   already-visited shift *continue* the paused block-Lanczos process
//!   ([`sympvl::SympvlRun`]) instead of restarting it.
//! * **Reduced models** and their compiled eval plans, addressable by
//!   [`ModelId`] for later [`EvalRequest`]s.
//!
//! Each cache is an [`Lru`]; `reduce` and `eval` are one-element
//! batches, and by-products come from [`Want::by_products`].
//!
//! The free functions [`sympvl::sympvl`] and [`sympvl::reduce_adaptive`]
//! are thin wrappers over the same machinery, and the session's
//! determinism contract is that caching never shows up in the results:
//! every model, pole set, certificate, synthesis, and sweep is
//! **bit-identical** to the corresponding free-function call, for any
//! cache state, batch composition, or thread count. Exact AC sweeps of
//! the full system are not a session job: call [`mpvl_sim::ac_sweep`],
//! or keep an [`mpvl_sim::AcSweeper`] to reuse its symbolic analysis
//! across sweeps.
//!
//! ```
//! use mpvl_circuit::{generators::rc_ladder, MnaSystem};
//! use mpvl_engine::{EvalRequest, ReduceSpec, ReductionSession, Want};
//! # fn main() -> Result<(), sympvl::SympvlError> {
//! let sys = MnaSystem::assemble(&rc_ladder(60, 100.0, 1e-12)).unwrap();
//! let session = ReductionSession::new(sys);
//!
//! // A batch: three orders at one shift — one factorization, one
//! // Lanczos process resumed across all three.
//! let requests = [
//!     ReduceSpec::pade_fixed(4)?,
//!     ReduceSpec::pade_fixed(8)?.with_want(Want::model_only().with_poles()),
//!     ReduceSpec::pade_fixed(12)?,
//! ];
//! let outcomes = session.reduce_batch(&requests);
//! let order8 = outcomes[1].as_ref().unwrap();
//! assert!(order8.poles.as_ref().unwrap().len() == 8);
//!
//! // Sweep the order-12 model later, by handle.
//! let id = outcomes[2].as_ref().unwrap().model_id;
//! let sweep = session.eval(&EvalRequest::new(id, vec![1e6, 1e8, 1e9])?)?;
//! assert_eq!(sweep.points.len(), 3);
//! // Two factorization attempts total, both cached: the auto-shift
//! // probe of singular G (a cached failure) and the shifted success.
//! assert_eq!(session.cache_stats().factor_misses, 2);
//! # Ok(())
//! # }
//! ```

mod cache;
mod request;
mod session;

pub use cache::{CacheStats, FactorKey, Lru};
pub use request::{
    AdaptiveInfo, Backend, BackendKind, BalancedInfo, CrossValidateOptions, CrossValidation,
    EvalOutcome, EvalPoint, EvalRequest, ModelId, MultiPointInfo, OrderSpec, PadeSpec, ReduceSpec,
    ReductionOutcome, Want,
};
pub use session::{ReductionSession, SessionOptions};
