//! [`SympvlError`], the error type of the SyMPVL core. Each layer keeps
//! its own error type; a driver that mixes layers can return
//! `Box<dyn std::error::Error>` and use `?` throughout.

use std::fmt;

/// Errors from reduction, synthesis, and the baselines.
#[derive(Debug, Clone, PartialEq)]
pub enum SympvlError {
    /// `G + s₀C` could not be factored even after the dense fallback;
    /// usually means the expansion point sits on a pole or the circuit is
    /// degenerate (floating nodes with no elements).
    Factorization {
        /// Explanation from the failing factorization.
        reason: String,
    },
    /// An eigenvalue iteration inside a certificate or pole computation
    /// failed to converge.
    Eigen {
        /// Explanation.
        reason: String,
    },
    /// The requested operation needs a `J = I` (RC/RL/LC) model but the
    /// model was built from an indefinite `G`.
    RequiresDefiniteForm {
        /// What was requested.
        operation: &'static str,
    },
    /// A dense solve inside evaluation or synthesis hit a singular matrix.
    Singular {
        /// Where it happened.
        context: &'static str,
    },
    /// The requested reduction order is not achievable (e.g. zero).
    BadOrder {
        /// The offending order.
        order: usize,
    },
    /// Reduced-circuit synthesis could not proceed.
    Synthesis {
        /// Explanation.
        reason: String,
    },
    /// The expansion point `s₀` is NaN or infinite — a shifted system
    /// `G + s₀C` built from it would factor (or fail) nonsensically.
    BadShift {
        /// The offending expansion point.
        s0: f64,
    },
    /// The system has dimension zero: nothing to reduce, and every
    /// "is the factorization well conditioned" test would be vacuous.
    EmptySystem,
    /// An options builder (`with_*` / `for_band`) was handed a value that
    /// can never be valid — caught at construction time, not deep inside
    /// the run.
    InvalidOptions {
        /// What was wrong.
        reason: String,
    },
    /// A session-retained model was evicted by the store's capacity
    /// bound before this request reached it. The id is permanently
    /// retired (ids are never reused) — re-reduce, or raise
    /// `SessionOptions::max_retained_models`.
    ModelEvicted {
        /// The retired model id (the `index()` of the session engine's
        /// evicted `ModelId` handle).
        id: usize,
    },
}

impl fmt::Display for SympvlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SympvlError::Factorization { reason } => {
                write!(f, "cannot factor G + s0*C: {reason}")
            }
            SympvlError::Eigen { reason } => write!(f, "eigenvalue iteration failed: {reason}"),
            SympvlError::RequiresDefiniteForm { operation } => {
                write!(f, "{operation} requires an RC/RL/LC (J = I) model")
            }
            SympvlError::Singular { context } => {
                write!(f, "singular matrix encountered in {context}")
            }
            SympvlError::BadOrder { order } => write!(f, "invalid reduction order {order}"),
            SympvlError::Synthesis { reason } => write!(f, "synthesis failed: {reason}"),
            SympvlError::BadShift { s0 } => {
                write!(f, "expansion point s0 = {s0} is not finite")
            }
            SympvlError::EmptySystem => write!(f, "system has dimension zero"),
            SympvlError::InvalidOptions { reason } => {
                write!(f, "invalid options: {reason}")
            }
            SympvlError::ModelEvicted { id } => {
                write!(
                    f,
                    "model {id} was evicted from the session store (ids are never \
                     reused; re-reduce or raise the retained-model capacity)"
                )
            }
        }
    }
}

impl std::error::Error for SympvlError {}
