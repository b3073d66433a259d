//! # sympvl — matrix-Padé reduced-order modeling of RLC multi-ports
//!
//! A from-scratch Rust reproduction of **Freund & Feldmann, "Reduced-Order
//! Modeling of Large Linear Passive Multi-Terminal Circuits Using
//! Matrix-Padé Approximation" (DATE 1998)** — the SyMPVL algorithm.
//!
//! Given an RLC multi-port assembled as `Z(s) = Bᵀ(G + σC)⁻¹B`
//! ([`mpvl_circuit::MnaSystem`]), [`sympvl`] factors `G + s₀C = M J Mᵀ`,
//! runs a symmetric block-Lanczos process with deflation and look-ahead
//! ([`block_lanczos`], Algorithm 1 of the paper), and returns a
//! [`ReducedModel`] — the `n`-th matrix-Padé approximant `Zₙ(s)` of the
//! full transfer function, typically orders of magnitude smaller than the
//! circuit. For RC, RL, and LC circuits the model is **provably stable and
//! passive** at every order ([`certify`], §5 of the paper); it can be
//! synthesized back into a netlist ([`synthesize_rc`], §6) or stamped
//! directly into a simulator Jacobian ([`ReducedModel::stamp`], eq. 23).
//!
//! # Examples
//!
//! ```
//! use mpvl_circuit::{generators::rc_ladder, MnaSystem};
//! use mpvl_la::Complex64;
//! use sympvl::{sympvl, certify, Certificate, SympvlOptions};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = MnaSystem::assemble(&rc_ladder(100, 50.0, 1e-12))?;
//! let model = sympvl(&sys, 10, &SympvlOptions::default())?;
//! // 10 states stand in for 100, matching 20 moments of Z(s)...
//! assert_eq!(model.matched_moments(), 20);
//! // ...and the model is provably passive (RC circuit, §5).
//! assert!(matches!(certify(&model, 1e-10)?, Certificate::ProvablyPassive { .. }));
//! let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e8);
//! let err = (model.eval(s)?[(0, 0)] - sys.dense_z(s)?[(0, 0)]).abs();
//! assert!(err / sys.dense_z(s)?[(0, 0)].abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

// Numerical kernels follow the textbook index-based formulations;
// iterator rewrites obscure the math they mirror.
#![allow(clippy::needless_range_loop)]

mod adaptive;
mod balanced;
mod error;
mod eval;
mod factor;
mod io;
mod lanczos;
mod model;
mod moments;
mod multipoint;
mod operator;
mod passivity;
mod postprocess;
mod reduce;
mod run;
mod state_space;
mod sypvl;

pub mod baselines;
pub mod synthesis;

pub use adaptive::{
    band_disagreement, reduce_adaptive, reduce_adaptive_with, AdaptiveOptions, AdaptiveOutcome,
};
pub use balanced::{reduce_balanced, reduce_balanced_via, BalancedOutcome, BtOptions};
pub use error::SympvlError;
pub use eval::{EvalPlan, EvalWorkspace};
pub use factor::GFactor;
pub use io::{read_model, write_model};
pub use lanczos::{block_lanczos, BlockLanczos, LanczosOptions, LanczosOutcome, LinearOperator};
pub use model::{ReducedModel, StampMatrices};
pub use moments::exact_moments;
pub use multipoint::{
    expansion_shift, reduce_multipoint, reduce_multipoint_with, FreshRuns, MultiPointOptions,
    MultiPointOutcome, PointPlacement, RunProvider,
};
pub use operator::KrylovOperator;
pub use passivity::{certify, is_stable, sampled_passivity, Certificate, PassivityScan};
pub use postprocess::{stabilize, PoleResidueModel, PostprocessOptions};
pub use reduce::{
    factor_target, factor_with_options_via, sympvl, FactorTarget, Shift, SympvlOptions,
    DEFAULT_AUTO_RTOL,
};
pub use run::SympvlRun;
pub use state_space::simulate_stamp;
pub use synthesis::{
    foster_synthesis, synthesize_rc, FosterSection, SynthesisOptions, SynthesizedCircuit,
};
pub use sypvl::{cauer_synthesis, CauerSection, SypvlModel};
