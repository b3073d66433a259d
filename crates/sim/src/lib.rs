//! # mpvl-sim — linear circuit simulator substrate
//!
//! The "SPICE-type circuit simulator" side of the SyMPVL paper, restricted
//! to the linear analyses the evaluation needs:
//!
//! * [`ac_sweep`] — exact frequency-domain analysis of an assembled
//!   [`mpvl_circuit::MnaSystem`] via sparse complex-symmetric LDLᵀ solves.
//!   Produces the "exact" curves of Figures 2–4.
//! * [`transient`] — fixed-step backward-Euler / trapezoidal integration of
//!   the MNA descriptor system `Gx + Cẋ = Bu(t)`, used for Figure 5 (full
//!   vs. synthesized-reduced waveforms and the CPU-time comparison).
//! * [`Waveform`] — step / pulse / PWL / sine current sources.
//! * [`dc_operating_point`] / [`dc_resistance_matrix`] — DC analysis.
//! * [`z_to_s`] and friends — Z/Y/S network-parameter conversions.

// Numerical kernels follow the textbook index-based formulations;
// iterator rewrites obscure the math they mirror.
#![allow(clippy::needless_range_loop)]

mod ac;
mod dc;
mod measure;
mod params;
mod solver;
mod transient;
mod waveform;

pub use ac::{ac_sweep, lin_space, log_space, AcError, AcPoint, AcSweeper, FreqGrid, GridError};
pub use dc::{dc_operating_point, dc_resistance_matrix, DcError, DcPoint};
pub use measure::{max_deviation, Trace, TraceError};
pub use params::{s_row_activity, s_to_z, y_to_z, z_to_s, z_to_y, ConvertParamsError};
pub use transient::{transient, Integrator, TransientError, TransientResult};
pub use waveform::Waveform;
