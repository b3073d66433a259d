//! # mpvl-circuit — RLC netlists, MNA assembly and workloads
//!
//! The circuit-level substrate of the SyMPVL reproduction:
//!
//! * [`Circuit`] — the netlist data model (R, C, L, mutual couplings,
//!   ports), with validation and classification into the paper's RC / RL /
//!   LC / RLC cases.
//! * [`MnaSystem`] — symmetric MNA assembly of `(G, C, B)` per eq. (3) and
//!   the §2.2 special forms, including the LC `σ = s²` transformation.
//! * [`parse_spice`] / [`to_spice`] — a SPICE-like netlist dialect, used
//!   both for input and for writing out synthesized reduced circuits.
//! * [`generators`] — synthetic workloads standing in for the paper's
//!   proprietary examples (see `DESIGN.md` §5): a PEEC-style LC structure,
//!   a 64-pin package model, and a multi-wire coupled-RC interconnect.

// Numerical kernels follow the textbook index-based formulations;
// iterator rewrites obscure the math they mirror.
#![allow(clippy::needless_range_loop)]

mod mna;
mod netlist;
mod parser;

pub mod generators;

pub use mna::{MnaError, MnaSystem};
pub use netlist::{Circuit, CircuitClass, CircuitError, Element, Node, Port, GROUND};
pub use parser::{
    canonical_circuit, parse_spice, parse_spice_circuit, parse_value, to_spice, to_spice_subckt,
    ParseError,
};
