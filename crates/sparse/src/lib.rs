//! # mpvl-sparse — sparse symmetric linear algebra for the SyMPVL reproduction
//!
//! The circuit matrices `G` and `C` of the paper's eq. (3) are large, sparse
//! and symmetric. This crate provides everything needed to assemble and
//! factor them:
//!
//! * [`TripletMat`] — coordinate-format accumulator matching MNA "stamping".
//! * [`CscMat`] — compressed sparse columns with the symmetric helpers the
//!   solvers need (`permute_sym`, `add_scaled`, `adjacency`).
//! * [`Ordering`] / [`rcm`] / [`min_degree`] / [`quotient_min_degree`] —
//!   fill-reducing orderings. [`Ordering::MinDegree`] is the default: the
//!   explicit [`min_degree`] up to [`EXPLICIT_MD_MAX`] unknowns, the
//!   quotient-graph [`quotient_min_degree`] above.
//! * [`NumericLdlt`] — unpivoted up-looking supernodal LDLᵀ, generic over
//!   `f64` and [`mpvl_la::Complex64`] (the latter serves AC analysis
//!   `G + jωC`). [`NumericLdlt::factor`] factors one matrix;
//!   [`NumericLdlt::refactor`] reuses a shared [`SymbolicLdlt`] (ordering,
//!   etree, `L` pattern) across many same-pattern matrices, the hot-loop
//!   structure of an AC frequency sweep. The paper's `G = M J Mᵀ` view
//!   (eq. 15) of a real factor lives one layer up, in `sympvl::GFactor`.
//!
//! # Examples
//!
//! ```
//! use mpvl_sparse::{TripletMat, NumericLdlt, Ordering};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny conductance matrix, stamped like a circuit.
//! let mut g = TripletMat::new(2, 2);
//! g.push(0, 0, 1.0);        // R to ground at node 0
//! g.push_sym(0, 1, -0.5);   // R between nodes 0 and 1
//! g.push(0, 0, 0.5);
//! g.push(1, 1, 0.5);
//! let g = g.to_csc();
//! let f = NumericLdlt::factor(&g, Ordering::MinDegree)?;
//! let v = f.solve(&[0.0, 1.0]); // unit current into node 1
//! assert!(v[1] > v[0] && v[0] > 0.0);
//! # Ok(())
//! # }
//! ```

// Numerical kernels follow the textbook index-based formulations;
// iterator rewrites obscure the math they mirror.
#![allow(clippy::needless_range_loop)]

mod amd;
mod csc;
mod ldlt;
mod order;
mod triplet;

pub use amd::quotient_min_degree;
pub use csc::{AddScaledPlan, CscMat};
pub use ldlt::{LdltError, NumericLdlt, SymbolicLdlt, ROW_SOLVE_WIDTH};
pub use order::{compute_ordering, is_permutation, min_degree, rcm, Ordering, EXPLICIT_MD_MAX};
pub use triplet::TripletMat;
