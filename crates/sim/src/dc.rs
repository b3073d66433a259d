//! DC operating-point analysis.
//!
//! At DC capacitors are open and inductors are shorts; the operating point
//! of `Gx + Cẋ = Bu` with constant `u` solves `Gx = Bu`. For circuits
//! whose `G` is singular (floating capacitor islands — no DC path), the
//! affected unknowns have no unique DC value and the solve reports it.

use mpvl_circuit::MnaSystem;
use mpvl_la::{Lu, Mat};
use mpvl_sparse::{LdltError, NumericLdlt, Ordering};
use std::error::Error;
use std::fmt;

/// A DC solver for `G`: sparse LDLᵀ when the matrix is symmetric and it
/// factors; dense pivoted LU otherwise (zero diagonal blocks from
/// inductor-current unknowns, or nonsymmetric `G` from active elements).
enum DcSolver {
    Sparse(NumericLdlt<f64>),
    Dense(Lu<f64>),
}

impl DcSolver {
    fn build(sys: &MnaSystem) -> Result<Self, DcError> {
        if sys.is_symmetric() {
            if let Ok(f) = NumericLdlt::factor(&sys.g, Ordering::MinDegree) {
                return Ok(DcSolver::Sparse(f));
            }
        }
        match Lu::new(sys.g.to_dense()) {
            Ok(lu) => Ok(DcSolver::Dense(lu)),
            Err(e) => Err(DcError::NoDcPath(LdltError::ZeroPivot {
                col: e.step,
                magnitude: 0.0,
            })),
        }
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            DcSolver::Sparse(f) => f.solve(b),
            DcSolver::Dense(lu) => lu.solve(b).expect("factored nonsingular"),
        }
    }
}

/// Error from DC analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum DcError {
    /// `G` is singular: some node has no DC path to ground.
    NoDcPath(LdltError),
    /// The system is not in the directly solvable `σ = s` form.
    NotTimeDomain {
        /// The system's `s_power`.
        s_power: u32,
    },
}

impl fmt::Display for DcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcError::NoDcPath(e) => {
                write!(f, "no unique DC operating point (G singular: {e})")
            }
            DcError::NotTimeDomain { s_power } => {
                write!(
                    f,
                    "DC analysis needs the σ = s form, got s_power = {s_power}"
                )
            }
        }
    }
}

impl Error for DcError {}

/// The DC operating point for given constant port currents.
#[derive(Debug, Clone)]
pub struct DcPoint {
    /// Full unknown vector (node voltages, then inductor currents).
    pub x: Vec<f64>,
    /// Port voltages `Bᵀx`.
    pub port_voltages: Vec<f64>,
}

/// Solves the DC operating point `G x = B u` for constant port currents
/// `u` (amps).
///
/// # Errors
///
/// * [`DcError::NotTimeDomain`] for `σ = s²` (LC) systems.
/// * [`DcError::NoDcPath`] when `G` is singular.
///
/// # Panics
///
/// Panics if `u.len()` differs from the port count.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{Circuit, MnaSystem};
/// use mpvl_sim::dc_operating_point;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let n1 = ckt.add_node();
/// ckt.add_resistor("R1", n1, 0, 1.0e3);
/// ckt.add_port("p", n1, 0);
/// let sys = MnaSystem::assemble_general(&ckt)?;
/// let dc = dc_operating_point(&sys, &[1.0e-3])?;
/// assert!((dc.port_voltages[0] - 1.0).abs() < 1e-12); // 1 mA × 1 kΩ
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(sys: &MnaSystem, u: &[f64]) -> Result<DcPoint, DcError> {
    if sys.s_power != 1 {
        return Err(DcError::NotTimeDomain {
            s_power: sys.s_power,
        });
    }
    assert_eq!(u.len(), sys.num_ports(), "one current per port");
    let fac = DcSolver::build(sys)?;
    let rhs = sys.b.matvec(u);
    let x = fac.solve(&rhs);
    let port_voltages = sys.b.t_matvec(&x);
    Ok(DcPoint { x, port_voltages })
}

/// Computes the DC resistance matrix `R = BᵀG⁻¹B` (the `σ → 0` limit of
/// `Z`), column by column.
///
/// # Errors
///
/// See [`dc_operating_point`].
pub fn dc_resistance_matrix(sys: &MnaSystem) -> Result<Mat<f64>, DcError> {
    if sys.s_power != 1 {
        return Err(DcError::NotTimeDomain {
            s_power: sys.s_power,
        });
    }
    let fac = DcSolver::build(sys)?;
    let p = sys.num_ports();
    let mut r = Mat::zeros(p, p);
    for j in 0..p {
        let x = fac.solve(sys.b.col(j));
        let col = sys.b.t_matvec(&x);
        r.col_mut(j).copy_from_slice(&col);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::{Circuit, GROUND};

    fn divider() -> MnaSystem {
        // n1 -100Ω- n2 -50Ω- gnd, ports at n1 and n2.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_resistor("R1", n1, n2, 100.0);
        ckt.add_resistor("R2", n2, GROUND, 50.0);
        ckt.add_port("a", n1, GROUND);
        ckt.add_port("b", n2, GROUND);
        MnaSystem::assemble_general(&ckt).unwrap()
    }

    #[test]
    fn divider_operating_point() {
        let sys = divider();
        let dc = dc_operating_point(&sys, &[2e-3, 0.0]).unwrap();
        assert!((dc.port_voltages[0] - 0.3).abs() < 1e-12); // 2mA * 150
        assert!((dc.port_voltages[1] - 0.1).abs() < 1e-12); // 2mA * 50
    }

    #[test]
    fn dc_resistance_matrix_matches_hand_values() {
        let sys = divider();
        let r = dc_resistance_matrix(&sys).unwrap();
        assert!((r[(0, 0)] - 150.0).abs() < 1e-9);
        assert!((r[(0, 1)] - 50.0).abs() < 1e-9);
        assert!((r[(1, 1)] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn inductors_are_dc_shorts() {
        // Port - L - R to ground: DC resistance is just R.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_inductor("L1", n1, n2, 1e-6);
        ckt.add_resistor("R1", n2, GROUND, 42.0);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let r = dc_resistance_matrix(&sys).unwrap();
        assert!((r[(0, 0)] - 42.0).abs() < 1e-9);
    }

    #[test]
    fn floating_cap_island_reports_no_dc_path() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_capacitor("C1", n1, GROUND, 1e-12);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        assert!(matches!(
            dc_operating_point(&sys, &[1e-3]),
            Err(DcError::NoDcPath(_))
        ));
    }

    #[test]
    fn rejects_sigma_squared() {
        use mpvl_circuit::generators::{peec, PeecParams};
        let m = peec(&PeecParams {
            cells: 8,
            output_cell: 4,
            ..PeecParams::default()
        });
        assert!(matches!(
            dc_operating_point(&m.system, &[0.0, 0.0]),
            Err(DcError::NotTimeDomain { .. })
        ));
    }

    #[test]
    fn dc_matches_transient_steady_state() {
        use crate::{transient, Integrator, Waveform};
        let sys = divider();
        let dc = dc_operating_point(&sys, &[1e-3, 0.0]).unwrap();
        let res = transient(
            &sys,
            &[
                Waveform::Step {
                    t0: 0.0,
                    amplitude: 1e-3,
                },
                Waveform::Zero,
            ],
            1e-9,
            50,
            Integrator::BackwardEuler,
        )
        .unwrap();
        // Purely resistive: instant settling.
        assert!((res.port_voltages[(50, 0)] - dc.port_voltages[0]).abs() < 1e-9);
    }
}
