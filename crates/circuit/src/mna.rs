//! Modified nodal analysis (MNA) assembly.
//!
//! Builds the symmetric matrix triple `(G, C, B)` of the paper's eq. (3)–(6)
//! from a [`Circuit`], in one of the forms of §2.1–2.2:
//!
//! * **General RLC** (eq. 3): unknowns are the non-datum node voltages plus
//!   the inductor currents; `G` and `C` are symmetric and in general
//!   indefinite, and `Z(s) = Bᵀ(G + sC)⁻¹B`.
//! * **RC** (§2.2): node voltages only, `G = AᵍᵀΓAᵍ`, `C = AᶜᵀCAᶜ`, both
//!   positive semi-definite.
//! * **RL** (§2.2): after multiplying by `s`, `G = Aˡᵀ𝓛⁻¹Aˡ`,
//!   `C = AᵍᵀΓAᵍ` and `Z(s) = s·Bᵀ(G + sC)⁻¹B`.
//! * **LC** (§2.2, eq. 9): `G = Aˡᵀ𝓛⁻¹Aˡ`, `C = AᶜᵀCAᶜ`, the Laplace
//!   variable enters as `σ = s²`, and `Z(s) = s·Bᵀ(G + s²C)⁻¹B`.
//!
//! The returned [`MnaSystem`] records the `σ = s^{s_power}` substitution and
//! the leading `s^{output_s_factor}` so every consumer (AC reference sweep,
//! SyMPVL reduction, baselines) evaluates the *same* transfer function.

use crate::{Circuit, CircuitClass, CircuitError, Element};
use mpvl_la::{Complex64, Lu, Mat};
use mpvl_sparse::{CscMat, TripletMat};
use std::error::Error;
use std::fmt;

/// Errors from MNA assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum MnaError {
    /// The circuit failed validation.
    Circuit(CircuitError),
    /// The inductance matrix of a coupling group is not positive definite.
    InductanceNotPd {
        /// Name of an inductor in the offending group.
        group_member: String,
    },
    /// The requested special form does not match the circuit class.
    WrongForm {
        /// The circuit's actual class.
        class: CircuitClass,
        /// The requested form.
        requested: &'static str,
    },
    /// The circuit has no unknowns (every node is ground).
    Empty,
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::Circuit(e) => write!(f, "invalid circuit: {e}"),
            MnaError::InductanceNotPd { group_member } => write!(
                f,
                "inductance matrix of the coupling group containing {group_member} is not positive definite"
            ),
            MnaError::WrongForm { class, requested } => {
                write!(f, "cannot assemble {requested} form for an {class} circuit")
            }
            MnaError::Empty => write!(f, "circuit has no non-datum nodes"),
        }
    }
}

impl Error for MnaError {}

impl From<CircuitError> for MnaError {
    fn from(e: CircuitError) -> Self {
        MnaError::Circuit(e)
    }
}

/// The assembled symmetric descriptor system
/// `Z(s) = s^{output_s_factor} · Bᵀ (G + σC)⁻¹ B`, `σ = s^{s_power}`.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    /// Symmetric "conductance" matrix (paper's `G`).
    pub g: CscMat<f64>,
    /// Symmetric "susceptance" matrix (paper's `C`).
    pub c: CscMat<f64>,
    /// Port incidence matrix (`N × p`, the paper's `B`).
    pub b: Mat<f64>,
    /// The Laplace variable enters as `σ = s^{s_power}` (1, or 2 for LC).
    pub s_power: u32,
    /// `Z(s)` carries a leading factor `s^{output_s_factor}` (0 or 1).
    pub output_s_factor: u32,
    /// Circuit class this system was assembled from.
    pub class: CircuitClass,
    /// Number of node-voltage unknowns.
    pub num_node_unknowns: usize,
    /// Number of inductor-current unknowns (general form only).
    pub num_inductor_unknowns: usize,
}

impl MnaSystem {
    /// Dimension `N` of the system.
    pub fn dim(&self) -> usize {
        self.g.nrows()
    }

    /// Number of ports `p`.
    pub fn num_ports(&self) -> usize {
        self.b.ncols()
    }

    /// `true` when `G` and `C` are symmetric (to roundoff) — the
    /// precondition for SyMPVL and for the symmetric sparse solvers.
    /// Active circuits (VCCS) produce structurally nonsymmetric `G` and
    /// return `false`.
    pub fn is_symmetric(&self) -> bool {
        let gscale = self
            .g
            .values()
            .iter()
            .map(|v| v.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        let cscale = self
            .c
            .values()
            .iter()
            .map(|v| v.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        self.g.asymmetry() <= 1e-10 * gscale && self.c.asymmetry() <= 1e-10 * cscale
    }

    /// Assembles the natural form for the circuit's class: the §2.2
    /// special forms for RC/RL/LC, the general eq.-(3) form for RLC.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] if the circuit is invalid or an inductive
    /// coupling group is not positive definite.
    pub fn assemble(ckt: &Circuit) -> Result<Self, MnaError> {
        ckt.validate()?;
        match ckt.classify() {
            CircuitClass::Rc => Self::assemble_rc(ckt),
            CircuitClass::Rl => Self::assemble_rl(ckt),
            CircuitClass::Lc => Self::assemble_lc(ckt),
            CircuitClass::Rlc => Self::assemble_general(ckt),
        }
    }

    /// Like [`MnaSystem::assemble`], but accepts negative element values
    /// (lenient validation) — required for circuits synthesized from
    /// reduced-order models per §6 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] if the circuit fails lenient validation.
    pub fn assemble_lenient(ckt: &Circuit) -> Result<Self, MnaError> {
        ckt.validate_lenient()?;
        match ckt.classify() {
            CircuitClass::Rc => Self::assemble_rc(ckt),
            CircuitClass::Rl => Self::assemble_rl(ckt),
            CircuitClass::Lc => Self::assemble_lc(ckt),
            CircuitClass::Rlc => Self::assemble_general_inner(ckt),
        }
    }

    /// Assembles the general eq.-(3) form (nodes + inductor currents),
    /// valid for every circuit class. This is the form the transient
    /// simulator integrates. Uses lenient validation so synthesized
    /// reduced circuits (which may carry negative elements) are accepted.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError`] if the circuit is invalid.
    pub fn assemble_general(ckt: &Circuit) -> Result<Self, MnaError> {
        ckt.validate_lenient()?;
        Self::assemble_general_inner(ckt)
    }

    fn assemble_general_inner(ckt: &Circuit) -> Result<Self, MnaError> {
        let nv = ckt.num_nodes() - 1;
        if nv == 0 {
            return Err(MnaError::Empty);
        }
        let inductors = collect_inductors(ckt);
        let nl = inductors.len();
        let n = nv + nl;
        let lmat = inductance_matrix(ckt, &inductors)?;

        let mut g = TripletMat::new(n, n);
        let mut c = TripletMat::new(n, n);
        for e in ckt.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    stamp_conductance(&mut g, *a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, farads, .. } => {
                    stamp_conductance(&mut c, *a, *b, *farads);
                }
                Element::Vccs {
                    out_a,
                    out_b,
                    cp,
                    cm,
                    gm,
                    ..
                } => {
                    // SPICE G-element: current gm·(v(cp) − v(cm)) flows
                    // from out_a through the source to out_b. Nonsymmetric
                    // stamp: row = output node, column = controlling node.
                    for (row, rs) in [(*out_a, 1.0), (*out_b, -1.0)] {
                        if row == 0 {
                            continue;
                        }
                        for (col, cs) in [(*cp, 1.0), (*cm, -1.0)] {
                            if col == 0 {
                                continue;
                            }
                            g.push(row - 1, col - 1, rs * cs * gm);
                        }
                    }
                }
                _ => {}
            }
        }
        // Inductor incidence: G[nv+k, node(a)] = +1, G[nv+k, node(b)] = -1.
        for (k, &(_, a, b, _)) in inductors.iter().enumerate() {
            for (node, sign) in [(a, 1.0), (b, -1.0)] {
                if node != 0 {
                    g.push_sym(nv + k, node - 1, sign);
                }
            }
        }
        // Inductance block: C[nv+j, nv+k] = -L[j, k].
        for j in 0..nl {
            for k in 0..=j {
                let v = lmat[(j, k)];
                if v != 0.0 {
                    c.push_sym(nv + j, nv + k, -v);
                }
            }
        }
        Ok(MnaSystem {
            g: g.to_csc(),
            c: c.to_csc(),
            b: port_matrix(ckt, n),
            s_power: 1,
            output_s_factor: 0,
            class: ckt.classify(),
            num_node_unknowns: nv,
            num_inductor_unknowns: nl,
        })
    }

    fn assemble_rc(ckt: &Circuit) -> Result<Self, MnaError> {
        let nv = ckt.num_nodes() - 1;
        if nv == 0 {
            return Err(MnaError::Empty);
        }
        let mut g = TripletMat::new(nv, nv);
        let mut c = TripletMat::new(nv, nv);
        for e in ckt.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    stamp_conductance(&mut g, *a, *b, 1.0 / ohms)
                }
                Element::Capacitor { a, b, farads, .. } => {
                    stamp_conductance(&mut c, *a, *b, *farads)
                }
                Element::Inductor { .. } | Element::Mutual { .. } | Element::Vccs { .. } => {
                    return Err(MnaError::WrongForm {
                        class: ckt.classify(),
                        requested: "RC",
                    })
                }
            }
        }
        Ok(MnaSystem {
            g: g.to_csc(),
            c: c.to_csc(),
            b: port_matrix(ckt, nv),
            s_power: 1,
            output_s_factor: 0,
            class: CircuitClass::Rc,
            num_node_unknowns: nv,
            num_inductor_unknowns: 0,
        })
    }

    fn assemble_rl(ckt: &Circuit) -> Result<Self, MnaError> {
        let nv = ckt.num_nodes() - 1;
        if nv == 0 {
            return Err(MnaError::Empty);
        }
        let inductors = collect_inductors(ckt);
        let gamma = inverse_inductance(ckt, &inductors)?;
        let mut g = TripletMat::new(nv, nv);
        let mut c = TripletMat::new(nv, nv);
        stamp_inverse_inductance(&mut g, &inductors, &gamma);
        for e in ckt.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    stamp_conductance(&mut c, *a, *b, 1.0 / ohms)
                }
                Element::Capacitor { .. } | Element::Vccs { .. } => {
                    return Err(MnaError::WrongForm {
                        class: ckt.classify(),
                        requested: "RL",
                    })
                }
                _ => {}
            }
        }
        Ok(MnaSystem {
            g: g.to_csc(),
            c: c.to_csc(),
            b: port_matrix(ckt, nv),
            s_power: 1,
            output_s_factor: 1,
            class: CircuitClass::Rl,
            num_node_unknowns: nv,
            num_inductor_unknowns: 0,
        })
    }

    fn assemble_lc(ckt: &Circuit) -> Result<Self, MnaError> {
        let nv = ckt.num_nodes() - 1;
        if nv == 0 {
            return Err(MnaError::Empty);
        }
        let inductors = collect_inductors(ckt);
        let gamma = inverse_inductance(ckt, &inductors)?;
        let mut g = TripletMat::new(nv, nv);
        let mut c = TripletMat::new(nv, nv);
        stamp_inverse_inductance(&mut g, &inductors, &gamma);
        for e in ckt.elements() {
            match e {
                Element::Capacitor { a, b, farads, .. } => {
                    stamp_conductance(&mut c, *a, *b, *farads)
                }
                Element::Resistor { .. } | Element::Vccs { .. } => {
                    return Err(MnaError::WrongForm {
                        class: ckt.classify(),
                        requested: "LC",
                    })
                }
                _ => {}
            }
        }
        Ok(MnaSystem {
            g: g.to_csc(),
            c: c.to_csc(),
            b: port_matrix(ckt, nv),
            s_power: 2,
            output_s_factor: 1,
            class: CircuitClass::Lc,
            num_node_unknowns: nv,
            num_inductor_unknowns: 0,
        })
    }

    /// Maps a Laplace frequency `s` to the pencil variable `σ = s^{s_power}`.
    pub fn sigma(&self, s: Complex64) -> Complex64 {
        s.powu(self.s_power)
    }

    /// The leading factor `s^{output_s_factor}` of `Z(s)`.
    pub fn output_factor(&self, s: Complex64) -> Complex64 {
        s.powu(self.output_s_factor)
    }

    /// Reference evaluation of the exact `Z(s)` by a *dense* complex solve.
    ///
    /// Intended for tests and small systems; the sparse AC sweep in
    /// `mpvl-sim` is the production path.
    ///
    /// # Errors
    ///
    /// Returns an error when `G + σC` is singular at `s` (i.e. `s` hits a
    /// pole exactly).
    pub fn dense_z(&self, s: Complex64) -> Result<Mat<Complex64>, mpvl_la::SingularMatrixError> {
        let sigma = self.sigma(s);
        let gd = self.g.to_dense();
        let cd = self.c.to_dense();
        let n = self.dim();
        let k = Mat::from_fn(n, n, |i, j| {
            Complex64::from_real(gd[(i, j)]) + sigma * cd[(i, j)]
        });
        let lu = Lu::new(k)?;
        let bz = self.b.map(Complex64::from_real);
        let x = lu.solve_mat(&bz)?;
        let z = bz.t_matmul(&x);
        Ok(z.scale(self.output_factor(s)))
    }
}

/// Collects `(name, a, b, henries)` for every inductor, in order.
fn collect_inductors(ckt: &Circuit) -> Vec<(String, usize, usize, f64)> {
    ckt.elements()
        .iter()
        .filter_map(|e| match e {
            Element::Inductor {
                name,
                a,
                b,
                henries,
            } => Some((name.clone(), *a, *b, *henries)),
            _ => None,
        })
        .collect()
}

/// Builds the full inductance matrix 𝓛 (diagonal + mutual couplings).
fn inductance_matrix(
    ckt: &Circuit,
    inductors: &[(String, usize, usize, f64)],
) -> Result<Mat<f64>, MnaError> {
    let nl = inductors.len();
    let mut l = Mat::zeros(nl, nl);
    let index: std::collections::HashMap<&str, usize> = inductors
        .iter()
        .enumerate()
        .map(|(i, (n, _, _, _))| (n.as_str(), i))
        .collect();
    for (i, (_, _, _, h)) in inductors.iter().enumerate() {
        l[(i, i)] = *h;
    }
    for e in ckt.elements() {
        if let Element::Mutual { l1, l2, k, .. } = e {
            let (i, j) = (index[l1.as_str()], index[l2.as_str()]);
            let m = k * (l[(i, i)] * l[(j, j)]).sqrt();
            l[(i, j)] += m;
            l[(j, i)] += m;
        }
    }
    Ok(l)
}

/// Inverts 𝓛, verifying positive definiteness per coupling group.
fn inverse_inductance(
    ckt: &Circuit,
    inductors: &[(String, usize, usize, f64)],
) -> Result<Mat<f64>, MnaError> {
    let l = inductance_matrix(ckt, inductors)?;
    let nl = inductors.len();
    if nl == 0 {
        return Ok(Mat::zeros(0, 0));
    }
    if mpvl_la::Cholesky::new(&l).is_err() {
        return Err(MnaError::InductanceNotPd {
            group_member: inductors[0].0.clone(),
        });
    }
    let inv = Lu::new(l)
        .and_then(|lu| lu.inverse())
        .map_err(|_| MnaError::InductanceNotPd {
            group_member: inductors[0].0.clone(),
        })?;
    // Symmetrize against LU roundoff: Γ = 𝓛⁻¹ is symmetric exactly.
    Ok(Mat::from_fn(nl, nl, |i, j| {
        0.5 * (inv[(i, j)] + inv[(j, i)])
    }))
}

/// Stamps `Aˡᵀ Γ Aˡ` into the node block.
fn stamp_inverse_inductance(
    t: &mut TripletMat<f64>,
    inductors: &[(String, usize, usize, f64)],
    gamma: &Mat<f64>,
) {
    let nl = inductors.len();
    for i in 0..nl {
        let (_, ai, bi, _) = inductors[i];
        for j in 0..nl {
            let v = gamma[(i, j)];
            if v == 0.0 {
                continue;
            }
            let (_, aj, bj, _) = inductors[j];
            for (ni, si) in [(ai, 1.0), (bi, -1.0)] {
                if ni == 0 {
                    continue;
                }
                for (nj, sj) in [(aj, 1.0), (bj, -1.0)] {
                    if nj == 0 {
                        continue;
                    }
                    t.push(ni - 1, nj - 1, si * sj * v);
                }
            }
        }
    }
}

/// Stamps a two-terminal admittance `y` between nodes `a` and `b`
/// (SPICE-style, skipping ground).
fn stamp_conductance(t: &mut TripletMat<f64>, a: usize, b: usize, y: f64) {
    if a != 0 {
        t.push(a - 1, a - 1, y);
    }
    if b != 0 {
        t.push(b - 1, b - 1, y);
    }
    if a != 0 && b != 0 {
        t.push_sym(a - 1, b - 1, -y);
    }
}

/// Builds the `N × p` port incidence matrix `B`.
fn port_matrix(ckt: &Circuit, n: usize) -> Mat<f64> {
    let p = ckt.num_ports();
    let mut b = Mat::zeros(n, p);
    for (j, port) in ckt.ports().iter().enumerate() {
        if port.plus != 0 {
            b[(port.plus - 1, j)] += 1.0;
        }
        if port.minus != 0 {
            b[(port.minus - 1, j)] -= 1.0;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GROUND;

    fn rc_lowpass() -> Circuit {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_resistor("R1", n1, n2, 1.0e3);
        ckt.add_capacitor("C1", n2, GROUND, 1.0e-9);
        ckt.add_port("in", n1, GROUND);
        ckt
    }

    #[test]
    fn rc_assembly_matches_hand_matrices() {
        let sys = MnaSystem::assemble(&rc_lowpass()).unwrap();
        assert_eq!(sys.dim(), 2);
        let g = sys.g.to_dense();
        let c = sys.c.to_dense();
        let y = 1.0e-3;
        assert!((g[(0, 0)] - y).abs() < 1e-18);
        assert!((g[(0, 1)] + y).abs() < 1e-18);
        assert!((g[(1, 1)] - y).abs() < 1e-18);
        assert!((c[(1, 1)] - 1e-9).abs() < 1e-24);
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(sys.b[(0, 0)], 1.0);
        assert_eq!(sys.b[(1, 0)], 0.0);
    }

    #[test]
    fn rc_dc_impedance_is_open_series_r() {
        // At DC the capacitor is open; Z(0) should be... the source sees
        // R in series with an open circuit: Z -> infinite. At high
        // frequency the cap shorts and Z -> R. Check the high-f limit.
        let sys = MnaSystem::assemble(&rc_lowpass()).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e12);
        let z = sys.dense_z(s).unwrap();
        assert!((z[(0, 0)].abs() - 1.0e3) / 1.0e3 < 1e-2);
    }

    #[test]
    fn general_rlc_matches_physics_series_rlc() {
        // Series RLC from port to ground: Z(s) = R + sL + 1/(sC).
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        let n3 = ckt.add_node();
        let (r, l, c) = (5.0, 1e-6, 1e-9);
        ckt.add_resistor("R1", n1, n2, r);
        ckt.add_inductor("L1", n2, n3, l);
        ckt.add_capacitor("C1", n3, GROUND, c);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        assert_eq!(sys.class, CircuitClass::Rlc);
        assert_eq!(sys.dim(), 4); // 3 nodes + 1 inductor current
        for f in [1e5, 1e6, 1e7] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z = sys.dense_z(s).unwrap()[(0, 0)];
            let expect = Complex64::from_real(r) + s * l + (s * c).recip();
            assert!(
                (z - expect).abs() / expect.abs() < 1e-10,
                "f={f}: {z} vs {expect}"
            );
        }
    }

    #[test]
    fn rl_special_form_matches_general_form() {
        // Parallel RL to ground at one node.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_resistor("R1", n1, GROUND, 50.0);
        ckt.add_inductor("L1", n1, GROUND, 1e-6);
        ckt.add_port("p", n1, GROUND);
        let special = MnaSystem::assemble(&ckt).unwrap();
        assert_eq!(special.class, CircuitClass::Rl);
        assert_eq!(special.output_s_factor, 1);
        let general = MnaSystem::assemble_general(&ckt).unwrap();
        for f in [1e3, 1e6, 1e9] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zs = special.dense_z(s).unwrap()[(0, 0)];
            let zg = general.dense_z(s).unwrap()[(0, 0)];
            assert!((zs - zg).abs() / zg.abs() < 1e-9, "f={f}: {zs} vs {zg}");
        }
    }

    #[test]
    fn lc_special_form_matches_general_form() {
        // LC tank: L from port to ground, C from port to ground.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_inductor("L1", n1, GROUND, 1e-6);
        ckt.add_capacitor("C1", n1, GROUND, 1e-9);
        ckt.add_port("p", n1, GROUND);
        let special = MnaSystem::assemble(&ckt).unwrap();
        assert_eq!(special.class, CircuitClass::Lc);
        assert_eq!(special.s_power, 2);
        let general = MnaSystem::assemble_general(&ckt).unwrap();
        for f in [1e5, 1e6, 4e6] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zs = special.dense_z(s).unwrap()[(0, 0)];
            let zg = general.dense_z(s).unwrap()[(0, 0)];
            assert!((zs - zg).abs() / zg.abs() < 1e-9, "f={f}: {zs} vs {zg}");
        }
    }

    #[test]
    fn mutual_coupling_enters_inductance_matrix() {
        // Two coupled inductors in series paths; compare special vs general.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_inductor("L1", n1, GROUND, 1e-6);
        ckt.add_inductor("L2", n2, GROUND, 2e-6);
        ckt.add_mutual("K1", "L1", "L2", 0.5);
        ckt.add_resistor("R1", n1, n2, 10.0);
        ckt.add_port("p1", n1, GROUND);
        ckt.add_port("p2", n2, GROUND);
        let special = MnaSystem::assemble(&ckt).unwrap();
        let general = MnaSystem::assemble_general(&ckt).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e7);
        let zs = special.dense_z(s).unwrap();
        let zg = general.dense_z(s).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (zs[(i, j)] - zg[(i, j)]).abs() / zg[(i, j)].abs().max(1e-30) < 1e-9,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matrices_are_symmetric() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        let n3 = ckt.add_node();
        ckt.add_resistor("R1", n1, n2, 7.0);
        ckt.add_inductor("L1", n2, n3, 2e-6);
        ckt.add_inductor("L2", n3, GROUND, 1e-6);
        ckt.add_mutual("K1", "L1", "L2", 0.3);
        ckt.add_capacitor("C1", n3, GROUND, 5e-12);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        assert_eq!(sys.g.asymmetry(), 0.0);
        assert_eq!(sys.c.asymmetry(), 0.0);
    }

    #[test]
    fn rc_semidefinite_matrices() {
        // G and C of an RC circuit are PSD: check via dense eigenvalues.
        let sys = MnaSystem::assemble(&rc_lowpass()).unwrap();
        let eg = mpvl_la::sym_eigen(&sys.g.to_dense()).unwrap();
        let ec = mpvl_la::sym_eigen(&sys.c.to_dense()).unwrap();
        assert!(eg.values.iter().all(|&v| v >= -1e-15));
        assert!(ec.values.iter().all(|&v| v >= -1e-15));
    }

    #[test]
    fn rejects_overcoupled_inductors() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_inductor("L1", n1, GROUND, 1e-6);
        ckt.add_inductor("L2", n2, GROUND, 1e-6);
        // Two couplings that sum to k_eff > 1 make 𝓛 indefinite.
        ckt.add_mutual("K1", "L1", "L2", 0.9);
        ckt.add_mutual("K2", "L1", "L2", 0.9);
        ckt.add_port("p", n1, GROUND);
        assert!(matches!(
            MnaSystem::assemble(&ckt),
            Err(MnaError::InductanceNotPd { .. })
        ));
    }

    #[test]
    fn transfer_impedance_two_port() {
        // Resistive divider two-port: n1 -R1- n2 -R2- gnd, ports at n1, n2.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_resistor("R1", n1, n2, 100.0);
        ckt.add_resistor("R2", n2, GROUND, 50.0);
        ckt.add_port("p1", n1, GROUND);
        ckt.add_port("p2", n2, GROUND);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let z = sys.dense_z(Complex64::new(0.0, 1.0)).unwrap();
        // Z11 = R1 + R2 = 150, Z12 = Z21 = R2 = 50, Z22 = R2 = 50.
        assert!((z[(0, 0)].re - 150.0).abs() < 1e-9);
        assert!((z[(0, 1)].re - 50.0).abs() < 1e-9);
        assert!((z[(1, 0)].re - 50.0).abs() < 1e-9);
        assert!((z[(1, 1)].re - 50.0).abs() < 1e-9);
    }
}
