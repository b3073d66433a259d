//! Reduced-circuit synthesis (paper §6).
//!
//! Two procedures turn a reduced-order model back into a netlist that a
//! stock circuit simulator can consume:
//!
//! * [`synthesize_rc`] — **multi-port RC unstamping.** With `J = I` the
//!   SyMPVL model is the congruence projection `Ĝ = I`, `Ĉ = Tₙ`,
//!   `B̂ = ρₙ`. A change of basis `F = [QR⁻ᵀ | Q⊥]` (where `ρ = QR` is a
//!   thin QR factorization) maps the input matrix to `[I_p; 0]` — port
//!   currents then inject into the first `p` reduced nodes — and the
//!   transformed `G̃ = FᵀĜF`, `C̃ = FᵀĈF` are *nodal* matrices that
//!   unstamp directly into resistors and capacitors. Element values may be
//!   negative (the paper explicitly permits this; stability/passivity of
//!   the underlying model keeps simulation well-behaved).
//! * [`foster_synthesis`] — **single-port Foster form.** For `p = 1` the
//!   pole–residue expansion `Zₙ(s) = Σ rᵢ/(1 + sλᵢ)` is a series chain of
//!   parallel R‖C blocks with `R = rᵢ`, `C = λᵢ/rᵢ`; §5 guarantees
//!   `rᵢ, λᵢ ≥ 0`, so every element is positive. This is the ref-\[8]
//!   (SyPVL) procedure the paper points to for the p = 1 RC case.

use crate::eval::{diagonalize, DiagonalizeError};
use crate::{ReducedModel, SympvlError};
use mpvl_circuit::Circuit;
use mpvl_la::{Lu, Mat, Qr};

/// Options for the unstamping synthesis.
///
/// Construct via [`SynthesisOptions::new`] (or `default()`) and chain
/// the `with_*` builders; the struct is `#[non_exhaustive]` so options
/// can grow without breaking callers.
///
/// ```
/// use sympvl::SynthesisOptions;
/// # fn main() -> Result<(), sympvl::SympvlError> {
/// let exact = SynthesisOptions::new().with_prune_tol(0.0)?;
/// assert!(SynthesisOptions::new().with_prune_tol(-1.0).is_err());
/// # let _ = exact;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthesisOptions {
    /// Drop synthesized elements whose admittance magnitude is below
    /// `prune_tol × (largest magnitude in its matrix)`. `0.0` keeps the
    /// synthesis exact.
    pub prune_tol: f64,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions { prune_tol: 1e-9 }
    }
}

impl SynthesisOptions {
    /// Starts from the defaults (`prune_tol = 1e-9`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the relative element-pruning threshold (`0.0` keeps the
    /// synthesis exact).
    ///
    /// # Errors
    ///
    /// [`SympvlError::InvalidOptions`] unless `prune_tol` is finite and
    /// non-negative.
    pub fn with_prune_tol(mut self, prune_tol: f64) -> Result<Self, SympvlError> {
        if !(prune_tol.is_finite() && prune_tol >= 0.0) {
            return Err(SympvlError::InvalidOptions {
                reason: format!("prune tolerance must be finite and non-negative, got {prune_tol}"),
            });
        }
        self.prune_tol = prune_tol;
        Ok(self)
    }
}

/// Outcome of a synthesis: the netlist plus bookkeeping.
#[derive(Debug, Clone)]
pub struct SynthesizedCircuit {
    /// The synthesized netlist; ports appear in the model's port order.
    pub circuit: Circuit,
    /// Number of internal (non-port) nodes.
    pub internal_nodes: usize,
    /// Count of negative-valued elements (the paper's §6 caveat).
    pub negative_elements: usize,
}

/// Synthesizes a multi-port RC netlist realizing `Zₙ(s)` exactly
/// (up to pruning).
///
/// # Errors
///
/// * [`SympvlError::RequiresDefiniteForm`] unless the model came from a
///   `J = I` reduction (RC circuits; `Δₙ = I`).
/// * [`SympvlError::Synthesis`] when the model is not in the plain `σ = s`
///   form, has a rank-deficient `ρ` (deflated ports), or `p > n`.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::rc_line, MnaSystem};
/// use sympvl::{sympvl, synthesize_rc, SympvlOptions, SynthesisOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_line(40, 20.0, 1e-12))?;
/// let model = sympvl(&sys, 8, &SympvlOptions::default())?;
/// let synth = synthesize_rc(&model, &SynthesisOptions::default())?;
/// // An 8-state model becomes an 8-node circuit (2 ports + 6 internal).
/// assert_eq!(synth.circuit.num_nodes() - 1, 8);
/// # Ok(())
/// # }
/// ```
pub fn synthesize_rc(
    model: &ReducedModel,
    opts: &SynthesisOptions,
) -> Result<SynthesizedCircuit, SympvlError> {
    if !model.guarantees_passivity() {
        return Err(SympvlError::RequiresDefiniteForm {
            operation: "RC unstamping synthesis",
        });
    }
    if model.s_power != 1 || model.output_s_factor != 0 {
        return Err(SympvlError::Synthesis {
            reason: format!(
                "unstamping requires the plain σ = s form (got s_power={}, output_s_factor={})",
                model.s_power, model.output_s_factor
            ),
        });
    }
    let n = model.order();
    let p = model.num_ports();
    if p > n {
        return Err(SympvlError::Synthesis {
            reason: format!("model order {n} smaller than port count {p}"),
        });
    }

    // Reduced matrices in Lanczos coordinates: Ghat = I - s0*T, Chat = T.
    // (Z_n(σ) = ρᵀ(I + (σ - s0)T)⁻¹ρ = ρᵀ((I - s0·T) + σT)⁻¹ρ.)
    let t = model.t_matrix();
    let s0 = model.shift();
    let ghat = Mat::from_fn(n, n, |i, j| {
        let idm = if i == j { 1.0 } else { 0.0 };
        idm - s0 * 0.5 * (t[(i, j)] + t[(j, i)])
    });
    let chat = Mat::from_fn(n, n, |i, j| 0.5 * (t[(i, j)] + t[(j, i)]));

    // Change of basis F = [Q R^{-T} | Q_perp] so that Fᵀρ = [I_p; 0].
    let rho = model.rho_matrix();
    let qr = Qr::new(rho);
    let r = qr.r();
    // Rank check: |r_ii| must be healthy.
    let rmax = r.diag().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    for (k, &d) in r.diag().iter().enumerate() {
        if d.abs() < 1e-12 * rmax.max(f64::MIN_POSITIVE) {
            return Err(SympvlError::Synthesis {
                reason: format!("ρ is rank deficient at column {k} (deflated port)"),
            });
        }
    }
    let q = qr.thin_q();
    // F1 = Q R^{-T}: solve Rᵀ X = Qᵀ... i.e. F1ᵀ = R^{-1}Qᵀ; build by
    // solving R y = e_k for combinations: F1 = Q (R^{-T}).
    let r_inv_t = Lu::new(r.transpose())
        .and_then(|lu| lu.inverse())
        .map_err(|_| SympvlError::Synthesis {
            reason: "R factor singular".to_string(),
        })?;
    let f1 = q.matmul(&r_inv_t);
    let f2 = qr.complement_q();
    let f = f1.hcat(&f2);

    let g_nodal = f.t_matmul(&ghat.matmul(&f));
    let c_nodal = f.t_matmul(&chat.matmul(&f));

    // Unstamp nodal matrices into a netlist.
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..n).map(|_| ckt.add_node()).collect();
    let mut negative_elements = 0usize;
    let gmax = g_nodal.max_abs();
    let cmax = c_nodal.max_abs();
    let unstamp = |m: &Mat<f64>,
                   mmax: f64,
                   ckt: &mut Circuit,
                   neg: &mut usize,
                   make: &mut dyn FnMut(&mut Circuit, usize, usize, f64, usize)| {
        let mut count = 0usize;
        for i in 0..n {
            // Branch elements from off-diagonals.
            for jj in i + 1..n {
                let y = -0.5 * (m[(i, jj)] + m[(jj, i)]);
                if y.abs() > opts.prune_tol * mmax {
                    make(ckt, nodes[i], nodes[jj], y, count);
                    count += 1;
                    if y < 0.0 {
                        *neg += 1;
                    }
                }
            }
            // Ground element from the row sum.
            let yg: f64 = (0..n).map(|jj| 0.5 * (m[(i, jj)] + m[(jj, i)])).sum();
            if yg.abs() > opts.prune_tol * mmax {
                make(ckt, nodes[i], 0, yg, count);
                count += 1;
                if yg < 0.0 {
                    *neg += 1;
                }
            }
        }
    };
    unstamp(
        &g_nodal,
        gmax,
        &mut ckt,
        &mut negative_elements,
        &mut |ckt, a, b, y, k| {
            ckt.add_resistor(&format!("R{k}"), a, b, 1.0 / y);
        },
    );
    unstamp(
        &c_nodal,
        cmax,
        &mut ckt,
        &mut negative_elements,
        &mut |ckt, a, b, y, k| {
            ckt.add_capacitor(&format!("C{k}"), a, b, y);
        },
    );
    for (j, &node) in nodes.iter().take(p).enumerate() {
        ckt.add_port(&format!("p{j}"), node, 0);
    }
    Ok(SynthesizedCircuit {
        circuit: ckt,
        internal_nodes: n - p,
        negative_elements,
    })
}

/// One section of a Foster-form RC realization (a two-terminal block in
/// the series chain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FosterSection {
    /// `r/(1 + σλ)`: parallel R‖C with `C = λ/r`.
    ParallelRc {
        /// Parallel resistance, ohms.
        resistance: f64,
        /// Parallel capacitance, farads.
        capacitance: f64,
    },
    /// A pure resistance (`λ = 0` term).
    Resistor {
        /// Resistance, ohms.
        resistance: f64,
    },
    /// A pure series capacitance `1/(σC)` — a pole at DC, which arises
    /// for ports with no DC path to ground.
    Capacitor {
        /// Capacitance, farads.
        capacitance: f64,
    },
}

/// Foster-form synthesis of a single-port `J = I` model: a series chain of
/// parallel R‖C sections.
///
/// The model's pole–residue expansion about its expansion point `s₀`,
/// `Zₙ(σ) = Σ rᵢ/(1 + (σ−s₀)λᵢ)`, is re-centred to DC:
/// `rᵢ′ = rᵢ/(1 − s₀λᵢ)`, `λᵢ′ = λᵢ/(1 − s₀λᵢ)`. With `s₀ = 0` §5
/// guarantees `rᵢ, λᵢ ≥ 0`, so all elements are positive (the ref-\[8]
/// situation); with `s₀ > 0` sections whose pole sits left of `1/s₀` come
/// out negative-valued (the paper's §6 caveat), and sections with
/// `1 − s₀λᵢ ≈ 0` are DC poles realized as series capacitors.
///
/// Sections with negligible residue (`rᵢ < residue_tol × Σ|r|`) are
/// dropped.
///
/// # Errors
///
/// * [`SympvlError::RequiresDefiniteForm`] for indefinite-`J` models.
/// * [`SympvlError::Synthesis`] unless `p = 1` and the form is `σ = s`.
pub fn foster_synthesis(
    model: &ReducedModel,
    residue_tol: f64,
) -> Result<(Circuit, Vec<FosterSection>), SympvlError> {
    if !model.guarantees_passivity() {
        return Err(SympvlError::RequiresDefiniteForm {
            operation: "Foster synthesis",
        });
    }
    if model.num_ports() != 1 || model.s_power != 1 || model.output_s_factor != 0 {
        return Err(SympvlError::Synthesis {
            reason: "Foster synthesis requires a single-port σ = s model".to_string(),
        });
    }
    let s0 = model.shift();
    // J = I: the symmetric path, so every λₖ is real, every residue
    // rₖ = (qₖᵀρ)² too, and only the eigensolver can fail.
    let pr = diagonalize(model).map_err(|e| match e {
        DiagonalizeError::Eigen(reason) | DiagonalizeError::Basis(reason) => {
            SympvlError::Eigen { reason }
        }
    })?;
    let mut raw = Vec::new();
    let mut total_r = 0.0;
    for (lambda, w) in pr.lambdas.iter().zip(&pr.residues) {
        let r = w.re;
        total_r += r.abs();
        raw.push((r, lambda.re.max(0.0)));
    }
    let mut kept: Vec<FosterSection> = Vec::new();
    for (r, lambda) in raw {
        if r <= residue_tol * total_r.max(f64::MIN_POSITIVE) {
            continue;
        }
        // Re-centre about DC: 1/(1 + (σ-s0)λ) = (1/(1-s0λ)) / (1 + σ λ/(1-s0λ)).
        let denom = 1.0 - s0 * lambda;
        if denom.abs() < 1e-9 {
            // Pole at DC: r/(σλ) is a pure series capacitor C = λ/r.
            kept.push(FosterSection::Capacitor {
                capacitance: lambda / r,
            });
        } else {
            let rp = r / denom;
            let lp = lambda / denom;
            if lp == 0.0 {
                kept.push(FosterSection::Resistor { resistance: rp });
            } else {
                kept.push(FosterSection::ParallelRc {
                    resistance: rp,
                    capacitance: lp / rp,
                });
            }
        }
    }
    if kept.is_empty() {
        return Err(SympvlError::Synthesis {
            reason: "all residues negligible".to_string(),
        });
    }
    // Series chain: port -> section1 -> section2 -> ... -> ground.
    let mut ckt = Circuit::new();
    let mut prev = ckt.add_node();
    ckt.add_port("p0", prev, 0);
    for (k, sec) in kept.iter().enumerate() {
        let next = if k + 1 == kept.len() {
            0
        } else {
            ckt.add_node()
        };
        match *sec {
            FosterSection::ParallelRc {
                resistance,
                capacitance,
            } => {
                ckt.add_resistor(&format!("R{k}"), prev, next, resistance);
                ckt.add_capacitor(&format!("C{k}"), prev, next, capacitance);
            }
            FosterSection::Resistor { resistance } => {
                ckt.add_resistor(&format!("R{k}"), prev, next, resistance);
            }
            FosterSection::Capacitor { capacitance } => {
                ckt.add_capacitor(&format!("C{k}"), prev, next, capacitance);
            }
        }
        prev = next;
    }
    Ok((ckt, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, SympvlOptions};
    use mpvl_circuit::generators::{interconnect, rc_ladder, rc_line, InterconnectParams};
    use mpvl_circuit::MnaSystem;
    use mpvl_la::Complex64;

    fn rel_err(a: Complex64, b: Complex64) -> f64 {
        (a - b).abs() / b.abs().max(1e-300)
    }

    #[test]
    fn unstamped_circuit_reproduces_model_exactly() {
        let sys = MnaSystem::assemble(&rc_line(30, 25.0, 0.8e-12)).unwrap();
        let model = sympvl(&sys, 10, &SympvlOptions::default()).unwrap();
        let synth = synthesize_rc(&model, &SynthesisOptions { prune_tol: 0.0 }).unwrap();
        let red_sys = MnaSystem::assemble_lenient(&synth.circuit).unwrap();
        for f in [1e7, 1e9, 2e10] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zm = model.eval(s).unwrap();
            let zc = red_sys.dense_z(s).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        rel_err(zc[(i, j)], zm[(i, j)]) < 1e-8,
                        "f={f} entry ({i},{j}): {} vs {}",
                        zc[(i, j)],
                        zm[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn synthesized_matches_original_circuit_closely() {
        // End-to-end §7.3-style check at small scale.
        let ckt = interconnect(&InterconnectParams {
            wires: 4,
            segments: 12,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let model = sympvl(&sys, 12, &SympvlOptions::default()).unwrap();
        let synth = synthesize_rc(&model, &SynthesisOptions::default()).unwrap();
        let red_sys = MnaSystem::assemble_lenient(&synth.circuit).unwrap();
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let z_full = sys.dense_z(s).unwrap();
        let z_red = red_sys.dense_z(s).unwrap();
        for i in 0..4 {
            assert!(
                rel_err(z_red[(i, i)], z_full[(i, i)]) < 1e-2,
                "port {i}: {} vs {}",
                z_red[(i, i)],
                z_full[(i, i)]
            );
        }
    }

    #[test]
    fn element_counts_scale_with_order_not_circuit() {
        let ckt = interconnect(&InterconnectParams {
            wires: 3,
            segments: 40,
            coupling_reach: 2,
            ..InterconnectParams::default()
        });
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let model = sympvl(&sys, 9, &SympvlOptions::default()).unwrap();
        let synth = synthesize_rc(&model, &SynthesisOptions::default()).unwrap();
        let (r, c, _, _) = synth.circuit.element_counts();
        // n = 9 nodes: at most n(n+1)/2 = 45 of each kind.
        assert!(r <= 45 && c <= 45, "r={r} c={c}");
        assert_eq!(synth.circuit.num_nodes() - 1, 9);
        assert_eq!(synth.internal_nodes, 6);
    }

    #[test]
    fn foster_grounded_rc_all_positive_and_exact() {
        // Grounded RC (zero shift): §5 guarantees positive elements.
        let sys = MnaSystem::assemble(&mpvl_circuit::generators::random_rc(5, 20, 1)).unwrap();
        let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
        assert_eq!(model.shift(), 0.0);
        let (ckt, sections) = foster_synthesis(&model, 1e-12).unwrap();
        for sec in &sections {
            match *sec {
                FosterSection::ParallelRc {
                    resistance,
                    capacitance,
                } => {
                    assert!(resistance > 0.0 && capacitance > 0.0);
                }
                FosterSection::Resistor { resistance } => assert!(resistance > 0.0),
                FosterSection::Capacitor { capacitance } => assert!(capacitance > 0.0),
            }
        }
        let red_sys = MnaSystem::assemble(&ckt).unwrap(); // strict: positive values
        for f in [1e8, 1e9, 1e10] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zm = model.eval(s).unwrap()[(0, 0)];
            let zc = red_sys.dense_z(s).unwrap()[(0, 0)];
            assert!(rel_err(zc, zm) < 1e-6, "f={f}: {zc} vs {zm}");
        }
    }

    #[test]
    fn foster_handles_dc_pole_via_series_capacitor() {
        // The ungrounded RC ladder has no DC path: G singular, auto shift
        // kicks in, and the model carries a pole at (or near) DC.
        let sys = MnaSystem::assemble(&rc_ladder(25, 40.0, 1e-12)).unwrap();
        let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
        assert!(model.shift() > 0.0);
        let (ckt, _) = foster_synthesis(&model, 1e-12).unwrap();
        let red_sys = MnaSystem::assemble_lenient(&ckt).unwrap();
        for f in [1e8, 1e9, 1e10] {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zm = model.eval(s).unwrap()[(0, 0)];
            let zc = red_sys.dense_z(s).unwrap()[(0, 0)];
            assert!(rel_err(zc, zm) < 1e-6, "f={f}: {zc} vs {zm}");
        }
    }

    #[test]
    fn rejects_wrong_forms() {
        use mpvl_circuit::generators::{peec, PeecParams};
        // LC sigma-form model cannot be RC-unstamped.
        let m = peec(&PeecParams {
            cells: 10,
            output_cell: 4,
            ..PeecParams::default()
        });
        let model = sympvl(&m.system, 6, &SympvlOptions::default()).unwrap();
        assert!(synthesize_rc(&model, &SynthesisOptions::default()).is_err());
        assert!(foster_synthesis(&model, 1e-12).is_err());
    }
}
