//! Transient analysis of the MNA descriptor system
//! `G x + C ẋ = B u(t)` — the reference for the paper's Figure 5.
//!
//! Fixed-step backward-Euler and trapezoidal integration; the system matrix
//! is factored once and reused for every step, exactly like a SPICE
//! transient with a constant timestep.

use crate::Waveform;
use mpvl_circuit::MnaSystem;
use mpvl_la::Mat;
use mpvl_sparse::{LdltError, NumericLdlt, Ordering};
use std::error::Error;
use std::fmt;

/// Integration scheme for [`transient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first order, damps ringing.
    BackwardEuler,
    /// Trapezoidal rule: A-stable, second order — the SPICE default.
    #[default]
    Trapezoidal,
}

/// Errors from transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum TransientError {
    /// The companion matrix `G + αC` could not be factored.
    Factorization(LdltError),
    /// The system is not in the directly integrable form
    /// (`σ = s`, no leading output factor).
    NotTimeDomain {
        /// The system's `s_power`.
        s_power: u32,
        /// The system's `output_s_factor`.
        output_s_factor: u32,
    },
    /// Waveform count does not match the port count.
    WrongSourceCount {
        /// Ports in the system.
        ports: usize,
        /// Waveforms supplied.
        sources: usize,
    },
}

impl fmt::Display for TransientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientError::Factorization(e) => write!(f, "companion factorization failed: {e}"),
            TransientError::NotTimeDomain {
                s_power,
                output_s_factor,
            } => write!(
                f,
                "system with s_power={s_power}, output_s_factor={output_s_factor} is not directly integrable; assemble the general MNA form"
            ),
            TransientError::WrongSourceCount { ports, sources } => {
                write!(f, "{sources} waveforms supplied for {ports} ports")
            }
        }
    }
}

impl Error for TransientError {}

impl From<LdltError> for TransientError {
    fn from(e: LdltError) -> Self {
        TransientError::Factorization(e)
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Sample times, seconds (length `steps + 1`, starting at 0).
    pub times: Vec<f64>,
    /// Port voltages: `(steps + 1) × p`, row `k` at `times[k]`.
    pub port_voltages: Mat<f64>,
    /// Wall-clock seconds spent in the time loop (factor + steps).
    pub cpu_seconds: f64,
}

/// Integrates `G x + C ẋ = B u(t)` from rest over `steps` steps of size
/// `h` seconds, driven by one current [`Waveform`] per port. Returns the
/// port voltages `y = Bᵀx`.
///
/// # Errors
///
/// * [`TransientError::NotTimeDomain`] unless the system is in the plain
///   `σ = s` form (use [`MnaSystem::assemble_general`]).
/// * [`TransientError::WrongSourceCount`] on a port/waveform mismatch.
/// * [`TransientError::Factorization`] if `G + αC` cannot be factored.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{Circuit, MnaSystem};
/// use mpvl_sim::{transient, Integrator, Waveform};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Parallel RC (1 kΩ ∥ 1 nF) driven by a 1 mA current step.
/// let mut ckt = Circuit::new();
/// let n1 = ckt.add_node();
/// ckt.add_resistor("R1", n1, 0, 1e3);
/// ckt.add_capacitor("C1", n1, 0, 1e-9);
/// ckt.add_port("p", n1, 0);
/// let sys = MnaSystem::assemble_general(&ckt)?;
/// let drive = [Waveform::Step { t0: 0.0, amplitude: 1e-3 }];
/// // Integrate for 10 time constants; v settles toward I·R = 1 V.
/// let res = transient(&sys, &drive, 1e-8, 1000, Integrator::Trapezoidal)?;
/// let v_end = res.port_voltages[(1000, 0)];
/// assert!((v_end - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn transient(
    sys: &MnaSystem,
    sources: &[Waveform],
    h: f64,
    steps: usize,
    method: Integrator,
) -> Result<TransientResult, TransientError> {
    if sys.s_power != 1 || sys.output_s_factor != 0 {
        return Err(TransientError::NotTimeDomain {
            s_power: sys.s_power,
            output_s_factor: sys.output_s_factor,
        });
    }
    let p = sys.num_ports();
    if sources.len() != p {
        return Err(TransientError::WrongSourceCount {
            ports: p,
            sources: sources.len(),
        });
    }
    assert!(h > 0.0 && h.is_finite(), "bad step size");
    let n = sys.dim();
    let start = std::time::Instant::now();

    // Companion matrix K = G + (alpha/h) C; symmetric circuits use the
    // sparse LDLT, active (VCCS) circuits the dense pivoted LU.
    let alpha = match method {
        Integrator::BackwardEuler => 1.0,
        Integrator::Trapezoidal => 2.0,
    };
    let k = sys.g.add_scaled(1.0, &sys.c, alpha / h);
    enum Companion {
        Sparse(NumericLdlt<f64>),
        /// Symmetric saddle-point fallback: `G + αC` with a structurally
        /// zero diagonal (e.g. an inductor-only internal node) defeats the
        /// unpivoted sparse LDLᵀ but factors fine with Bunch–Kaufman —
        /// the same fallback the reduction's `GFactor` uses.
        SymDense(mpvl_la::BunchKaufman),
        Dense(mpvl_la::Lu<f64>),
    }
    impl Companion {
        fn solve(&self, b: &[f64]) -> Vec<f64> {
            match self {
                Companion::Sparse(f) => f.solve(b),
                Companion::SymDense(bk) => bk.solve(b),
                Companion::Dense(lu) => lu.solve(b).expect("factored nonsingular"),
            }
        }
    }
    let fac = if sys.is_symmetric() {
        match NumericLdlt::factor(&k, Ordering::MinDegree) {
            Ok(f) => Companion::Sparse(f),
            Err(sparse_err) => {
                mpvl_obs::counter_add("transient", "dense_fallbacks", 1);
                // Keep the *sparse* error if the dense route fails too:
                // it names the offending pivot.
                Companion::SymDense(
                    mpvl_la::BunchKaufman::new(&k.to_dense())
                        .map_err(|_| TransientError::Factorization(sparse_err))?,
                )
            }
        }
    } else {
        Companion::Dense(mpvl_la::Lu::new(k.to_dense()).map_err(|_| {
            TransientError::Factorization(mpvl_sparse::LdltError::ZeroPivot {
                col: 0,
                magnitude: 0.0,
            })
        })?)
    };

    let eval_u = |t: f64| -> Vec<f64> { sources.iter().map(|w| w.eval(t)).collect() };
    let bu = |u: &[f64]| -> Vec<f64> { sys.b.matvec(u) };

    let mut x = vec![0.0f64; n];
    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Mat::zeros(steps + 1, p);
    times.push(0.0);
    let y0 = sys.b.t_matvec(&x);
    for (j, &v) in y0.iter().enumerate() {
        voltages[(0, j)] = v;
    }
    let mut u_prev = eval_u(0.0);
    for k_step in 1..=steps {
        let t = k_step as f64 * h;
        let u_next = eval_u(t);
        // rhs by method:
        //   BE: (C/h) x_k                + B u_{k+1}
        //   TR: (2C/h) x_k - G x_k       + B (u_{k+1} + u_k)
        let cx = sys.c.matvec(&x);
        let mut rhs: Vec<f64> = match method {
            Integrator::BackwardEuler => {
                let mut r = bu(&u_next);
                for i in 0..n {
                    r[i] += cx[i] / h;
                }
                r
            }
            Integrator::Trapezoidal => {
                let gx = sys.g.matvec(&x);
                let usum: Vec<f64> = u_next.iter().zip(&u_prev).map(|(a, b)| a + b).collect();
                let mut r = bu(&usum);
                for i in 0..n {
                    r[i] += 2.0 * cx[i] / h - gx[i];
                }
                r
            }
        };
        x = fac.solve(&rhs);
        rhs.clear();
        times.push(t);
        let y = sys.b.t_matvec(&x);
        for (j, &v) in y.iter().enumerate() {
            voltages[(k_step, j)] = v;
        }
        u_prev = u_next;
    }
    Ok(TransientResult {
        times,
        port_voltages: voltages,
        cpu_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::{Circuit, GROUND};

    fn rc_parallel(r: f64, c: f64) -> MnaSystem {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_resistor("R1", n1, GROUND, r);
        ckt.add_capacitor("C1", n1, GROUND, c);
        ckt.add_port("p", n1, GROUND);
        MnaSystem::assemble_general(&ckt).unwrap()
    }

    #[test]
    fn rc_step_matches_analytic_exponential() {
        // Parallel RC driven by a current step: v(t) = IR (1 - e^{-t/RC}).
        let (r, c, i0) = (1e3, 1e-9, 1e-3);
        let sys = rc_parallel(r, c);
        let tau = r * c;
        let h = tau / 100.0;
        let res = transient(
            &sys,
            &[Waveform::Step {
                t0: 0.0,
                amplitude: i0,
            }],
            h,
            500,
            Integrator::Trapezoidal,
        )
        .unwrap();
        for k in (50..500).step_by(50) {
            let t = res.times[k];
            let expect = i0 * r * (1.0 - (-t / tau).exp());
            let got = res.port_voltages[(k, 0)];
            assert!(
                (got - expect).abs() < 2e-3 * i0 * r,
                "t={t}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn backward_euler_also_converges() {
        let (r, c, i0) = (1e3, 1e-9, 1e-3);
        let sys = rc_parallel(r, c);
        let h = r * c / 400.0;
        let res = transient(
            &sys,
            &[Waveform::Step {
                t0: 0.0,
                amplitude: i0,
            }],
            h,
            2000,
            Integrator::BackwardEuler,
        )
        .unwrap();
        let t_end = res.times[2000];
        let expect = i0 * r * (1.0 - (-t_end / (r * c)).exp());
        assert!((res.port_voltages[(2000, 0)] - expect).abs() < 5e-3 * i0 * r);
    }

    #[test]
    fn rlc_oscillation_frequency() {
        // Series RLC driven lightly: port -> L -> C to ground with small R.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        let (r, l, c) = (0.5, 1e-6, 1e-9);
        ckt.add_resistor("R1", n1, n2, r);
        ckt.add_inductor("L1", n2, GROUND, l);
        ckt.add_capacitor("C1", n1, GROUND, c);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let h = 1.0 / (f0 * 200.0);
        let res = transient(
            &sys,
            &[Waveform::Step {
                t0: 0.0,
                amplitude: 1e-3,
            }],
            h,
            4000,
            Integrator::Trapezoidal,
        )
        .unwrap();
        // Count zero crossings of (v - v_mean) over an integer number of
        // periods to estimate the ringing frequency.
        let vals: Vec<f64> = (0..=4000).map(|k| res.port_voltages[(k, 0)]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let mut crossings = 0;
        for w in vals.windows(2) {
            if (w[0] - mean) * (w[1] - mean) < 0.0 {
                crossings += 1;
            }
        }
        let total_t = res.times[4000];
        let f_est = crossings as f64 / 2.0 / total_t;
        assert!(
            (f_est - f0).abs() / f0 < 0.05,
            "estimated {f_est:.3e} vs analytic {f0:.3e}"
        );
    }

    #[test]
    fn symmetric_saddle_point_companion_uses_dense_fallback() {
        // Node n2 touches only inductor L1, so the companion G + (α/h)C
        // has a structurally zero diagonal there and the zero-diagonal row
        // is the first one min-degree eliminates — the unpivoted sparse
        // LDLᵀ hits a zero pivot, and `transient` used to surface that as
        // a hard Factorization error even though the (symmetric,
        // indefinite) matrix factors fine with Bunch–Kaufman.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        let (r, l, c, i0) = (10.0, 1e-6, 1e-9, 1e-3);
        ckt.add_resistor("R1", n1, GROUND, r);
        ckt.add_inductor("L1", n1, n2, l);
        ckt.add_capacitor("C1", n1, GROUND, c);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let h = 1e-9;
        // Pin the premise: this companion really does defeat the sparse path.
        let k = sys.g.add_scaled(1.0, &sys.c, 2.0 / h);
        assert!(
            NumericLdlt::factor(&k, Ordering::MinDegree).is_err(),
            "regression premise: sparse LDLT must fail on this saddle point"
        );
        let res = transient(
            &sys,
            &[Waveform::Step {
                t0: 0.0,
                amplitude: i0,
            }],
            h,
            2000,
            Integrator::Trapezoidal,
        )
        .expect("dense symmetric fallback must rescue the factorization");
        // The dangling inductor carries no current, so the port settles to
        // the plain RC answer v -> i0 * R.
        let v_end = res.port_voltages[(2000, 0)];
        assert!(
            (v_end - i0 * r).abs() < 1e-2 * i0 * r,
            "expected {} at the port, got {v_end}",
            i0 * r
        );
    }

    #[test]
    fn rejects_sigma_form_systems() {
        use mpvl_circuit::generators::{peec, PeecParams};
        let model = peec(&PeecParams {
            cells: 10,
            output_cell: 5,
            ..PeecParams::default()
        });
        let err = transient(
            &model.system,
            &[Waveform::Zero, Waveform::Zero],
            1e-12,
            10,
            Integrator::Trapezoidal,
        )
        .unwrap_err();
        assert!(matches!(err, TransientError::NotTimeDomain { .. }));
    }

    #[test]
    fn rejects_wrong_source_count() {
        let sys = rc_parallel(1.0, 1e-9);
        let err = transient(&sys, &[], 1e-12, 10, Integrator::Trapezoidal).unwrap_err();
        assert!(matches!(err, TransientError::WrongSourceCount { .. }));
    }

    #[test]
    fn energy_decays_without_drive() {
        // Passive circuit with zero input stays at rest.
        let sys = rc_parallel(10.0, 1e-9);
        let res = transient(&sys, &[Waveform::Zero], 1e-11, 100, Integrator::Trapezoidal).unwrap();
        for k in 0..=100 {
            assert_eq!(res.port_voltages[(k, 0)], 0.0);
        }
    }
}
