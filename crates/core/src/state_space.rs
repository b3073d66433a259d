//! Time-domain integration of the reduced model itself (paper eq. 23).
//!
//! §6: *"This system of only n equations can be used to replace the
//! original, much larger, system (4)"* — the reduced DAE
//!
//! ```text
//! Δₙ⁻¹ x(t) + TₙΔₙ⁻¹ ẋ(t) = ρₙ i(t),    vₙ(t) = ρₙᵀ x(t)
//! ```
//!
//! is integrated directly with the same fixed-step trapezoidal scheme the
//! full-circuit simulator uses, so the reduced model can stand in for the
//! subcircuit inside a transient run *without* netlist synthesis.

use crate::{ReducedModel, SympvlError};
use mpvl_la::{Lu, Mat};
use mpvl_sim::{integrate, Descriptor, Integrator, TransientResult, Waveform};

/// The re-centred stamp `Ĝ x + Ĉ ẋ = ρ u(t)` as dense matrices.
struct Stamp {
    ghat: Mat<f64>,
    chat: Mat<f64>,
    rho: Mat<f64>,
}

impl Descriptor for Stamp {
    fn b(&self) -> &Mat<f64> {
        &self.rho
    }
    fn g_mul(&self, x: &[f64]) -> Vec<f64> {
        self.ghat.matvec(x)
    }
    fn c_mul(&self, x: &[f64]) -> Vec<f64> {
        self.chat.matvec(x)
    }
}

/// Integrates eq. (23) from rest: `Ĝ x + Ĉ ẋ = ρ u(t)`, `v = ρᵀ x` with
/// `Ĝ = Δ⁻¹ − s₀TΔ⁻¹` and `Ĉ = TΔ⁻¹` (the shift re-centres σ to `s`),
/// by the same time loop as [`mpvl_sim::transient`]
/// ([`mpvl_sim::integrate`]), with a dense LU of the companion matrix.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::{generators::random_rc, MnaSystem};
/// use mpvl_sim::{Integrator, Waveform};
/// use sympvl::{simulate_stamp, sympvl, SympvlOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&random_rc(1, 20, 1))?;
/// let model = sympvl(&sys, 6, &SympvlOptions::default())?;
/// let drive = [Waveform::Step { t0: 0.0, amplitude: 1e-3 }];
/// let run = simulate_stamp(&model, &drive, 1e-11, 200, Integrator::Trapezoidal)?;
/// assert_eq!(run.times.len(), 201);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`SympvlError::Synthesis`] unless the model is in the plain `σ = s`
///   form (`s_power = 1`, no leading output factor).
/// * [`SympvlError::Singular`] if the companion matrix cannot be factored.
///
/// # Panics
///
/// Panics if `sources.len()` differs from the port count or `h <= 0`.
pub fn simulate_stamp(
    model: &ReducedModel,
    sources: &[Waveform],
    h: f64,
    steps: usize,
    method: Integrator,
) -> Result<TransientResult, SympvlError> {
    if model.s_power() != 1 || model.output_s_factor() != 0 {
        return Err(SympvlError::Synthesis {
            reason: "time-domain stamp requires the plain σ = s form".to_string(),
        });
    }
    assert_eq!(sources.len(), model.num_ports(), "one waveform per port");
    assert!(h > 0.0 && h.is_finite(), "bad step size");
    let n = model.order();

    // Ghat/Chat from the stamp, re-centred: Z(s) = rho^T(Ghat + s Chat)^{-1} rho
    // with Ghat = Delta^{-1} - s0*T*Delta^{-1}, Chat = T*Delta^{-1}.
    let (dinv, tdinv, rho) = model.stamp()?;
    let s0 = model.shift();
    let stamp = Stamp {
        ghat: Mat::from_fn(n, n, |i, j| dinv[(i, j)] - s0 * tdinv[(i, j)]),
        chat: tdinv,
        rho,
    };
    integrate(&stamp, sources, h, steps, method, |alpha_h| {
        let k = Mat::from_fn(n, n, |i, j| {
            stamp.ghat[(i, j)] + alpha_h * stamp.chat[(i, j)]
        });
        let lu = Lu::new(k).map_err(|_| SympvlError::Singular {
            context: "reduced-stamp companion matrix",
        })?;
        Ok(move |rhs: &[f64]| {
            lu.solve(rhs).map_err(|_| SympvlError::Singular {
                context: "reduced-stamp step",
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sympvl, synthesize_rc, SympvlOptions, SynthesisOptions};
    use mpvl_circuit::generators::{embed_with_drivers, random_rc, rc_line};
    use mpvl_circuit::MnaSystem;
    use mpvl_sim::transient;

    #[test]
    fn stamp_transient_matches_full_circuit() {
        // Grounded RC network: the stamp must track the full transient.
        let ckt = random_rc(8, 30, 2);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let rc_sys = MnaSystem::assemble(&ckt).unwrap();
        let model = sympvl(&rc_sys, 20, &SympvlOptions::default()).unwrap();
        let drive = [
            Waveform::Step {
                t0: 0.0,
                amplitude: 1e-3,
            },
            Waveform::Zero,
        ];
        let h = 2e-11;
        let steps = 800;
        let full = transient(&sys, &drive, h, steps, Integrator::Trapezoidal).unwrap();
        let red = simulate_stamp(&model, &drive, h, steps, Integrator::Trapezoidal).unwrap();
        let vmax = (0..=steps)
            .map(|k| full.port_voltages[(k, 0)].abs())
            .fold(0.0f64, f64::max);
        for k in (0..=steps).step_by(50) {
            for j in 0..2 {
                let d = (full.port_voltages[(k, j)] - red.port_voltages[(k, j)]).abs();
                assert!(d < 1e-3 * vmax, "step {k} port {j}: {d}");
            }
        }
    }

    #[test]
    fn exact_model_stamp_tracks_full_transient_to_roundoff() {
        // An exhausted (exact) model has the full circuit's transfer
        // function, and the backward-Euler and bilinear maps do not
        // depend on the realization, so the two runs of the shared time
        // loop differ only by roundoff — at every step, both schemes.
        let ckt = random_rc(3, 12, 2);
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let model = sympvl(
            &MnaSystem::assemble(&ckt).unwrap(),
            64,
            &SympvlOptions::default(),
        )
        .unwrap();
        assert!(model.is_exact(), "order {} not exhausted", model.order());
        let drive = [
            Waveform::Step {
                t0: 0.0,
                amplitude: 1e-3,
            },
            Waveform::Pulse {
                t0: 5e-11,
                rise: 1e-10,
                width: 1e-9,
                fall: 1e-10,
                amplitude: -5e-4,
            },
        ];
        let (h, steps) = (2e-11, 400);
        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let full = transient(&sys, &drive, h, steps, method).unwrap();
            let red = simulate_stamp(&model, &drive, h, steps, method).unwrap();
            assert_eq!(full.times, red.times);
            let vmax = full.port_voltages.max_abs();
            for k in 0..=steps {
                for j in 0..2 {
                    let d = (full.port_voltages[(k, j)] - red.port_voltages[(k, j)]).abs();
                    assert!(d <= 1e-9 * vmax, "{method:?} step {k} port {j}: {d:e}");
                }
            }
        }
    }

    #[test]
    fn stamp_equals_synthesized_netlist() {
        // Two routes to the time domain — direct stamp integration and
        // netlist synthesis + MNA transient — must agree tightly.
        let ckt = rc_line(40, 25.0, 1e-12);
        let rc_sys = MnaSystem::assemble(&ckt).unwrap();
        let model = sympvl(&rc_sys, 10, &SympvlOptions::default()).unwrap();
        let synth = synthesize_rc(&model, &SynthesisOptions { prune_tol: 0.0 }).unwrap();
        // Terminate with drivers so the response settles.
        let red_sys =
            MnaSystem::assemble_general(&embed_with_drivers(&synth.circuit, 75.0)).unwrap();
        // Stamp route: model the drivers by superposition is nontrivial;
        // instead compare both against each other on the *unterminated*
        // netlist.
        let open_sys = MnaSystem::assemble_general(&synth.circuit).unwrap();
        let drive = [
            Waveform::Pulse {
                t0: 1e-10,
                rise: 1e-10,
                width: 2e-9,
                fall: 1e-10,
                amplitude: 1e-3,
            },
            Waveform::Zero,
        ];
        let h = 1e-11;
        let steps = 500;
        let a = transient(&open_sys, &drive, h, steps, Integrator::Trapezoidal).unwrap();
        let b = simulate_stamp(&model, &drive, h, steps, Integrator::Trapezoidal).unwrap();
        let vmax = (0..=steps)
            .map(|k| a.port_voltages[(k, 0)].abs())
            .fold(0.0f64, f64::max);
        for k in (0..=steps).step_by(25) {
            for j in 0..2 {
                let d = (a.port_voltages[(k, j)] - b.port_voltages[(k, j)]).abs();
                assert!(d < 1e-8 * vmax.max(1e-30), "step {k} port {j}: {d}");
            }
        }
        let _ = red_sys;
    }

    #[test]
    fn backward_euler_stamp_converges() {
        let ckt = random_rc(12, 20, 1);
        let rc_sys = MnaSystem::assemble(&ckt).unwrap();
        let model = sympvl(&rc_sys, 8, &SympvlOptions::default()).unwrap();
        let drive = [Waveform::Step {
            t0: 0.0,
            amplitude: 1e-3,
        }];
        let h = 1e-11;
        let tr = simulate_stamp(&model, &drive, h, 2000, Integrator::Trapezoidal).unwrap();
        let be = simulate_stamp(&model, &drive, h, 2000, Integrator::BackwardEuler).unwrap();
        let d = (tr.port_voltages[(2000, 0)] - be.port_voltages[(2000, 0)]).abs();
        assert!(
            d < 1e-2 * tr.port_voltages[(2000, 0)].abs().max(1e-30),
            "methods disagree at steady state: {d}"
        );
    }

    #[test]
    fn rejects_sigma_squared_models() {
        use mpvl_circuit::generators::{peec, PeecParams};
        let m = peec(&PeecParams {
            cells: 10,
            output_cell: 5,
            ..PeecParams::default()
        });
        let model = sympvl(&m.system, 6, &SympvlOptions::default()).unwrap();
        let err = simulate_stamp(
            &model,
            &[Waveform::Zero, Waveform::Zero],
            1e-12,
            10,
            Integrator::Trapezoidal,
        )
        .unwrap_err();
        assert!(matches!(err, SympvlError::Synthesis { .. }));
    }
}
