//! `grid_cold`: cold reductions of a 10⁵-unknown RC power grid.
//!
//! Every request runs on a fresh service with a fresh registry
//! directory, so nothing is cached: the request pays ingest, assembly,
//! the fill-reducing ordering and the symbolic and numeric LDLᵀ of `G`,
//! an order-128 block-Lanczos run on 64 ports, the plan compile and a
//! 201-point sweep. It is the only workload where the sparse factor
//! and large-n Lanczos dominate.

use crate::bits::{combine, model_bits, points_bits};
use crate::exact::{exact_z, jw, nested_dissection, rel_err};
use crate::netlist::{grid_coords, power_grid, GridParams};
use crate::replay::{Item, Replay, ReplayService};
use crate::run::{Check, Ctx, Workload};
use mpvl_circuit::{parse_spice, MnaSystem};
use mpvl_engine::{EvalPoint, ReduceSpec};
use mpvl_la::Complex64;
use mpvl_service::{ReductionService, ServiceOptions};
use mpvl_testkit::SmallRng;
use std::sync::Arc;
use sympvl::{certify, Certificate, ReducedModel};

const ORDER: usize = 128;
const SMALL_ORDER: usize = 12;
/// Frequencies checked against the exact impedance, Hz.
const CHECK_HZ: [f64; 2] = [1e7, 1e9];
/// Eval points compared with the model's LU evaluation.
const LU_SAMPLES: usize = 8;
const TOLERANCE: f64 = 1e-6;

/// See the module docs.
pub struct GridCold;

/// The request on the seeded netlist.
pub struct Input {
    item: Item,
}

/// One cold reduction's model and sweep.
pub struct Out {
    model: ReducedModel,
    eval: Vec<EvalPoint>,
    bits: u64,
}

fn options(ctx: &Ctx, i: usize) -> ServiceOptions {
    ServiceOptions::default().with_registry_dir(ctx.dir(&format!("registry-{i}")))
}

impl Workload for GridCold {
    const NAME: &'static str = "grid_cold";
    type Input = Input;
    type Real = ();
    type Traced = ();
    type Raw = (ReducedModel, Vec<EvalPoint>);
    type Out = Out;

    fn generate(ctx: &Ctx) -> Result<Input, String> {
        let (params, order) = if ctx.small {
            let p = GridParams {
                side: 24,
                pads: 3,
                ..GridParams::full()
            };
            (p, SMALL_ORDER)
        } else {
            (GridParams::full(), ORDER)
        };
        let text = power_grid(&params, &mut SmallRng::seed_from_u64(ctx.seed));
        let item = Item {
            text: Arc::from(text),
            spec: ReduceSpec::pade_fixed(order).map_err(|e| e.to_string())?,
            eval_hz: Some(mpvl_sim::log_space(1e6, 1e10, 201)),
        };
        Ok(Input { item })
    }

    fn start(_: &Ctx, _: &Input) -> Result<(), String> {
        Ok(())
    }

    fn request(ctx: &Ctx, _: &mut (), input: &Input, i: usize) -> Result<Self::Raw, String> {
        let service = ReductionService::new(options(ctx, i));
        let outcome = service
            .submit(&input.item.request()?)
            .map_err(|e| e.to_string())?;
        Ok((outcome.model, outcome.eval.ok_or("no sweep returned")?))
    }

    fn start_traced(_: &Ctx, _: &Replay, _: &Input) -> Result<(), String> {
        Ok(())
    }

    fn replay(
        ctx: &Ctx,
        r: &Replay,
        _: &mut (),
        input: &Input,
        i: usize,
    ) -> Result<Self::Raw, String> {
        let service = ReplayService::new(options(ctx, i));
        let reply = service.submit(r, &input.item)?;
        Ok((reply.model, reply.eval.ok_or("no sweep returned")?))
    }

    fn pass_len(_: &Input) -> usize {
        1
    }

    /// Every request asks for the same cold model.
    fn key(_: &Input, _: usize) -> usize {
        0
    }

    fn digest((model, eval): Self::Raw, _: usize, _: usize, _: bool) -> Out {
        let bits = combine(&[model_bits(&model), points_bits(&eval)]);
        Out { model, eval, bits }
    }

    fn points(out: &Out) -> u64 {
        out.eval.len() as u64
    }

    fn bits(out: &Out) -> u64 {
        out.bits
    }

    /// Exact `Z` at [`CHECK_HZ`] by a nested-dissection complex LDLᵀ of
    /// the full grid; the sweep equal to the model's LU evaluation; an
    /// RC model certified passive.
    fn check(_: &Ctx, input: &Input, outs: &[Out]) -> Check {
        let mut check = Check {
            tolerance: TOLERANCE,
            ..Check::default()
        };
        let reference = (|| {
            let (ckt, names) = parse_spice(&input.item.text).map_err(|e| e.to_string())?;
            let sys = MnaSystem::assemble(&ckt).map_err(|e| e.to_string())?;
            let coords = grid_coords(&names, sys.dim()).ok_or("grid node names")?;
            exact_z(&sys, &jw(&CHECK_HZ), Some(nested_dissection(&coords)))
        })();
        let exact = match reference {
            Ok(z) => z,
            Err(e) => {
                check.fail(format!("exact reference: {e}"));
                return check;
            }
        };
        // Every cold model is bit-identical (the runner checks that), so
        // the first one stands for all.
        if let Some(out) = outs.first() {
            for (zx, s) in exact.iter().zip(jw(&CHECK_HZ)) {
                match out.model.eval(s) {
                    Ok(z) => check.err(rel_err(&z, zx)),
                    Err(e) => check.fail(format!("model eval: {e}")),
                }
            }
            let stride = (out.eval.len() / LU_SAMPLES).max(1);
            for p in out.eval.iter().step_by(stride) {
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * p.freq_hz);
                match out.model.eval(s) {
                    Ok(z) if rel_err(&p.z, &z) <= 1e-10 => {}
                    Ok(_) => check.fail(format!("sweep point {} Hz differs from LU", p.freq_hz)),
                    Err(e) => check.fail(format!("model eval: {e}")),
                }
            }
            match certify(&out.model, 1e-9) {
                Ok(Certificate::ProvablyPassive { .. }) => {}
                other => check.fail(format!("RC grid model not certified passive: {other:?}")),
            }
        }
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{one_pass, perturbed, small_ctx};

    #[test]
    fn a_perturbed_model_fails_the_check() {
        let ctx = small_ctx("grid_cold");
        let (input, mut outs) = one_pass::<GridCold>(&ctx);
        assert!(GridCold::check(&ctx, &input, &outs).passed());
        outs[0].model = perturbed(&outs[0].model, 1.001);
        assert!(!GridCold::check(&ctx, &input, &outs).passed());
    }
}
