//! `backends_band`: all three reduction backends over one band.
//!
//! Each request gives a fresh service a jittered 17-wire × 200-segment
//! RC interconnect (3,417 unknowns; `J = I`, so every backend applies)
//! in one batch of three: adaptive Padé over 1e7–1e10 Hz, adaptive
//! multi-point with total order 136, and balanced truncation at order
//! 68, each with a 41-point sweep of the band. (At total order 68 the
//! multi-point model of this 17-port line is only good to ~10 %, and
//! balanced truncation at 34 to ~70 % — too coarse to tell a wrong
//! answer from a right one.) The batch reaches the
//! engine as one `reduce_batch`, whose groups run on separate workers.
//! Lanczos, the Lyapunov solve and the multi-point merge dominate, with
//! numeric refactors at several shifts sharing one session's factor
//! cache; the ordering is small at this size.

use crate::bits::{combine, model_bits, points_bits};
use crate::exact::{exact_z, jw, rel_err};
use crate::netlist::{write_jittered, Spelling};
use crate::replay::{Item, Replay, ReplayService};
use crate::run::{Check, Ctx, Workload};
use mpvl_circuit::generators::{interconnect, InterconnectParams};
use mpvl_circuit::{parse_spice, MnaSystem};
use mpvl_engine::{EvalPoint, ReduceSpec};
use mpvl_la::Complex64;
use mpvl_service::{ReductionService, ServiceOptions};
use mpvl_testkit::SmallRng;
use std::sync::Arc;
use sympvl::{AdaptiveOptions, BtOptions, MultiPointOptions, ReducedModel};

const F_LO: f64 = 1e7;
const F_HI: f64 = 1e10;
const BAND_POINTS: usize = 41;
/// Jittered circuits the requests cycle through.
const VARIANTS: usize = 3;
const JITTER: f64 = 0.1;
/// Tolerance on the band error of the Padé and multi-point models.
const TOLERANCE: f64 = 1e-2;
/// Slack on the Hankel bound for the low-rank Gramian's truncation.
const HANKEL_SLACK: f64 = 1.25;

/// See the module docs.
pub struct BackendsBand;

/// Per variant, the batch of three requests.
pub struct Input {
    batches: Vec<[Item; 3]>,
}

/// One batch's fingerprint; its models and Hankel bound when the
/// variant ran for the first time.
pub struct Out {
    variant: usize,
    bits: u64,
    first: Option<(Vec<ReducedModel>, f64)>,
}

/// Per backend: the model, its sweep, and the Hankel bound of BT.
type Parts = Vec<(ReducedModel, Vec<EvalPoint>, Option<f64>)>;

fn options(ctx: &Ctx, i: usize) -> ServiceOptions {
    ServiceOptions::default().with_registry_dir(ctx.dir(&format!("registry-{i}")))
}

fn specs(small: bool) -> Result<[ReduceSpec; 3], String> {
    let (multi, bt) = if small { (12, 6) } else { (136, 68) };
    let e = |e: sympvl::SympvlError| e.to_string();
    Ok([
        ReduceSpec::pade_adaptive(AdaptiveOptions::for_band(F_LO, F_HI).map_err(e)?),
        ReduceSpec::multipoint(
            MultiPointOptions::for_band(F_LO, F_HI)
                .and_then(|o| o.with_total_order(multi))
                .map_err(e)?,
        ),
        ReduceSpec::balanced(
            BtOptions::for_band(F_LO, F_HI)
                .and_then(|o| o.with_order(bt))
                .map_err(e)?,
        ),
    ])
}

impl Workload for BackendsBand {
    const NAME: &'static str = "backends_band";
    type Input = Input;
    type Real = ();
    type Traced = ();
    type Raw = Parts;
    type Out = Out;

    fn generate(ctx: &Ctx) -> Result<Input, String> {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let ckt = interconnect(&if ctx.small {
            InterconnectParams {
                wires: 3,
                segments: 20,
                coupling_reach: 2,
                ..InterconnectParams::default()
            }
        } else {
            InterconnectParams {
                wires: 17,
                segments: 200,
                ..InterconnectParams::default()
            }
        });
        let specs = specs(ctx.small)?;
        let eval_hz = Some(mpvl_sim::log_space(F_LO, F_HI, BAND_POINTS));
        let batches = (0..VARIANTS)
            .map(|_| {
                let text: Arc<str> =
                    Arc::from(write_jittered(&ckt, &mut rng, JITTER).text(Spelling::Plain));
                specs.clone().map(|spec| Item {
                    text: Arc::clone(&text),
                    spec,
                    eval_hz: eval_hz.clone(),
                })
            })
            .collect();
        Ok(Input { batches })
    }

    fn start(_: &Ctx, _: &Input) -> Result<(), String> {
        Ok(())
    }

    fn request(ctx: &Ctx, _: &mut (), input: &Input, i: usize) -> Result<Parts, String> {
        let service = ReductionService::new(options(ctx, i));
        let requests = input.batches[i % VARIANTS]
            .iter()
            .map(Item::request)
            .collect::<Result<Vec<_>, _>>()?;
        service
            .submit_batch(&requests)
            .into_iter()
            .map(|outcome| {
                let o = outcome.map_err(|e| e.to_string())?;
                let bound = o.balanced.as_ref().map(|b| b.hankel_bound);
                Ok((o.model, o.eval.ok_or("no sweep returned")?, bound))
            })
            .collect()
    }

    fn start_traced(_: &Ctx, _: &Replay, _: &Input) -> Result<(), String> {
        Ok(())
    }

    fn replay(ctx: &Ctx, r: &Replay, _: &mut (), input: &Input, i: usize) -> Result<Parts, String> {
        let service = ReplayService::new(options(ctx, i));
        let items = &input.batches[i % VARIANTS];
        let requests = items
            .iter()
            .map(|item| service.ingest(r, item))
            .collect::<Result<Vec<_>, _>>()?;
        service
            .submit_batch(r, items, &requests)
            .into_iter()
            .map(|reply| {
                let reply = reply?;
                Ok((
                    reply.model,
                    reply.eval.ok_or("no sweep returned")?,
                    reply.hankel_bound,
                ))
            })
            .collect()
    }

    /// One request per variant.
    fn pass_len(_: &Input) -> usize {
        VARIANTS
    }

    fn key(_: &Input, i: usize) -> usize {
        i % VARIANTS
    }

    fn digest(parts: Parts, _: usize, variant: usize, first: bool) -> Out {
        let bits: Vec<u64> = parts
            .iter()
            .flat_map(|(m, e, _)| [model_bits(m), points_bits(e)])
            .collect();
        let bound = parts.get(2).and_then(|p| p.2).unwrap_or(f64::NAN);
        Out {
            variant,
            bits: combine(&bits),
            first: first.then(|| (parts.into_iter().map(|(m, _, _)| m).collect(), bound)),
        }
    }

    fn points(_: &Out) -> u64 {
        (3 * BAND_POINTS) as u64
    }

    fn bits(out: &Out) -> u64 {
        out.bits
    }

    /// The Padé and multi-point models against the exact impedance on
    /// the band grid; balanced truncation within its Hankel bound on the
    /// shifted axis, where that bound holds. Repeats are bit-identical to the first run
    /// of their variant (checked by the runner).
    fn check(_: &Ctx, input: &Input, outs: &[Out]) -> Check {
        let mut check = Check {
            tolerance: TOLERANCE,
            ..Check::default()
        };
        let band = jw(&mpvl_sim::log_space(F_LO, F_HI, BAND_POINTS));
        for out in outs {
            let Some((models, hankel_bound)) = &out.first else {
                continue;
            };
            let sys = match parse_spice(&input.batches[out.variant][0].text)
                .map_err(|e| e.to_string())
                .and_then(|(ckt, _)| MnaSystem::assemble(&ckt).map_err(|e| e.to_string()))
            {
                Ok(sys) => sys,
                Err(e) => {
                    check.fail(format!("variant {}: {e}", out.variant));
                    continue;
                }
            };
            let bt = &models[2];
            let shifted: Vec<Complex64> = band
                .iter()
                .map(|s| Complex64::new(bt.shift(), s.im))
                .collect();
            let (exact, exact_shifted) =
                match (exact_z(&sys, &band, None), exact_z(&sys, &shifted, None)) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(e), _) | (_, Err(e)) => {
                        check.fail(format!("variant {}: exact reference: {e}", out.variant));
                        continue;
                    }
                };
            for (model, name) in models.iter().zip(["Padé", "multi-point"]) {
                for (zx, &s) in exact.iter().zip(&band) {
                    match model.eval(s) {
                        Ok(z) => check.err(rel_err(&z, zx)),
                        Err(e) => check.fail(format!("{name}: eval: {e}")),
                    }
                }
            }
            let worst = exact_shifted
                .iter()
                .zip(&shifted)
                .map(|(zx, &s)| bt.eval(s).map_or(f64::INFINITY, |z| (&z - zx).max_abs()))
                .fold(0.0, f64::max);
            let within = worst <= HANKEL_SLACK * hankel_bound;
            if !within {
                check.fail(format!(
                    "variant {}: BT error {worst:.3e} exceeds its Hankel bound {hankel_bound:.3e}",
                    out.variant
                ));
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
        let ctx = small_ctx("backends_band");
        let (input, mut outs) = one_pass::<BackendsBand>(&ctx);
        assert!(BackendsBand::check(&ctx, &input, &outs).passed());
        let (models, _) = outs[0].first.as_mut().expect("first run of a variant");
        models[1] = perturbed(&models[1], 1.1);
        assert!(!BackendsBand::check(&ctx, &input, &outs).passed());
    }
}
