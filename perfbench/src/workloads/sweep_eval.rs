//! `sweep_eval`: wide frequency sweeps of already reduced models.
//!
//! Set-up reduces three models — the 17-port interconnect at order 68
//! and the 16-port package at order 64 through a service, the PEEC LC
//! two-port at order 48 through a session — and compiles their plans.
//! Each request then evaluates one model over 2001 log-spaced points of
//! a seeded sub-band of 1e6–1e10 Hz. Plans are compiled once and
//! reused, so the evaluation kernel does nearly all the work: the
//! opposite use of the eval layer from `serve_mix`, which compiles a
//! plan per request and evaluates 21 points.

use super::shuffle;
use crate::bits::points_bits;
use crate::exact::rel_err;
use crate::netlist::{jittered, write_jittered, Spelling};
use crate::replay::{Item, Replay, ReplayService, ReplaySession};
use crate::run::{Check, Ctx, Workload};
use mpvl_circuit::generators::{
    interconnect, package, peec, InterconnectParams, PackageParams, PeecParams,
};
use mpvl_engine::{EvalPoint, EvalRequest, ModelId, ReduceSpec, ReductionSession, SessionOptions};
use mpvl_service::{ReductionService, ServiceOptions};
use mpvl_testkit::SmallRng;
use std::sync::Arc;
use sympvl::ReducedModel;

const POINTS: usize = 2001;
const BANDS_PER_MODEL: usize = 8;
const JITTER: f64 = 0.1;
/// Points per first-seen sweep compared with the LU evaluation.
const LU_SAMPLES: usize = 20;
/// Near a pole the pole–residue sum and the LU solve agree only to the
/// pole's conditioning; the plan itself hands points within `1e-8`
/// (relative) of a pole to LU.
const TOLERANCE: f64 = 1e-8;

/// See the module docs.
pub struct SweepEval;

/// The seeded circuits and sweep requests.
pub struct Input {
    /// The two netlist requests, with a 21-point priming sweep.
    items: [Item; 2],
    peec: PeecParams,
    peec_order: usize,
    /// `(model, f_lo, f_hi)` per distinct sweep.
    sweeps: Vec<(usize, f64, f64)>,
    /// Sweep index per request.
    stream: Vec<usize>,
    points: usize,
}

/// The three models, where they live, and the prepared requests.
pub struct Models<S> {
    sessions: Vec<S>,
    models: Vec<Arc<ReducedModel>>,
    requests: Vec<EvalRequest>,
}

/// One sweep's fingerprint; its model and a sample of its points when
/// the sweep ran for the first time.
pub struct Out {
    points: u64,
    bits: u64,
    first: Option<(Arc<ReducedModel>, Vec<EvalPoint>)>,
}

fn options(ctx: &Ctx) -> ServiceOptions {
    ServiceOptions::default().with_registry_dir(ctx.dir("registry"))
}

fn eval_requests(input: &Input, ids: &[ModelId]) -> Result<Vec<EvalRequest>, String> {
    input
        .sweeps
        .iter()
        .map(|&(m, lo, hi)| {
            EvalRequest::log_sweep(ids[m], lo, hi, input.points).map_err(|e| e.to_string())
        })
        .collect()
}

fn sweep_of(input: &Input, i: usize) -> usize {
    input.stream[i % input.stream.len()]
}

impl Workload for SweepEval {
    const NAME: &'static str = "sweep_eval";
    type Input = Input;
    type Real = Models<Arc<ReductionSession>>;
    type Traced = Models<Arc<ReplaySession>>;
    type Raw = (Arc<ReducedModel>, Vec<EvalPoint>);
    type Out = Out;

    fn generate(ctx: &Ctx) -> Result<Input, String> {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let (ic, pkg, peec_params, orders) = if ctx.small {
            let ic = InterconnectParams {
                wires: 3,
                segments: 12,
                coupling_reach: 2,
                ..InterconnectParams::default()
            };
            let pkg = PackageParams {
                pins: 4,
                signal_pins: vec![0, 2],
                sections: 2,
                ..PackageParams::default()
            };
            let pe = PeecParams {
                cells: 20,
                output_cell: 10,
                ..PeecParams::default()
            };
            (ic, pkg, pe, [6, 8, 8])
        } else {
            (
                InterconnectParams::default(),
                PackageParams::default(),
                PeecParams::default(),
                [68, 64, 48],
            )
        };
        let prime = Some(mpvl_sim::log_space(1e6, 1e10, 21));
        let item = |ckt, order: usize, rng: &mut SmallRng| -> Result<Item, String> {
            Ok(Item {
                text: Arc::from(write_jittered(&ckt, rng, JITTER).text(Spelling::Plain)),
                spec: ReduceSpec::pade_fixed(order).map_err(|e| e.to_string())?,
                eval_hz: prime.clone(),
            })
        };
        let items = [
            item(interconnect(&ic), orders[0], &mut rng)?,
            item(package(&pkg), orders[1], &mut rng)?,
        ];
        let peec = PeecParams {
            self_inductance: jittered(&mut rng, peec_params.self_inductance, JITTER),
            cell_cap: jittered(&mut rng, peec_params.cell_cap, JITTER),
            ..peec_params
        };
        // Sub-bands: a seeded start decade in [6, 9) and a width of half
        // a decade to a full one, capped at 1e10 Hz.
        let mut sweeps = Vec::with_capacity(3 * BANDS_PER_MODEL);
        for m in 0..3 {
            for _ in 0..BANDS_PER_MODEL {
                let lo = rng.gen_range(6.0..9.0f64);
                let hi = (lo + rng.gen_range(0.5..1.0f64)).min(10.0);
                sweeps.push((m, 10f64.powf(lo), 10f64.powf(hi)));
            }
        }
        let mut stream: Vec<usize> = (0..sweeps.len()).collect();
        shuffle(&mut stream, &mut rng);
        Ok(Input {
            items,
            peec,
            peec_order: orders[2],
            sweeps,
            stream,
            points: if ctx.small { 101 } else { POINTS },
        })
    }

    fn start(ctx: &Ctx, input: &Input) -> Result<Self::Real, String> {
        let service = ReductionService::new(options(ctx));
        let (mut sessions, mut ids, mut models) = (Vec::new(), Vec::new(), Vec::new());
        for item in &input.items {
            let request = item.request()?;
            let outcome = service.submit(&request).map_err(|e| e.to_string())?;
            sessions.push(
                service
                    .session_of(&request)
                    .ok_or("the service dropped the session")?,
            );
            ids.push(outcome.model_id);
            models.push(Arc::new(outcome.model));
        }
        let session = Arc::new(ReductionSession::new(peec(&input.peec).system));
        let spec = ReduceSpec::pade_fixed(input.peec_order).map_err(|e| e.to_string())?;
        let outcome = session.reduce(&spec).map_err(|e| e.to_string())?;
        let prime = EvalRequest::new(outcome.model_id, mpvl_sim::log_space(1e6, 1e10, 21))
            .map_err(|e| e.to_string())?;
        session.eval(&prime).map_err(|e| e.to_string())?;
        sessions.push(session);
        ids.push(outcome.model_id);
        models.push(Arc::new(outcome.model));
        Ok(Models {
            requests: eval_requests(input, &ids)?,
            sessions,
            models,
        })
    }

    fn request(_: &Ctx, m: &mut Self::Real, input: &Input, i: usize) -> Result<Self::Raw, String> {
        let sweep = sweep_of(input, i);
        let model = input.sweeps[sweep].0;
        let outcome = m.sessions[model]
            .eval(&m.requests[sweep])
            .map_err(|e| e.to_string())?;
        Ok((Arc::clone(&m.models[model]), outcome.points))
    }

    fn start_traced(ctx: &Ctx, r: &Replay, input: &Input) -> Result<Self::Traced, String> {
        let service = ReplayService::new(options(ctx));
        let (mut sessions, mut ids, mut models) = (Vec::new(), Vec::new(), Vec::new());
        for item in &input.items {
            let reply = service.submit(r, item)?;
            sessions.push(
                service
                    .session_of(&reply.shard_key)
                    .ok_or("the service dropped the session")?,
            );
            ids.push(reply.id);
            models.push(Arc::new(reply.model));
        }
        let session = ReplaySession::new(peec(&input.peec).system, SessionOptions::default());
        let spec = ReduceSpec::pade_fixed(input.peec_order).map_err(|e| e.to_string())?;
        let reduced = session.reduce(r, &spec).map_err(|e| e.to_string())?;
        let prime = EvalRequest::new(reduced.id, mpvl_sim::log_space(1e6, 1e10, 21))
            .map_err(|e| e.to_string())?;
        session.eval(r, &prime).map_err(|e| e.to_string())?;
        sessions.push(session);
        ids.push(reduced.id);
        models.push(Arc::new(reduced.model));
        Ok(Models {
            requests: eval_requests(input, &ids)?,
            sessions,
            models,
        })
    }

    fn replay(
        _: &Ctx,
        r: &Replay,
        m: &mut Self::Traced,
        input: &Input,
        i: usize,
    ) -> Result<Self::Raw, String> {
        let sweep = sweep_of(input, i);
        let model = input.sweeps[sweep].0;
        let points = m.sessions[model]
            .eval(r, &m.requests[sweep])
            .map_err(|e| e.to_string())?;
        Ok((Arc::clone(&m.models[model]), points))
    }

    /// Every sweep once, in the seeded order.
    fn pass_len(input: &Input) -> usize {
        input.stream.len()
    }

    fn key(input: &Input, i: usize) -> usize {
        sweep_of(input, i)
    }

    fn digest((model, points): Self::Raw, _: usize, _: usize, first: bool) -> Out {
        let stride = (points.len() / LU_SAMPLES).max(1);
        Out {
            points: points.len() as u64,
            bits: points_bits(&points),
            first: first.then(|| (model, points.into_iter().step_by(stride).collect())),
        }
    }

    fn points(out: &Out) -> u64 {
        out.points
    }

    fn bits(out: &Out) -> u64 {
        out.bits
    }

    /// Sampled points of every sweep's first run equal to the model's
    /// LU evaluation within [`TOLERANCE`]; repeats are bit-identical to
    /// the first run (checked by the runner).
    fn check(_: &Ctx, _: &Input, outs: &[Out]) -> Check {
        let mut check = Check {
            tolerance: TOLERANCE,
            ..Check::default()
        };
        for (model, sample) in outs.iter().filter_map(|o| o.first.as_ref()) {
            for p in sample {
                let s = mpvl_la::Complex64::new(0.0, 2.0 * std::f64::consts::PI * p.freq_hz);
                match model.eval(s) {
                    Ok(z) => check.err(rel_err(&p.z, &z)),
                    Err(e) => check.fail(format!("LU eval at {} Hz: {e}", p.freq_hz)),
                }
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
    fn a_perturbed_sweep_fails_the_check() {
        let ctx = small_ctx("sweep_eval");
        let (input, mut outs) = one_pass::<SweepEval>(&ctx);
        assert!(SweepEval::check(&ctx, &input, &outs).passed());
        let (model, sample) = outs[0].first.take().expect("first run of a sweep");
        outs[0].first = Some((Arc::new(perturbed(&model, 1.001)), sample));
        assert!(!SweepEval::check(&ctx, &input, &outs).passed());
    }
}
