//! `serve_mix`: a long-lived service under a Zipf-skewed mix of small
//! netlists.
//!
//! 48 circuits — 16 RC ladders, 16 coupled RC interconnects, 16 RLC
//! package models, ~100–2600 unknowns — each asked at Padé orders
//! `p`, `2p` and `3p`: 144 registry keys. Key popularity is Zipf(1.1)
//! over a fixed ranking, and every key is asked for at least once in the
//! 1500-request stream; the seed jitters element values and shuffles the
//! stream. A quarter of the requests spell their netlist
//! differently (node names, comments, case) for the same canonical
//! address. Each request asks for a 21-point sweep.
//!
//! Ingest, registry hits, session churn (4 live sessions for 48
//! circuits) and the per-hit plan compile dominate; each key is reduced
//! once, and its `.rom` file is read back by later hits once the memory
//! tier (128 models) has evicted it.

use super::shuffle;
use crate::bits::{combine, model_bits, points_bits};
use crate::netlist::{write_jittered, Spelling};
use crate::replay::{Item, Replay, ReplayService};
use crate::run::{Check, Ctx, Workload};
use mpvl_circuit::generators::{
    interconnect, package, rc_ladder, InterconnectParams, PackageParams,
};
use mpvl_circuit::{parse_spice, Circuit, MnaSystem};
use mpvl_engine::{EvalPoint, ReduceSpec};
use mpvl_service::{ReductionService, ServiceOptions};
use mpvl_testkit::SmallRng;
use std::sync::Arc;
use sympvl::{exact_moments, ReducedModel};

const PER_FAMILY: usize = 16;
const ORDERS_PER_CIRCUIT: usize = 3;
/// Requests per pass. A pass is one restarted service serving the whole
/// stream, so it must fit the run time (a pass takes ~13 s on one thread).
const STREAM: usize = 1500;
const ZIPF_EXPONENT: f64 = 1.1;
/// Seeds the popularity ranking, which the run seed does not move. This
/// ranking makes a mid-size interconnect the most popular circuit, and
/// the median request falls inside the dense block of its registry hits
/// (~4.6 ms; p55/p45 ≈ 1.04 over run seeds 2–5). Under the rankings
/// seeded 1, 2, 3, 6 and `0x5eed_0001`, the median fell in a sparse
/// stretch between the hit blocks of popular keys (p55/p45 = 1.6–2.1),
/// where it moved by ±20 % between identical runs.
const RANK_SEED: u64 = 5;
const JITTER: f64 = 0.1;
/// Tolerance on the relative mismatch of a matched block moment.
const TOLERANCE: f64 = 1e-9;

/// See the module docs.
pub struct ServeMix;

/// One circuit of the catalogue and its base order `p`.
fn catalogue(small: bool) -> Vec<(Circuit, usize)> {
    let scale = |full: usize, tiny: usize| if small { tiny } else { full };
    let mut out = Vec::with_capacity(3 * PER_FAMILY);
    for i in 0..PER_FAMILY {
        out.push((rc_ladder(scale(100 + 160 * i, 12 + 2 * i), 100.0, 1e-12), 4));
    }
    for i in 0..PER_FAMILY {
        let wires = 4 + 13 * i / (PER_FAMILY - 1);
        let unknowns = scale(100 + 160 * i, 40 + 4 * i);
        let ckt = interconnect(&InterconnectParams {
            wires,
            segments: (unknowns / wires).max(2) - 1,
            coupling_reach: 4,
            ..InterconnectParams::default()
        });
        out.push((ckt, wires));
    }
    for i in 0..PER_FAMILY {
        let pins = scale(16 + 3 * i, 4 + i / 4);
        let ckt = package(&PackageParams {
            pins,
            signal_pins: vec![0, pins / 2],
            sections: scale(2 + i / 2, 2),
            ..PackageParams::default()
        });
        out.push((ckt, 4));
    }
    out
}

/// The seeded catalogue and request stream.
pub struct Input {
    /// Plain netlist text per circuit.
    texts: Vec<Arc<str>>,
    /// Per key, the request in each spelling.
    items: Vec<[Item; 2]>,
    /// Per key, the order asked for.
    orders: Vec<usize>,
    /// `(key, spelling)` per request.
    stream: Vec<(usize, usize)>,
}

/// One request's key, registry status and fingerprint; the model of a
/// key's first request.
pub struct Out {
    i: usize,
    key: usize,
    hit: bool,
    bits: u64,
    first: Option<ReducedModel>,
}

/// Request counts per key: Zipf over a fixed ranking of the keys, at
/// least one each.
fn key_counts(keys: usize) -> Vec<usize> {
    let mut rank: Vec<usize> = (0..keys).collect();
    shuffle(&mut rank, &mut SmallRng::seed_from_u64(RANK_SEED));
    let weight = |r: usize| ((r + 1) as f64).powf(-ZIPF_EXPONENT);
    let total: f64 = (0..keys).map(weight).sum();
    rank.iter()
        .map(|&r| ((STREAM as f64 * weight(r) / total).round() as usize).max(1))
        .collect()
}

fn options(ctx: &Ctx) -> ServiceOptions {
    ServiceOptions::default().with_registry_dir(ctx.dir("registry"))
}

fn item_of(input: &Input, i: usize) -> &Item {
    let (key, spelling) = input.stream[i % input.stream.len()];
    &input.items[key][spelling]
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    type Input = Input;
    type Real = ReductionService;
    type Traced = ReplayService;
    type Raw = (ReducedModel, Vec<EvalPoint>, bool);
    type Out = Out;

    fn generate(ctx: &Ctx) -> Result<Input, String> {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let eval_hz = mpvl_sim::log_space(1e6, 1e10, 21);
        let (mut texts, mut items, mut orders) = (Vec::new(), Vec::new(), Vec::new());
        for (ckt, p) in catalogue(ctx.small) {
            let net = write_jittered(&ckt, &mut rng, JITTER);
            let spelled: [Arc<str>; 2] = [
                Arc::from(net.text(Spelling::Plain)),
                Arc::from(net.text(Spelling::Respelled)),
            ];
            for m in 1..=ORDERS_PER_CIRCUIT {
                let spec = ReduceSpec::pade_fixed(m * p).map_err(|e| e.to_string())?;
                items.push(spelled.clone().map(|text| Item {
                    text,
                    spec: spec.clone(),
                    eval_hz: Some(eval_hz.clone()),
                }));
                orders.push(m * p);
            }
            texts.push(Arc::clone(&spelled[0]));
        }
        let mut stream = Vec::with_capacity(STREAM + items.len());
        for (key, count) in key_counts(items.len()).into_iter().enumerate() {
            stream.extend((0..count).map(|_| (key, 0)));
        }
        // Every fourth request of the fixed stream is respelled; the
        // seed then only decides the order.
        for (n, entry) in stream.iter_mut().enumerate() {
            entry.1 = usize::from(n % 4 == 3);
        }
        shuffle(&mut stream, &mut rng);
        Ok(Input {
            texts,
            items,
            orders,
            stream,
        })
    }

    fn start(ctx: &Ctx, _: &Input) -> Result<ReductionService, String> {
        Ok(ReductionService::new(options(ctx)))
    }

    /// A pass is the whole stream, served by a restarted service over an
    /// empty registry: every key misses once per pass.
    fn pass_len(input: &Input) -> usize {
        input.stream.len()
    }

    fn next_pass(ctx: &Ctx, service: &mut ReductionService, _: &Input) -> Result<(), String> {
        ctx.clear("registry")?;
        *service = ReductionService::new(options(ctx));
        Ok(())
    }

    fn next_pass_traced(
        ctx: &Ctx,
        _: &Replay,
        service: &mut ReplayService,
        _: &Input,
    ) -> Result<(), String> {
        ctx.clear("registry")?;
        *service = ReplayService::new(options(ctx));
        Ok(())
    }

    fn request(
        _: &Ctx,
        service: &mut ReductionService,
        input: &Input,
        i: usize,
    ) -> Result<Self::Raw, String> {
        let outcome = service
            .submit(&item_of(input, i).request()?)
            .map_err(|e| e.to_string())?;
        let eval = outcome.eval.ok_or("no sweep returned")?;
        Ok((outcome.model, eval, outcome.registry_hit))
    }

    fn start_traced(ctx: &Ctx, _: &Replay, _: &Input) -> Result<ReplayService, String> {
        Ok(ReplayService::new(options(ctx)))
    }

    fn replay(
        _: &Ctx,
        r: &Replay,
        service: &mut ReplayService,
        input: &Input,
        i: usize,
    ) -> Result<Self::Raw, String> {
        let reply = service.submit(r, item_of(input, i))?;
        let eval = reply.eval.ok_or("no sweep returned")?;
        Ok((reply.model, eval, reply.registry_hit))
    }

    fn key(input: &Input, i: usize) -> usize {
        input.stream[i % input.stream.len()].0
    }

    fn digest((model, eval, hit): Self::Raw, i: usize, key: usize, first: bool) -> Out {
        Out {
            i,
            key,
            hit,
            bits: combine(&[model_bits(&model), points_bits(&eval)]),
            first: first.then_some(model),
        }
    }

    fn points(_: &Out) -> u64 {
        21
    }

    fn bits(out: &Out) -> u64 {
        out.bits
    }

    /// Only a key's first request of a pass misses the registry; every
    /// key's model
    /// has the order asked for and matches the exact block moments of
    /// the full system at its expansion point — all `2⌊n/p⌋` the Padé
    /// property promises (paper §3). A low-order Padé model is accurate
    /// only near that point, so this is the check that holds at every
    /// order the mix asks for.
    fn check(_: &Ctx, input: &Input, outs: &[Out]) -> Check {
        let mut check = Check {
            tolerance: TOLERANCE,
            ..Check::default()
        };
        let mut systems: Vec<Option<MnaSystem>> = vec![None; input.texts.len()];
        let mut seen = std::collections::HashSet::new();
        for out in outs {
            let first_in_pass = seen.insert((out.i / input.stream.len(), out.key));
            if out.hit == first_in_pass {
                check.fail(format!(
                    "request {}: registry hit = {} on the pass's {} request of key {}",
                    out.i,
                    out.hit,
                    if first_in_pass { "first" } else { "repeated" },
                    out.key
                ));
            }
            let Some(model) = &out.first else {
                continue;
            };
            if model.order() != input.orders[out.key] && !model.is_exact() {
                check.fail(format!(
                    "key {}: order {} instead of {}",
                    out.key,
                    model.order(),
                    input.orders[out.key]
                ));
            }
            let circuit = out.key / ORDERS_PER_CIRCUIT;
            if systems[circuit].is_none() {
                match parse_spice(&input.texts[circuit])
                    .map_err(|e| e.to_string())
                    .and_then(|(ckt, _)| MnaSystem::assemble(&ckt).map_err(|e| e.to_string()))
                {
                    Ok(sys) => systems[circuit] = Some(sys),
                    Err(e) => {
                        check.fail(format!("circuit {circuit}: {e}"));
                        continue;
                    }
                }
            }
            let sys = systems[circuit].as_ref().expect("assembled above");
            let q = model.matched_moments();
            match exact_moments(sys, model.shift(), q) {
                Ok(exact) => {
                    for (k, mk) in exact.iter().enumerate() {
                        check.err(
                            (&model.moment(k) - mk).max_abs() / mk.max_abs().max(f64::MIN_POSITIVE),
                        );
                    }
                }
                Err(e) => check.fail(format!("key {}: exact moments: {e}", out.key)),
            }
        }
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_spans_the_stated_sizes() {
        let cat = catalogue(false);
        assert_eq!(cat.len(), 48);
        for (ckt, p) in &cat {
            let n = MnaSystem::assemble(ckt).unwrap().dim();
            assert!((100..=2700).contains(&n), "{n} unknowns");
            assert!(*p >= 1);
        }
    }

    #[test]
    fn a_perturbed_model_fails_the_check() {
        let ctx = crate::testing::small_ctx("serve_mix");
        let (input, mut outs) = crate::testing::one_pass::<ServeMix>(&ctx);
        assert!(ServeMix::check(&ctx, &input, &outs).passed());
        let out = outs
            .iter_mut()
            .find(|o| o.first.is_some())
            .expect("a first request");
        let model = out.first.take().expect("checked above");
        out.first = Some(crate::testing::perturbed(&model, 1.001));
        assert!(!ServeMix::check(&ctx, &input, &outs).passed());
    }

    #[test]
    fn every_key_is_asked_for_and_the_head_is_popular() {
        let counts = key_counts(144);
        assert!(counts.iter().all(|&c| c >= 1));
        let total: usize = counts.iter().sum();
        assert!((STREAM - 100..STREAM + 100).contains(&total), "{total}");
        assert!(counts.iter().max().unwrap() > &250);
    }
}
