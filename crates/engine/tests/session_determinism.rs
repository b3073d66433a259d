//! The session engine's determinism contract, pinned.
//!
//! Caching, eviction, batching, and thread counts are *performance*
//! features: none of them may change a single bit of any result. Each
//! test compares session outputs against the corresponding free
//! function via FNV-1a fingerprints over exact `f64` bit patterns
//! (same idiom as `golden_bitident.rs` in the core crate).

use mpvl_circuit::generators::{interconnect, rc_ladder, InterconnectParams};
use mpvl_circuit::MnaSystem;
use mpvl_engine::{
    CrossValidateOptions, EvalRequest, ReduceSpec, ReductionOutcome, ReductionSession,
    SessionOptions, Want,
};
use mpvl_la::{Complex64, Mat};
use mpvl_par::with_threads;
use sympvl::{
    reduce_adaptive, sympvl, AdaptiveOptions, BtOptions, MultiPointOptions, Shift, SympvlError,
    SympvlOptions,
};

mod common;
use common::{model_fingerprint, Fnv};

fn interconnect_sys() -> MnaSystem {
    MnaSystem::assemble(&interconnect(&InterconnectParams {
        wires: 3,
        segments: 16,
        coupling_reach: 2,
        ..InterconnectParams::default()
    }))
    .unwrap()
}

#[test]
fn fixed_order_requests_match_cold_free_function() {
    let sys = interconnect_sys();
    let session = ReductionSession::new(sys.clone());
    // Deliberately out of order: escalate, shrink, escalate again.
    for order in [6, 12, 9, 15] {
        let warm = session
            .reduce(&ReduceSpec::pade_fixed(order).unwrap())
            .unwrap();
        let cold = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
        assert_eq!(
            model_fingerprint(&warm.model),
            model_fingerprint(&cold),
            "order {order}"
        );
    }
    let stats = session.cache_stats();
    assert!(
        stats.factor_hits >= 1 || stats.retained_runs >= 1,
        "the session must actually be reusing state: {stats:?}"
    );
}

#[test]
fn adaptive_request_matches_cold_reduce_adaptive() {
    let sys = interconnect_sys();
    let opts = AdaptiveOptions::for_band(1e7, 5e9)
        .unwrap()
        .with_tol(1e-5)
        .unwrap();
    let session = ReductionSession::new(sys.clone());
    let warm = session
        .reduce(&ReduceSpec::pade_adaptive(opts.clone()))
        .unwrap();
    let cold = reduce_adaptive(&sys, &opts).unwrap();
    assert_eq!(
        model_fingerprint(&warm.model),
        model_fingerprint(&cold.model)
    );
    let info = warm.adaptive.expect("adaptive info present");
    assert_eq!(info.orders_tried, cold.orders_tried);
    assert_eq!(
        info.estimated_error.to_bits(),
        cold.estimated_error.to_bits()
    );
    // A follow-up fixed request at the converged order reuses the run
    // and still matches cold.
    let order = cold.model.order();
    let again = session
        .reduce(&ReduceSpec::pade_fixed(order).unwrap())
        .unwrap();
    let cold_again = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
    assert_eq!(
        model_fingerprint(&again.model),
        model_fingerprint(&cold_again)
    );
}

#[test]
fn eviction_churn_never_changes_results() {
    let sys = interconnect_sys();
    // Capacity 1 everywhere: every alternation between the two shifts
    // evicts the other's factor and run state.
    let session = ReductionSession::with_options(
        sys.clone(),
        SessionOptions::new()
            .with_max_cached_factors(1)
            .unwrap()
            .with_max_retained_runs(1)
            .unwrap(),
    );
    let shifts = [1e8, 1e9];
    for round in 0..3 {
        for &s0 in &shifts {
            let warm = session
                .reduce(
                    &ReduceSpec::pade_fixed(9)
                        .unwrap()
                        .with_shift(Shift::Value(s0))
                        .unwrap(),
                )
                .unwrap();
            let cold = sympvl(
                &sys,
                9,
                &SympvlOptions::new().with_shift(Shift::Value(s0)).unwrap(),
            )
            .unwrap();
            assert_eq!(
                model_fingerprint(&warm.model),
                model_fingerprint(&cold),
                "shift {s0} round {round}"
            );
        }
    }
    let stats = session.cache_stats();
    assert!(
        stats.factor_evictions >= 4,
        "capacity 1 with alternating shifts must churn: {stats:?}"
    );
    assert_eq!(stats.cached_factors, 1);
    assert_eq!(stats.retained_runs, 1);
}

#[test]
fn batch_results_are_order_stable_and_thread_invariant() {
    let sys = interconnect_sys();
    let requests = vec![
        ReduceSpec::pade_fixed(6).unwrap(),
        ReduceSpec::pade_fixed(12)
            .unwrap()
            .with_shift(Shift::Value(5e8))
            .unwrap(),
        ReduceSpec::pade_fixed(9).unwrap(),
        ReduceSpec::pade_adaptive(
            AdaptiveOptions::for_band(1e7, 5e9)
                .unwrap()
                .with_tol(1e-4)
                .unwrap(),
        ),
        ReduceSpec::pade_fixed(3).unwrap(),
    ];
    let mut per_thread_fingerprints = Vec::new();
    for threads in [1usize, 2, 4] {
        let session = ReductionSession::new(sys.clone());
        let outcomes = with_threads(threads, || session.reduce_batch(&requests));
        assert_eq!(outcomes.len(), requests.len());
        let fingerprints: Vec<(u64, usize)> = outcomes
            .iter()
            .map(|o| {
                let o = o.as_ref().expect("all requests valid");
                (model_fingerprint(&o.model), o.model_id.index())
            })
            .collect();
        // ModelIds are assigned in request order regardless of threads.
        for (i, (_, id)) in fingerprints.iter().enumerate() {
            assert_eq!(*id, i, "model ids must follow request order");
        }
        per_thread_fingerprints.push(fingerprints);
    }
    assert_eq!(per_thread_fingerprints[0], per_thread_fingerprints[1]);
    assert_eq!(per_thread_fingerprints[0], per_thread_fingerprints[2]);
    // And each batch member matches its cold free-function result.
    let session = ReductionSession::new(sys.clone());
    let outcomes = with_threads(2, || session.reduce_batch(&requests));
    for (request, outcome) in requests.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().unwrap();
        let mpvl_engine::Backend::Pade(pade) = &request.backend else {
            panic!("this batch is Padé-only");
        };
        let cold = match &pade.order {
            mpvl_engine::OrderSpec::Fixed(n) => sympvl(&sys, *n, &pade.sympvl).unwrap(),
            mpvl_engine::OrderSpec::Adaptive(a) => {
                let mut a = a.clone();
                a.sympvl = pade.sympvl.clone();
                reduce_adaptive(&sys, &a).unwrap().model
            }
        };
        assert_eq!(model_fingerprint(&outcome.model), model_fingerprint(&cold));
    }
}

#[test]
fn eval_matches_compiled_plan_and_lu_accuracy() {
    // Session eval routes through the compiled pole–residue plan: results
    // must be bit-identical to evaluating that plan directly, and within
    // the documented accuracy band of the exact LU path.
    let sys = interconnect_sys();
    let session = ReductionSession::new(sys.clone());
    let outcome = session
        .reduce(&ReduceSpec::pade_fixed(12).unwrap())
        .unwrap();
    let freqs = vec![1e6, 1e8, 2e9];
    let sweep = session
        .eval(&EvalRequest::new(outcome.model_id, freqs.clone()).unwrap())
        .unwrap();
    let cold = sympvl(&sys, 12, &SympvlOptions::default()).unwrap();
    let plan = sympvl::EvalPlan::compile(&cold);
    let mut ws = plan.workspace();
    let mut direct = Mat::zeros(plan.ports(), plan.ports());
    assert_eq!(sweep.points.len(), freqs.len());
    for (point, &f) in sweep.points.iter().zip(&freqs) {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        plan.eval_into(&mut ws, s, &mut direct).unwrap();
        let mut ha = Fnv::new();
        let mut hb = Fnv::new();
        ha.eat_cmat(&point.z);
        hb.eat_cmat(&direct);
        assert_eq!(ha.0, hb.0, "plan bit-identity at {f} Hz");
        // And the plan sits within the documented band of the LU path.
        let exact = cold.eval(s).unwrap();
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in point.z.as_slice().iter().zip(exact.as_slice()) {
            num += (*a - *b).norm_sqr();
            den += b.norm_sqr();
        }
        let rel = num.sqrt() / den.sqrt().max(f64::MIN_POSITIVE);
        assert!(rel < 1e-10, "LU accuracy at {f} Hz: rel {rel:.3e}");
    }
}

#[test]
fn eval_batch_is_thread_invariant_with_ragged_points() {
    // Ragged point counts across several models force chunk boundaries to
    // land mid-request at some thread counts; results must not care.
    let sys = interconnect_sys();
    let session = ReductionSession::new(sys.clone());
    let ids: Vec<_> = [6, 9, 12]
        .iter()
        .map(|&order| {
            session
                .reduce(&ReduceSpec::pade_fixed(order).unwrap())
                .unwrap()
                .model_id
        })
        .collect();
    let requests = vec![
        EvalRequest::new(ids[0], mpvl_sim::log_space(1e6, 1e10, 7)).unwrap(),
        EvalRequest::new(ids[1], vec![1e8]).unwrap(),
        EvalRequest::log_sweep(ids[2], 1e5, 5e9, 23).unwrap(),
        EvalRequest::new(ids[0], vec![2e7, 3e8, 4e9, 5e9, 7e9]).unwrap(),
    ];
    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 4] {
        let outcomes = with_threads(threads, || session.eval_batch(&requests));
        let mut h = Fnv::new();
        for outcome in &outcomes {
            let outcome = outcome.as_ref().expect("all requests valid");
            for point in &outcome.points {
                h.eat_f64(point.freq_hz);
                h.eat_cmat(&point.z);
            }
        }
        per_thread.push(h.0);
    }
    assert_eq!(per_thread[0], per_thread[1], "threads=1 vs threads=2");
    assert_eq!(per_thread[0], per_thread[2], "threads=1 vs threads=4");
}

#[test]
fn wants_are_computed_from_the_same_model() {
    let sys = MnaSystem::assemble(&rc_ladder(30, 100.0, 1e-12)).unwrap();
    let session = ReductionSession::new(sys.clone());
    let outcome = session
        .reduce(
            &ReduceSpec::pade_fixed(8).unwrap().with_want(
                Want::model_only()
                    .with_poles()
                    .with_certificate(1e-9)
                    .unwrap(),
            ),
        )
        .unwrap();
    let poles = outcome.poles.expect("poles requested");
    let cold = sympvl(&sys, 8, &SympvlOptions::default()).unwrap();
    let cold_poles = cold.poles().unwrap();
    assert_eq!(poles.len(), cold_poles.len());
    for (a, b) in poles.iter().zip(&cold_poles) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
    assert!(outcome.certificate.is_some());
}

/// A result in full: its `Debug` text, the model fingerprint and the
/// eval of the retained model (`Debug` abbreviates matrices).
fn describe(session: &ReductionSession, result: Result<ReductionOutcome, SympvlError>) -> String {
    let Ok(o) = result else {
        return format!("{result:?}");
    };
    let mut h = Fnv::new();
    let sweep = EvalRequest::new(o.model_id, vec![1e6, 1e8, 3e9]).unwrap();
    for point in session.eval(&sweep).unwrap().points {
        h.eat_cmat(&point.z);
    }
    format!("{o:?} {:x} {:x}", model_fingerprint(&o.model), h.0)
}

#[test]
fn reduce_agrees_with_one_element_batches() {
    let (lo, hi) = (1e7, 5e9);
    let cv = || CrossValidateOptions::for_band(lo, hi).unwrap();
    let fixed = |order: usize| ReduceSpec::pade_fixed(order).unwrap();
    let want = Want::model_only().with_poles().with_certificate(1e-9);
    let multi = MultiPointOptions::for_band(lo, hi).unwrap();
    let specs = [
        fixed(6),
        fixed(12).with_want(want.unwrap()),
        fixed(9),
        ReduceSpec::pade_adaptive(AdaptiveOptions::for_band(lo, hi).unwrap()),
        ReduceSpec::multipoint(multi.with_points(vec![lo, hi]).unwrap()),
        ReduceSpec::balanced(BtOptions::for_band(lo, hi).unwrap()).with_cross_validation(cv()),
        fixed(8).with_cross_validation(cv()),
        // `G` floats under `Shift::None`: a typed error either way.
        fixed(4).with_shift(Shift::None).unwrap(),
        fixed(12),
    ];
    // One retained run, so the Padé requests also evict runs.
    let opts = SessionOptions::new().with_max_retained_runs(1).unwrap();
    let single = ReductionSession::with_options(interconnect_sys(), opts.clone());
    let batched = ReductionSession::with_options(interconnect_sys(), opts);
    for (k, spec) in specs.iter().enumerate() {
        let batch = batched.reduce_batch(std::slice::from_ref(spec));
        let [batch]: [_; 1] = batch.try_into().expect("one result");
        let one = single.reduce(spec);
        assert_eq!(
            describe(&single, one),
            describe(&batched, batch),
            "request {k}"
        );
        assert_eq!(single.cache_stats(), batched.cache_stats(), "request {k}");
    }
}
