//! Golden cross-validation: the two reduction backends, which share no
//! approximation machinery (moment matching vs Gramian truncation),
//! must agree on a small RC ladder — and the disagreement must sit
//! inside the balanced-truncation Hankel bound where that bound lives
//! (the shifted axis `s = s_ref + j2πf`; see the `sympvl::balanced`
//! module docs for why the physical axis of a DC-open ladder is out of
//! reach of any a-priori bound).
//!
//! The CI harness reruns this binary under `MPVL_THREADS=2` and `=4`;
//! the in-process checks below sweep explicit thread counts as well, so
//! the outcome — including every cross-validation scalar — is pinned
//! bit-identical at any parallelism.

use mpvl_circuit::generators::rc_ladder;
use mpvl_circuit::MnaSystem;
use mpvl_engine::{BackendKind, CrossValidateOptions, ReduceSpec, ReductionSession, Want};
use mpvl_la::Complex64;
use mpvl_par::with_threads;
use sympvl::{write_model, BtOptions, Certificate};

const F_LO: f64 = 1e6;
const F_HI: f64 = 1e9; // three decades
const ORDER: usize = 6;

fn ladder_sys() -> MnaSystem {
    MnaSystem::assemble(&rc_ladder(60, 50.0, 1e-12)).unwrap()
}

fn log_band(n: usize) -> Vec<f64> {
    let (l0, l1) = (F_LO.ln(), F_HI.ln());
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

fn specs() -> (ReduceSpec, ReduceSpec) {
    let cv = CrossValidateOptions::for_band(F_LO, F_HI).unwrap();
    let bt = ReduceSpec::balanced(
        BtOptions::for_band(F_LO, F_HI)
            .unwrap()
            .with_order(ORDER)
            .unwrap(),
    )
    .with_cross_validation(cv.clone())
    .with_want(Want::model_only().with_certificate(1e-9).unwrap());
    let pade = ReduceSpec::pade_fixed(ORDER)
        .unwrap()
        .with_cross_validation(cv);
    (bt, pade)
}

#[test]
fn pade_and_bt_agree_within_the_hankel_bound_on_the_shifted_axis() {
    let sys = ladder_sys();
    let session = ReductionSession::new(sys.clone());
    let (bt_spec, pade_spec) = specs();
    let bt = session.reduce(&bt_spec).unwrap();
    let pade = session.reduce(&pade_spec).unwrap();

    let info = bt.balanced.as_ref().expect("balanced info present");
    assert!(info.hankel_bound.is_finite() && info.hankel_bound > 0.0);
    assert_eq!(bt.model.order(), ORDER);

    // |BT − Padé| ≤ |BT − exact| + |exact − Padé|: on the shifted-axis
    // grid the first term is bounded a priori by 2·Σ σ_tail, so the two
    // backends may not stray further than the Hankel bound plus the
    // (measured, tiny) Padé error.
    let sigma = bt.model.shift();
    let mut worst_pair = 0.0f64;
    let mut worst_pade = 0.0f64;
    for &f in &log_band(25) {
        let s = Complex64::new(sigma, 2.0 * std::f64::consts::PI * f);
        let zx = sys.dense_z(s).unwrap();
        let zb = bt.model.eval(s).unwrap();
        let zp = pade.model.eval(s).unwrap();
        worst_pair = worst_pair.max((&zb - &zp).max_abs());
        worst_pade = worst_pade.max((&zp - &zx).max_abs());
    }
    assert!(
        worst_pair <= 1.25 * info.hankel_bound + 2.0 * worst_pade,
        "backend disagreement {worst_pair:.6e} exceeds Hankel bound {:.6e} \
         (+ Padé allowance {worst_pade:.3e})",
        info.hankel_bound
    );

    // Both directions of the cross-validation pass ran and agree on the
    // band: BT refereed by Padé, Padé refereed by BT.
    let bt_cv = bt.cross_validation.as_ref().expect("cross-validation ran");
    assert_eq!(bt_cv.referee, BackendKind::Pade);
    assert_eq!(bt_cv.referee_order, ORDER);
    assert!(
        bt_cv.disagreement < 0.15,
        "BT vs Padé band disagreement too large: {:.3e}",
        bt_cv.disagreement
    );
    assert!(
        (F_LO..=F_HI).contains(&bt_cv.at_freq_hz),
        "worst probe must sit in the band, got {} Hz",
        bt_cv.at_freq_hz
    );
    let pade_cv = pade
        .cross_validation
        .as_ref()
        .expect("cross-validation ran");
    assert_eq!(pade_cv.referee, BackendKind::BalancedTruncation);
    assert_eq!(pade_cv.referee_order, ORDER);
    assert!(
        pade_cv.disagreement < 0.15,
        "Padé vs BT band disagreement too large: {:.3e}",
        pade_cv.disagreement
    );

    // Satellite: the BT model rides the same certificate path Padé
    // models do (RC ladder, J = I ⇒ provably passive).
    match bt.certificate.expect("certificate requested") {
        Certificate::ProvablyPassive { .. } => {}
        other => panic!("expected a passivity certificate, got {other:?}"),
    }
}

#[test]
fn cross_validated_batch_is_bit_identical_at_any_thread_count() {
    let sys = ladder_sys();
    let (bt_spec, pade_spec) = specs();
    let requests = vec![bt_spec, pade_spec];
    let mut per_thread: Vec<Vec<(String, u64, u64)>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let session = ReductionSession::new(sys.clone());
        let outcomes = with_threads(threads, || session.reduce_batch(&requests));
        per_thread.push(
            outcomes
                .iter()
                .map(|o| {
                    let o = o.as_ref().expect("both requests valid");
                    let cv = o.cross_validation.as_ref().unwrap();
                    (
                        write_model(&o.model),
                        cv.disagreement.to_bits(),
                        cv.at_freq_hz.to_bits(),
                    )
                })
                .collect(),
        );
    }
    assert_eq!(per_thread[0], per_thread[1], "threads=1 vs threads=2");
    assert_eq!(per_thread[0], per_thread[2], "threads=1 vs threads=4");
}

#[test]
fn balanced_requests_share_the_session_factor_cache() {
    // Two identical BT requests: the second must not refactor anything
    // (both arms' shifted factorizations are cached), and the models
    // must be bit-identical to the free-function result.
    let sys = ladder_sys();
    let session = ReductionSession::new(sys.clone());
    let spec = ReduceSpec::balanced(
        BtOptions::for_band(F_LO, F_HI)
            .unwrap()
            .with_order(ORDER)
            .unwrap(),
    );
    let first = session.reduce(&spec).unwrap();
    let misses_after_first = session.cache_stats().factor_misses;
    assert!(misses_after_first >= 2, "two shifted arms to factor");
    let second = session.reduce(&spec).unwrap();
    assert_eq!(
        session.cache_stats().factor_misses,
        misses_after_first,
        "a repeated balanced request must hit the factor cache"
    );
    assert_eq!(write_model(&first.model), write_model(&second.model));
    let cold = sympvl::reduce_balanced(
        &sys,
        &BtOptions::for_band(F_LO, F_HI)
            .unwrap()
            .with_order(ORDER)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(write_model(&first.model), write_model(&cold.model));
}
