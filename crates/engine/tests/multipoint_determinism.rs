//! Multi-point reduction through the session engine, pinned.
//!
//! The multi-point driver is sequential over expansion points, so its
//! results must be bit-identical to the free function at any cache
//! state and any `MPVL_THREADS` (the CI harness reruns this whole
//! binary under `MPVL_THREADS=2`; the in-process eval checks below
//! sweep 1/2/4 explicitly). Fingerprints use the same FNV-1a-over-bits
//! idiom as `session_determinism.rs`.

use mpvl_circuit::generators::{package, random_rc, rc_ladder, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_engine::{EvalRequest, ReduceSpec, ReductionSession, Want};
use mpvl_la::{Complex64, Mat};
use mpvl_par::with_threads;
use sympvl::{
    expansion_shift, reduce_multipoint, sampled_passivity, sympvl, Certificate, MultiPointOptions,
    ReducedModel, Shift, SympvlOptions,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn eat_f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }
    fn eat_mat(&mut self, m: &Mat<f64>) {
        self.eat(&(m.nrows() as u64).to_le_bytes());
        self.eat(&(m.ncols() as u64).to_le_bytes());
        for &v in m.as_slice() {
            self.eat_f64(v);
        }
    }
    fn eat_cmat(&mut self, m: &Mat<Complex64>) {
        self.eat(&(m.nrows() as u64).to_le_bytes());
        self.eat(&(m.ncols() as u64).to_le_bytes());
        for v in m.as_slice() {
            self.eat_f64(v.re);
            self.eat_f64(v.im);
        }
    }
}

fn model_fingerprint(m: &ReducedModel) -> u64 {
    let mut h = Fnv::new();
    h.eat_mat(m.t_matrix());
    h.eat_mat(m.delta_matrix());
    h.eat_mat(m.rho_matrix());
    h.eat_f64(m.shift());
    h.0
}

/// A small §7.2-style package: 2 coupled signal pins (4 ports), a few
/// hundred MNA unknowns — large enough to be interesting, small enough
/// for a test.
fn small_package_sys() -> MnaSystem {
    MnaSystem::assemble(&package(&PackageParams {
        pins: 12,
        signal_pins: vec![0, 1],
        sections: 6,
        ..PackageParams::default()
    }))
    .unwrap()
}

fn log_band(f_lo: f64, f_hi: f64, n: usize) -> Vec<f64> {
    let (l0, l1) = (f_lo.ln(), f_hi.ln());
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

fn worst_band_error(sys: &MnaSystem, model: &ReducedModel, freqs: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for &f in freqs {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let zx = sys.dense_z(s).unwrap();
        let z = model.eval(s).unwrap();
        worst = worst.max((&z - &zx).max_abs() / zx.max_abs().max(1e-300));
    }
    worst
}

#[test]
fn session_multipoint_matches_free_function_warm_and_cold() {
    let sys = small_package_sys();
    let opts = MultiPointOptions::for_band(1e7, 1e10)
        .unwrap()
        .with_total_order(16)
        .unwrap()
        .with_max_points(3)
        .unwrap();
    let cold = reduce_multipoint(&sys, &opts).unwrap();
    let session = ReductionSession::new(sys.clone());
    let first = session
        .reduce(&ReduceSpec::multipoint(opts.clone()))
        .unwrap();
    // Cold cache and free function: bit-identical, same placement.
    assert_eq!(
        model_fingerprint(&first.model),
        model_fingerprint(&cold.model)
    );
    let info = first.multipoint.as_ref().expect("multipoint info present");
    assert_eq!(info.point_freqs_hz, cold.point_freqs_hz);
    assert_eq!(info.shifts, cold.shifts);
    assert_eq!(info.per_point_order, cold.per_point_order);
    assert_eq!(
        info.estimated_error.to_bits(),
        cold.estimated_error.to_bits()
    );
    // Warm cache (every per-point factorization and run retained): still
    // bit-identical, and the factor cache actually got hit.
    let misses_after_first = session.cache_stats().factor_misses;
    let second = session.reduce(&ReduceSpec::multipoint(opts)).unwrap();
    assert_eq!(
        model_fingerprint(&second.model),
        model_fingerprint(&cold.model)
    );
    let stats = session.cache_stats();
    assert_eq!(
        stats.factor_misses, misses_after_first,
        "a repeated multi-point request must not refactor anything"
    );
    assert!(
        stats.retained_runs >= 2,
        "per-point runs must be pooled for reuse: {stats:?}"
    );
    // Distinct ModelIds: the merged models are retained like any other.
    assert_ne!(first.model_id, second.model_id);
}

#[test]
fn multipoint_and_single_point_share_per_shift_state() {
    // A single-point request at one of the multi-point expansion shifts
    // must reuse the pooled per-point run — and stay bit-identical to
    // its own cold free-function result.
    let sys = small_package_sys();
    let opts = MultiPointOptions::for_band(1e7, 1e10)
        .unwrap()
        .with_total_order(8)
        .unwrap()
        .with_points(vec![1e7, 1e10])
        .unwrap();
    let session = ReductionSession::new(sys.clone());
    let out = session.reduce(&ReduceSpec::multipoint(opts)).unwrap();
    let info = out.multipoint.as_ref().unwrap();
    let sigma = info.shifts[0];
    let misses_before = session.cache_stats().factor_misses;
    let single = session
        .reduce(
            &ReduceSpec::pade_fixed(4)
                .unwrap()
                .with_shift(Shift::Value(sigma))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(
        session.cache_stats().factor_misses,
        misses_before,
        "the single-point request at a visited shift must hit the factor cache"
    );
    let cold = sympvl(
        &sys,
        4,
        &SympvlOptions::new()
            .with_shift(Shift::Value(sigma))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(model_fingerprint(&single.model), model_fingerprint(&cold));
}

#[test]
fn merged_model_eval_is_thread_invariant() {
    let sys = small_package_sys();
    let session = ReductionSession::new(sys);
    let out = session
        .reduce(&ReduceSpec::multipoint(
            MultiPointOptions::for_band(1e7, 1e10).unwrap(),
        ))
        .unwrap();
    let request = EvalRequest::new(out.model_id, log_band(1e7, 1e10, 33)).unwrap();
    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 4] {
        let sweep = with_threads(threads, || session.eval(&request)).unwrap();
        let mut h = Fnv::new();
        for point in &sweep.points {
            h.eat_f64(point.freq_hz);
            h.eat_cmat(&point.z);
        }
        per_thread.push(h.0);
    }
    assert_eq!(per_thread[0], per_thread[1], "threads=1 vs threads=2");
    assert_eq!(per_thread[0], per_thread[2], "threads=1 vs threads=4");
}

#[test]
fn rc_multipoint_is_certified_passive_through_the_session() {
    let sys = MnaSystem::assemble(&rc_ladder(80, 60.0, 1e-12)).unwrap();
    let out = ReductionSession::new(sys)
        .reduce(
            &ReduceSpec::multipoint(
                MultiPointOptions::for_band(1e6, 1e10)
                    .unwrap()
                    .with_total_order(8)
                    .unwrap()
                    .with_points(vec![1e6, 1e10])
                    .unwrap(),
            )
            .with_want(Want::model_only().with_certificate(1e-10).unwrap()),
        )
        .unwrap();
    assert!(out.model.guarantees_passivity(), "RC merge keeps J = I");
    match out.certificate.expect("certificate requested") {
        Certificate::ProvablyPassive { .. } => {}
        other => panic!("expected a passivity certificate, got {other:?}"),
    }
}

#[test]
fn golden_package_two_point_beats_single_point_at_equal_total_order() {
    // The headline claim on the paper's package case: at equal total
    // order over a 3-decade band, spending the budget at the band
    // endpoints beats a single mid-band expansion point.
    let sys = small_package_sys();
    let (f_lo, f_hi): (f64, f64) = (1e7, 1e10);
    let band = log_band(f_lo, f_hi, 25);
    let total = 16;
    let multi = reduce_multipoint(
        &sys,
        &MultiPointOptions::for_band(f_lo, f_hi)
            .unwrap()
            .with_total_order(total)
            .unwrap()
            .with_points(vec![f_lo, f_hi])
            .unwrap(),
    )
    .unwrap();
    assert!(multi.model.order() <= total);
    // The strongest single-point baseline: same total order, expanded
    // at the band's geometric center.
    let mid = (f_lo * f_hi).sqrt();
    let single = sympvl(
        &sys,
        total,
        &SympvlOptions::new()
            .with_shift(Shift::Value(expansion_shift(mid, sys.s_power)))
            .unwrap(),
    )
    .unwrap();
    let em = worst_band_error(&sys, &multi.model, &band);
    let es = worst_band_error(&sys, &single, &band);
    assert!(
        em < es,
        "2-point {em:.3e} must beat mid-band single-point {es:.3e} at order {total}"
    );
    // And the merged RLC model stays passive where it is accurate.
    let scan = sampled_passivity(&multi.model, &band, 1e-6).unwrap();
    assert!(
        scan.passive,
        "merged package model fails sampled passivity: worst {:?}",
        scan.worst
    );
}

#[test]
fn auto_rtol_requests_never_share_runs_or_shifts() {
    // Engine half of the acceptance-threshold aliasing fix: a strict
    // `auto_rtol` request must not be served from a run pooled by a
    // lenient one (their Auto ladders can settle at different shifts),
    // and a cached factorization outcome must be re-judged per request.
    let sys = MnaSystem::assemble(&random_rc(3, 25, 2)).unwrap();
    let session = ReductionSession::new(sys);
    let lenient = ReduceSpec::pade_fixed(4).unwrap();
    let strict = ReduceSpec::pade_fixed(4)
        .unwrap()
        .with_sympvl(SympvlOptions::new().with_auto_rtol(1.0 - 1e-3).unwrap())
        .unwrap();
    // Grounded RC: the unshifted factor passes the default acceptance
    // test, so the lenient request expands at s0 = 0.
    let a = session.reduce(&lenient).unwrap();
    assert_eq!(a.model.shift(), 0.0);
    // The strict threshold rejects that same cached factor and walks the
    // ladder to a positive shift — a fresh attempt, not the pooled run.
    let b = session.reduce(&strict).unwrap();
    assert!(b.model.shift() > 0.0, "strict rtol must force a shift");
    // And the lenient request is still served at s0 = 0 afterwards: the
    // strict run did not overwrite its pooled state.
    let c = session.reduce(&lenient).unwrap();
    assert_eq!(c.model.shift(), 0.0);
    assert_eq!(model_fingerprint(&a.model), model_fingerprint(&c.model));
}
