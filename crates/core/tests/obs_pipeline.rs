//! Pins the observability counters of the full reduce + sweep pipeline
//! on a known RC ladder — the counts are exact, not bounds, so any
//! silent change in the numerical path (an extra deflation, a dense-LU
//! fallback, a second symbolic analysis) trips a test instead of a
//! performance regression three PRs later.
//!
//! Capture-based tests live in their own integration-test binary: the
//! obs sink is process-global, and `mpvl_obs::capture` holds recording
//! open while it runs — unit tests of the same crate running on sibling
//! threads would leak events into the capture.

use mpvl_circuit::generators::rc_ladder;
use mpvl_circuit::MnaSystem;
use mpvl_par::with_threads;
use mpvl_sim::{ac_sweep, log_space};
use mpvl_sparse::{CscMat, TripletMat};
use sympvl::{sympvl, GFactor, SympvlOptions};

fn ladder_system() -> MnaSystem {
    MnaSystem::assemble(&rc_ladder(64, 10.0, 1e-12)).expect("assemble")
}

#[test]
fn rc_ladder_reduction_counters_are_pinned() {
    let sys = ladder_system();
    let opts = SympvlOptions::default();
    let ((), cap) = mpvl_obs::capture(|| {
        sympvl(&sys, 8, &opts).expect("reduce");
    });

    // A single-port RC ladder is the benign case: no starting-block or
    // in-iteration deflations, and every look-ahead cluster closes on
    // its own (well-conditioned Δ), never by hitting `max_cluster`.
    assert_eq!(cap.counter("lanczos", "deflations"), 0);
    assert_eq!(cap.counter("lanczos", "forced_cluster_closes"), 0);
    assert_eq!(cap.counter("lanczos", "clusters_closed"), 8);
    // 8 accepted candidates + the flush pass that drains the queue once
    // the requested order is reached.
    assert_eq!(cap.counter("lanczos", "iterations"), 9);
    assert_eq!(cap.counter("lanczos", "accepted_vectors"), 8);
    assert!(cap.events_named("lanczos", "deflation").is_empty());
}

#[test]
fn rc_ladder_sweep_counters_are_pinned() {
    let sys = ladder_system();
    let freqs = log_space(1e6, 1e10, 21);
    let (res, cap) = mpvl_obs::capture(|| with_threads(1, || ac_sweep(&sys, &freqs)));
    res.expect("sweep");

    // One symbolic analysis on the union pattern, one numeric refactor
    // per frequency point, and the sparse path never falls back to the
    // dense LU on this well-posed system.
    assert_eq!(cap.counter("ac", "points"), freqs.len() as u64);
    assert_eq!(cap.counter("ac", "dense_lu_fallbacks"), 0);
    assert_eq!(cap.counter("ldlt", "symbolic_analyze"), 1);
    assert_eq!(cap.counter("ldlt", "numeric_refactor"), freqs.len() as u64);
    assert_eq!(cap.counter("ldlt", "zero_pivots"), 0);

    // Every point records its solve kind, tagged with its input index.
    let points = cap.events_named("ac", "point");
    assert_eq!(points.len(), freqs.len());
    for (i, ev) in points.iter().enumerate() {
        assert_eq!(ev.index, i as u64);
        match ev.field("solve") {
            Some(mpvl_obs::Value::Str(kind)) => assert_eq!(*kind, "sparse_refactor"),
            other => panic!("point {i}: bad solve field {other:?}"),
        }
    }
}

#[test]
fn exported_events_are_identical_across_thread_counts() {
    let sys = ladder_system();
    let freqs = log_space(1e6, 1e10, 33);
    let (r1, cap1) = mpvl_obs::capture(|| with_threads(1, || ac_sweep(&sys, &freqs)));
    let (r4, cap4) = mpvl_obs::capture(|| with_threads(4, || ac_sweep(&sys, &freqs)));
    r1.expect("serial sweep");
    r4.expect("parallel sweep");

    // The determinism rule: the event/counter export carries no worker
    // tags and is sorted by (stage, index), so scheduling cannot show
    // through — byte-identical JSON at any thread count.
    let lines1 = cap1.to_json_lines();
    let lines4 = cap4.to_json_lines();
    assert!(!lines1.is_empty());
    assert_eq!(lines1, lines4);
    mpvl_obs::validate_json_lines(&lines1).expect("valid JSON lines");
}

#[test]
fn gfactor_counters_are_pinned() {
    // perfbench's traced run checks the program's counters against its
    // own replay of `GFactor::factor`: one symbolic analysis and one
    // numeric pass per factor, whether the sparse pass succeeds, breaks
    // down into the dense Bunch–Kaufman fallback, or fails on floating
    // node voltages.
    let counts = |g: &CscMat<f64>| {
        let (f, cap) = mpvl_obs::capture(|| GFactor::factor(g, g.nrows()));
        let counts = ["symbolic_analyze", "numeric_refactor", "zero_pivots"]
            .map(|name| cap.counter("ldlt", name));
        (f, counts)
    };

    // The ladder's shifted G + s₀C: the sparse path, no breakdown.
    let sys = ladder_system();
    let (f, n) = counts(
        &sys.g
            .add_scaled(1.0, &sys.c, 2.0 * std::f64::consts::PI * 1e9),
    );
    assert!(matches!(f.expect("shifted ladder"), GFactor::Sparse { .. }));
    assert_eq!(n, [1, 1, 0]);

    // The saddle point of `factor.rs`'s dense-fallback unit test (zero
    // diagonal at nodes 1 and 2): the sparse pass breaks down once.
    let mut t = TripletMat::new(3, 3);
    t.push_sym(0, 2, 1.0);
    t.push_sym(1, 2, 1.0);
    t.push(0, 0, 1.0);
    let (f, n) = counts(&t.to_csc());
    assert!(matches!(f.expect("dense fallback"), GFactor::Dense(_)));
    assert_eq!(n, [1, 1, 1]);

    // The ladder's unshifted G has no DC path to ground: the sparse pass
    // breaks down once and the floating-group check fails it before any
    // dense attempt.
    let (f, n) = counts(&sys.g);
    assert!(f.is_err(), "the ladder's G is singular");
    assert_eq!(n, [1, 1, 1]);
}
