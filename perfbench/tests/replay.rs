//! Replay fidelity on small instances of every workload: the traced,
//! layered replay returns the program's bits for every request and
//! records the program's counters, its accounting covers the request
//! time, and the checks pass.

use mpvl_perfbench::json::{self, Value};
use mpvl_perfbench::run::{run_traced, Ctx, Report, Workload};
use mpvl_perfbench::workloads::{BackendsBand, GridCold, ServeMix, SweepEval, NAMES};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every run records into the process-wide `mpvl_obs` sink whenever a
/// traced run elsewhere holds recording on, which would add to that
/// run's counters; so the tests of this file run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tests run in parallel, so each run gets a scratch directory of its own.
fn ctx(name: &str, run: &str) -> Ctx {
    Ctx {
        seed: 7,
        seconds: 0.3,
        small: true,
        scratch: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{run}")),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `list`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.to_string()))
        .collect()
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

fn traced_replay_matches<W: Workload>() {
    let _serial = serial();
    let report = run_traced::<W>(&ctx(W::NAME, "traced")).expect("traced run");
    assert!(
        report.correct,
        "{}: {:?}",
        W::NAME,
        report.details.get("check")
    );
    assert_eq!(reported(&report), declared("per_layer"));
    assert_eq!(report.failed, 0);
    let coverage = metric(&report, "trace.coverage");
    assert!(coverage >= 0.95, "{}: coverage {coverage}", W::NAME);
    for (name, value, unit) in &report.metrics {
        assert!(value.is_finite(), "{}: {name} = {value}", W::NAME);
        if *unit == "s" {
            assert!(*value > 0.0, "{}: {name} never ran", W::NAME);
        }
    }
}

#[test]
fn grid_cold_replays_bit_identically() {
    traced_replay_matches::<GridCold>();
}

#[test]
fn serve_mix_replays_bit_identically() {
    traced_replay_matches::<ServeMix>();
}

#[test]
fn sweep_eval_replays_bit_identically() {
    traced_replay_matches::<SweepEval>();
}

#[test]
fn backends_band_replays_bit_identically() {
    traced_replay_matches::<BackendsBand>();
}

/// Each `serve_mix` request adopts or registers its model under a new
/// id, so the program compiles one plan per request and never hits; the
/// per-layer counts must say so, whatever calls the replay makes.
#[test]
fn serve_mix_plan_counts_are_the_programs() {
    let _serial = serial();
    let report = run_traced::<ServeMix>(&ctx(ServeMix::NAME, "plans")).expect("traced run");
    assert!(report.correct, "{:?}", report.details.get("check"));
    assert_eq!(
        metric(&report, "core.plan_compiles"),
        report.attempted as f64
    );
    assert_eq!(metric(&report, "engine.plan_hit_ratio"), 0.0);
}

#[test]
fn untraced_runs_report_the_declared_end_to_end_metrics() {
    let _serial = serial();
    for name in NAMES {
        let report = mpvl_perfbench::workloads::run(name, &ctx(name, "untraced"), false)
            .expect("known workload")
            .expect("run");
        assert!(report.correct, "{name}: {:?}", report.details.get("check"));
        assert!(report.attempted >= 1);
        assert_eq!(reported(&report), declared("end_to_end"));
        assert!(
            report.metrics.iter().all(|(_, v, _)| *v > 0.0),
            "{name}: {:?}",
            report.metrics
        );
    }
}
