//! Eval-plan cache counters, in a test binary of their own.
//!
//! `mpvl_obs::capture` reads the process-wide sink, so a test that
//! asserts exact counter values must not share its process with tests
//! that emit counters concurrently. Keep this binary to this one test.

use mpvl_circuit::generators::{interconnect, InterconnectParams};
use mpvl_circuit::MnaSystem;
use mpvl_engine::{EvalRequest, ReduceSpec, ReductionSession};

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
fn eval_plans_are_cached_per_model() {
    let sys = interconnect_sys();
    let session = ReductionSession::new(sys);
    let outcome = session.reduce(&ReduceSpec::pade_fixed(8).unwrap()).unwrap();
    let request = EvalRequest::new(outcome.model_id, vec![1e7, 1e9]).unwrap();
    let (_, report) = mpvl_obs::capture(|| {
        session.eval(&request).unwrap();
        session.eval(&request).unwrap();
        session.eval(&request).unwrap();
    });
    assert_eq!(report.counter("engine", "eval_plan_compiles"), 1);
    assert_eq!(report.counter("engine", "eval_plan_hits"), 2);
    assert_eq!(report.counter("engine", "eval_points"), 6);
}
