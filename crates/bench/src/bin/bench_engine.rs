//! Cold-vs-warm cost of the session engine.
//!
//! Each workload serves several reductions plus an evaluation sweep.
//! "cold" builds a fresh [`ReductionSession`] per sample — every sample
//! pays the factorization and the full Lanczos process, like the free
//! functions do. "warm" reuses one session across samples, so the
//! factorization cache and the retained run state absorb the repeated
//! work. The warm/cold median ratio is the engine's headline number.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_engine`;
//! writes `target/bench/BENCH_engine.json`.

use mpvl_circuit::generators::{interconnect, rc_ladder, InterconnectParams};
use mpvl_circuit::MnaSystem;
use mpvl_engine::{EvalRequest, ReduceSpec, ReductionSession};
use mpvl_par::with_threads;
use mpvl_sim::log_space;
use mpvl_testkit::bench::Bench;

/// A representative session workload: produce the working-order model
/// and sweep it — the "one more sweep of the same reduction" pattern a
/// session exists to serve. On the warm path the factorization comes
/// from the cache and the retained Lanczos state already holds the
/// order, so only the model assembly and the sweep remain. (Requests
/// *below* the retained order cost a fresh — though still
/// factorization-free — Lanczos pass; the determinism tests cover that
/// path.)
fn workload(session: &ReductionSession) {
    let outcome = session
        .reduce(&ReduceSpec::pade_fixed(24).expect("order"))
        .expect("reduction succeeds");
    let freqs = log_space(1e6, 1e10, 21);
    session
        .eval(&EvalRequest::new(outcome.model_id, freqs).expect("request"))
        .expect("eval succeeds");
}

fn bench_case(bench: &mut Bench, name: &str, sys: &MnaSystem) {
    bench.bench(&format!("{name}/cold"), || {
        let session = ReductionSession::new(sys.clone());
        workload(&session);
    });
    let warm = ReductionSession::new(sys.clone());
    workload(&warm); // prime the caches once, outside timing
    bench.bench(&format!("{name}/warm"), || {
        workload(&warm);
    });
}

fn main() {
    let mut bench = Bench::new("engine");

    // RC: the paper's ladder workhorse, scaled up.
    let rc = MnaSystem::assemble(&rc_ladder(400, 100.0, 1e-12)).expect("assemble rc");
    bench_case(&mut bench, "session_rc", &rc);

    // RLC: coupled interconnect (indefinite J, shifted expansion).
    let rlc = MnaSystem::assemble(&interconnect(&InterconnectParams {
        wires: 6,
        segments: 30,
        coupling_reach: 3,
        ..InterconnectParams::default()
    }))
    .expect("assemble rlc");
    bench_case(&mut bench, "session_rlc", &rlc);

    // AC sweeps through the session: the symbolic LDLT analysis is the
    // reusable part.
    let freqs = log_space(1e5, 1e10, 41);
    bench.bench("ac_sweep/cold", || {
        let session = ReductionSession::new(rc.clone());
        with_threads(1, || session.ac_sweep(&freqs)).expect("sweep succeeds");
    });
    let warm = ReductionSession::new(rc.clone());
    with_threads(1, || warm.ac_sweep(&freqs)).expect("prime");
    bench.bench("ac_sweep/warm", || {
        with_threads(1, || warm.ac_sweep(&freqs)).expect("sweep succeeds");
    });

    bench.finish();
    mpvl_bench::export_obs();
}
