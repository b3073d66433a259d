//! Throughput of the service layer: what does the operational wrapper
//! cost, and what does the content-addressed registry buy back?
//!
//! Three cases over the same ladder workloads:
//!
//! * `service_submit/cold` — a fresh [`ReductionService`] per sample,
//!   so every submit pays ingestion, session assembly, the full
//!   reduction, and the eval sweep.
//! * `service_submit/registry_warm` — one shared service, primed once;
//!   every sample is a registry hit that skips the reduction and only
//!   re-derives the byproducts (poles, certificate, sweep).
//! * `service_batch/mixed` — a warm batch across three circuits, the
//!   steady-state shape of a server juggling several netlists.
//! * `service_ingest/ladder` — the miss path's front door on a
//!   10⁴-element ladder: `ServiceRequest::from_spec` (parse, canonical
//!   text, hash) plus the session a miss builds from its canonical
//!   circuit. `service_ingest/ladder_mb_per_s` is the netlist's size
//!   over that median. Not gated.
//!
//! The derived `registry/warm_hit_ratio` value (hits / lookups on the
//! warm service) feeds Gate 4: a warm service replaying known work must
//! stay registry-bound (hit ratio ≥ 0.5), and a registry-hit submit must
//! be strictly faster than a cold one. Both comparisons are structural
//! (a hit skips the whole reduction), so they hold on any core count.
//!
//! Run with `cargo run --release -p mpvl-bench --bin bench_service`;
//! writes `target/bench/BENCH_service.json`, then checks the gate.

use mpvl_bench::Gates;
use mpvl_circuit::MnaSystem;
use mpvl_engine::{ReduceSpec, ReductionSession};
use mpvl_service::{ReductionService, ServiceOptions, ServiceRequest};
use mpvl_sim::log_space;
use mpvl_testkit::bench::Bench;

fn ladder(n: usize, r: f64, c: f64) -> String {
    let mut s = String::new();
    for i in 1..=n {
        let prev = if i == 1 {
            "in".to_string()
        } else {
            format!("m{}", i - 1)
        };
        s.push_str(&format!("R{i} {prev} m{i} {r:e}\n"));
        s.push_str(&format!("C{i} m{i} 0 {c:e}\n"));
    }
    s.push_str("Pin in 0\n.end\n");
    s
}

fn request(netlist: &str, order: usize) -> ServiceRequest {
    ServiceRequest::from_spec(netlist, ReduceSpec::pade_fixed(order).expect("order"))
        .expect("valid netlist")
        .with_eval(log_space(1e6, 1e10, 21))
        .expect("valid sweep")
}

fn main() {
    let mut bench = Bench::new("service");

    let main_netlist = ladder(200, 100.0, 1e-12);
    let main_request = request(&main_netlist, 12);

    // Cold: every sample is a brand-new service — ingestion, session
    // assembly, full reduction, sweep.
    bench.bench("service_submit/cold", || {
        let service = ReductionService::new(ServiceOptions::default());
        service.submit(&main_request).expect("cold submit");
    });

    // Warm: one service, primed; every sample is a registry hit.
    let warm = ReductionService::new(ServiceOptions::default());
    warm.submit(&main_request).expect("prime");
    bench.bench("service_submit/registry_warm", || {
        let outcome = warm.submit(&main_request).expect("warm submit");
        assert!(outcome.registry_hit, "warm submit must hit the registry");
    });

    // Mixed batch: three circuits, two orders each, against the warm
    // service — steady-state multi-tenant shape.
    let circuits = [
        main_netlist.clone(),
        ladder(150, 80.0, 2e-12),
        ladder(120, 120.0, 5e-13),
    ];
    let batch: Vec<ServiceRequest> = circuits
        .iter()
        .flat_map(|netlist| [request(netlist, 8), request(netlist, 12)])
        .collect();
    let _ = warm.submit_batch(&batch); // prime the other circuits
    bench.bench("service_batch/mixed", || {
        for result in warm.submit_batch(&batch) {
            result.expect("batch member succeeds");
        }
    });

    // Ingest: parse, canonicalize and hash, then assemble a session.
    let big_netlist = ladder(5000, 100.0, 1e-12);
    let spec = ReduceSpec::pade_fixed(8).expect("order");
    bench.bench("service_ingest/ladder", || {
        let request = ServiceRequest::from_spec(&big_netlist, spec.clone()).expect("valid netlist");
        let sys = MnaSystem::assemble(request.circuit()).expect("assembles");
        std::hint::black_box(ReductionSession::new(sys));
    });
    if let Some(median) = bench.median_of("service_ingest/ladder") {
        bench.push_value(
            "service_ingest/ladder_mb_per_s",
            big_netlist.len() as f64 / 1e6 / median,
        );
    }

    // The gate input: after replaying known work, the warm service
    // should be overwhelmingly registry-bound.
    let stats = warm.stats();
    let lookups = stats.registry_hits + stats.registry_misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        stats.registry_hits as f64 / lookups as f64
    };
    bench.push_value("registry/warm_hit_ratio", ratio);

    let mut gates = Gates::new("service");
    const MIN_HIT_RATIO: f64 = 0.5;
    gates.check(
        &bench,
        [
            "registry/warm_hit_ratio",
            "service_submit/cold",
            "service_submit/registry_warm",
        ],
        |[hit_ratio, cold, warm_submit]| {
            if hit_ratio < MIN_HIT_RATIO {
                Err(format!(
                    "warm service registry hit ratio {hit_ratio:.3} is below \
                     {MIN_HIT_RATIO} — repeat submits are not being content-addressed"
                ))
            } else if warm_submit >= cold {
                Err(format!(
                    "registry-warm submit {warm_submit:.3e}s is not faster than a cold \
                     submit {cold:.3e}s — a hit should skip the whole reduction"
                ))
            } else {
                Ok(format!(
                    "registry hit ratio {hit_ratio:.3}, warm submit {warm_submit:.3e}s vs \
                     cold {cold:.3e}s (speedup {:.2}x)",
                    cold / warm_submit
                ))
            }
        },
    );
    gates.finish(bench);
}
