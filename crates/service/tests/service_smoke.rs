//! End-to-end service behavior: ingestion, content addressing, session
//! eviction, admission control, drain, panic containment — and the
//! inherited bit-identity contract against the bare engine.

use mpvl_circuit::{parse_spice, to_spice, MnaSystem};
use mpvl_engine::{EvalRequest, ReduceSpec, ReductionSession, Want};
use mpvl_service::{ReductionService, ServiceError, ServiceOptions, ServiceRequest};
use std::path::PathBuf;

mod common;
use common::ladder;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpvl-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ingestion_rejects_bad_netlists_before_any_work() {
    let reduction = ReduceSpec::pade_fixed(4).unwrap();
    assert!(matches!(
        ServiceRequest::from_spec("Q1 a b 1k\n.end", reduction.clone()),
        Err(ServiceError::Parse(_))
    ));
    assert!(matches!(
        ServiceRequest::from_spec("R1 a 0 1k\n.end", reduction.clone()),
        Err(ServiceError::InvalidRequest { .. })
    ));
    assert!(matches!(
        ServiceRequest::from_spec(&ladder(5, 100.0, 1e-12), reduction)
            .unwrap()
            .with_eval(vec![]),
        Err(ServiceError::InvalidRequest { .. })
    ));
}

#[test]
fn overflowing_values_are_typed_errors_not_panics() {
    // `1e400` parses to ±inf and the NaN spellings to NaN: ingest
    // refuses them by element and value before deriving any key.
    for value in ["1e400", "-1e400", "infk", "nanm", "NaNK"] {
        let netlist = format!("R1 a b 1k\nC1 b 0 {value}\nPa a 0\n.end");
        let err =
            ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(2).unwrap()).unwrap_err();
        assert!(
            matches!(
                &err,
                ServiceError::InvalidRequest { reason }
                    if reason.contains("element C1") && reason.contains("non-finite")
            ),
            "{value}: {err}"
        );
    }
}

#[test]
fn content_addresses_ignore_formatting_but_not_options() {
    let reduction = ReduceSpec::pade_fixed(4).unwrap();
    let a = ServiceRequest::from_spec(
        "R1 in out 1k\nC1 out 0 1n\nPin in 0\n.end",
        reduction.clone(),
    )
    .unwrap();
    // Same circuit, different whitespace, node names, and value spelling.
    let b = ServiceRequest::from_spec(
        "* a comment\n  R1   drive sense 1000\n\n  C1 sense gnd 1e-9\n  Pin drive gnd\n.end",
        reduction.clone(),
    )
    .unwrap();
    assert_eq!(a.shard_key(), b.shard_key());
    assert_eq!(a.registry_key(), b.registry_key());
    // Different reduction order → different model address, same shard.
    let c = ServiceRequest::from_spec(
        "R1 in out 1k\nC1 out 0 1n\nPin in 0\n.end",
        ReduceSpec::pade_fixed(5).unwrap(),
    )
    .unwrap();
    assert_eq!(a.shard_key(), c.shard_key());
    assert_ne!(a.registry_key(), c.registry_key());
}

#[test]
fn submit_matches_the_bare_engine_bit_for_bit() {
    let netlist = ladder(20, 75.0, 2e-12);
    let freqs = vec![1e6, 1e8, 3e9];
    let service = ReductionService::new(ServiceOptions::default());
    let request = ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(5).unwrap())
        .unwrap()
        .with_eval(freqs.clone())
        .unwrap();
    let outcome = service.submit(&request).unwrap();
    assert!(!outcome.registry_hit);

    let (ckt, _) = parse_spice(&netlist).unwrap();
    let session = ReductionSession::new(MnaSystem::assemble(&ckt).unwrap());
    let direct = session.reduce(&ReduceSpec::pade_fixed(5).unwrap()).unwrap();
    assert_eq!(
        sympvl::write_model(&outcome.model),
        sympvl::write_model(&direct.model),
        "service and engine must produce identical model bits"
    );
    let direct_eval = session
        .eval(&EvalRequest::new(direct.model_id, freqs).unwrap())
        .unwrap();
    let served = outcome.eval.expect("eval requested");
    assert_eq!(served.len(), direct_eval.points.len());
    for (a, b) in served.iter().zip(&direct_eval.points) {
        assert_eq!(a.freq_hz.to_bits(), b.freq_hz.to_bits());
        for (x, y) in a.z.as_slice().iter().zip(b.z.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    // Warm resubmission: a registry hit with the same bits.
    let warm = service.submit(&request).unwrap();
    assert!(warm.registry_hit);
    assert_eq!(
        sympvl::write_model(&warm.model),
        sympvl::write_model(&outcome.model)
    );
}

#[test]
fn ingest_reduce_evict_reingest_hits_the_registry() {
    let netlist = ladder(16, 120.0, 1e-12);
    let service = ReductionService::new(ServiceOptions::default());
    let request = ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(4).unwrap()).unwrap();

    let cold = service.submit(&request).unwrap();
    assert!(!cold.registry_hit);
    assert_eq!(service.stats().live_sessions, 1);

    // Evicting the session drops its retained models and caches…
    assert!(service.evict_session(&netlist));
    assert!(!service.evict_session(&netlist), "already gone");
    assert!(!service.evict_session("not a netlist"));
    assert_eq!(service.stats().live_sessions, 0);

    // …but re-ingesting the same circuit hits the registry: a fresh
    // session, no re-reduction, identical bits.
    let warm = service.submit(&request).unwrap();
    assert!(warm.registry_hit);
    assert_eq!(
        sympvl::write_model(&warm.model),
        sympvl::write_model(&cold.model)
    );
    let stats = service.stats();
    assert_eq!(stats.live_sessions, 1);
    assert_eq!(stats.sessions_evicted, 1);
    assert!(stats.registry_hits >= 1);
}

#[test]
fn registry_persists_across_service_instances() {
    let dir = temp_dir("persist");
    let netlist = ladder(14, 60.0, 3e-12);
    let request = ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(4).unwrap()).unwrap();

    let first = {
        let service = ReductionService::new(ServiceOptions::default().with_registry_dir(&dir));
        let outcome = service.submit(&request).unwrap();
        assert!(!outcome.registry_hit);
        outcome
    }; // service dropped — only the directory survives

    let service = ReductionService::new(ServiceOptions::default().with_registry_dir(&dir));
    let warm = service.submit(&request).unwrap();
    assert!(warm.registry_hit, "persisted model must be found on disk");
    assert_eq!(
        sympvl::write_model(&warm.model),
        sympvl::write_model(&first.model),
        "the persisted model must round-trip bit-exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_deterministically_in_index_order() {
    let netlist = ladder(12, 90.0, 1e-12);
    let service = ReductionService::new(ServiceOptions::default().with_max_in_flight(2).unwrap());
    let requests: Vec<ServiceRequest> = (3..7)
        .map(|order| {
            ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(order).unwrap()).unwrap()
        })
        .collect();
    let results = service.submit_batch(&requests);
    assert!(results[0].is_ok());
    assert!(results[1].is_ok());
    for r in &results[2..] {
        assert_eq!(
            r.as_ref().unwrap_err(),
            &ServiceError::Overloaded { capacity: 2 },
            "requests past the bound are rejected in place"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.rejected_overload, 2);
    assert_eq!(stats.in_flight, 0, "tickets released after the batch");

    // The rejected work can be resubmitted once the batch has drained.
    assert!(service.submit(&requests[2]).is_ok());
}

#[test]
fn drain_finishes_in_flight_work_then_rejects() {
    let netlist = ladder(12, 90.0, 1e-12);
    let service = ReductionService::new(ServiceOptions::default());
    let request = ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(3).unwrap()).unwrap();
    service.submit(&request).unwrap();
    service.drain();
    service.drain(); // idempotent
    assert_eq!(
        service.submit(&request).unwrap_err(),
        ServiceError::ShuttingDown
    );
    let batch = service.submit_batch(std::slice::from_ref(&request));
    assert_eq!(batch[0].as_ref().unwrap_err(), &ServiceError::ShuttingDown);
    assert_eq!(service.stats().rejected_shutdown, 2);
}

#[test]
fn a_panicking_request_is_contained_and_poisons_nothing() {
    let netlist = ladder(18, 80.0, 2e-12);
    let service = ReductionService::new(ServiceOptions::default());
    let good = ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(4).unwrap()).unwrap();
    let reference = service.submit(&good).unwrap();

    let chaos = good.clone().with_chaos_panic();
    let err = service.submit(&chaos).unwrap_err();
    assert!(matches!(err, ServiceError::Panicked { .. }), "{err}");

    // The same service keeps serving, with identical bits.
    let after = service.submit(&good).unwrap();
    assert_eq!(
        sympvl::write_model(&after.model),
        sympvl::write_model(&reference.model),
        "a contained panic must not change later results"
    );

    // In a batch, only the chaotic member fails.
    let batch = service.submit_batch(&[good.clone(), chaos, good.clone()]);
    assert!(batch[0].is_ok());
    assert!(matches!(
        batch[1].as_ref().unwrap_err(),
        ServiceError::Panicked { .. }
    ));
    assert!(batch[2].is_ok());
    assert_eq!(service.stats().panics, 2);
}

#[test]
fn session_lru_bounds_live_sessions() {
    let service = ReductionService::new(ServiceOptions::default().with_max_sessions(2).unwrap());
    let reduction = ReduceSpec::pade_fixed(3).unwrap();
    for n in [10usize, 11, 12] {
        let request =
            ServiceRequest::from_spec(&ladder(n, 100.0, 1e-12), reduction.clone()).unwrap();
        service.submit(&request).unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.live_sessions, 2);
    assert_eq!(stats.sessions_evicted, 1);
    // The evicted circuit still serves — a new session plus registry hit.
    let request = ServiceRequest::from_spec(&ladder(10, 100.0, 1e-12), reduction).unwrap();
    let outcome = service.submit(&request).unwrap();
    assert!(outcome.registry_hit);
}

#[test]
fn multipoint_requests_are_addressed_disjointly_and_serve_warm() {
    use sympvl::MultiPointOptions;

    let netlist = ladder(40, 80.0, 1e-12);
    let multi = |total: usize| {
        ReduceSpec::multipoint(
            MultiPointOptions::for_band(1e7, 1e10)
                .unwrap()
                .with_total_order(total)
                .unwrap()
                .with_points(vec![1e7, 1e10])
                .unwrap(),
        )
    };
    let m = ServiceRequest::from_spec(&netlist, multi(8)).unwrap();
    // Same circuit → same shard; multi-point never aliases single-point
    // (not even a fixed request at the same total order), nor a
    // different multi-point budget.
    let single = ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(8).unwrap()).unwrap();
    assert_eq!(m.shard_key(), single.shard_key());
    assert_ne!(m.registry_key(), single.registry_key());
    assert_ne!(
        m.registry_key(),
        ServiceRequest::from_spec(&netlist, multi(10))
            .unwrap()
            .registry_key()
    );
    // And the acceptance threshold is part of the single-point address.
    let strict = ServiceRequest::from_spec(
        &netlist,
        ReduceSpec::pade_fixed(8)
            .unwrap()
            .with_sympvl(sympvl::SympvlOptions::new().with_auto_rtol(1e-3).unwrap())
            .unwrap(),
    )
    .unwrap();
    assert_ne!(single.registry_key(), strict.registry_key());

    let service = ReductionService::new(ServiceOptions::default());
    let cold = service
        .submit(&m.clone().with_eval(vec![1e7, 1e8, 1e10]).unwrap())
        .unwrap();
    assert!(!cold.registry_hit);
    let info = cold.multipoint.as_ref().expect("placement info on a miss");
    assert_eq!(info.point_freqs_hz, vec![1e7, 1e10]);
    assert!(cold.model.order() <= 8);
    assert_eq!(cold.eval.as_ref().unwrap().len(), 3);
    // Warm: registry hit, identical bits, no placement history.
    let warm = service.submit(&m).unwrap();
    assert!(warm.registry_hit);
    assert!(warm.multipoint.is_none());
    assert_eq!(
        sympvl::write_model(&warm.model),
        sympvl::write_model(&cold.model)
    );
    // Mixed batch over one shard: single and multi members coexist.
    let batch = service.submit_batch(&[single.clone(), m.clone(), strict.clone()]);
    for outcome in &batch {
        assert!(outcome.is_ok(), "{outcome:?}");
    }
    assert!(batch[1].as_ref().unwrap().registry_hit);
    assert!(!batch[2].as_ref().unwrap().registry_hit);
}

#[test]
fn registry_memory_tier_evicts_least_recently_used() {
    // One memory slot and no directory: the memory tier is the registry.
    let service = ReductionService::new(ServiceOptions::new().with_registry_capacity(1).unwrap());
    let netlist = ladder(15, 90.0, 1e-12);
    let request =
        |order| ServiceRequest::from_spec(&netlist, ReduceSpec::pade_fixed(order).unwrap());
    let (first, second) = (request(4).unwrap(), request(5).unwrap());
    let cold = service.submit(&first).unwrap();
    assert!(
        service.submit(&first).unwrap().registry_hit,
        "held in memory"
    );
    assert!(!service.submit(&second).unwrap().registry_hit);
    // The second key evicted the first: a miss, reduced to the same bits.
    let again = service.submit(&first).unwrap();
    assert!(!cold.registry_hit && !again.registry_hit);
    assert_eq!(
        sympvl::write_model(&again.model),
        sympvl::write_model(&cold.model)
    );
    let stats = service.stats();
    let registry = (
        stats.registry_hits,
        stats.registry_misses,
        stats.registry_models,
    );
    assert_eq!(registry, (1, 3, 1));
}

#[test]
fn synthesis_by_product_matches_synthesize_rc_of_the_model() {
    let opts = sympvl::SynthesisOptions::new();
    let spec = ReduceSpec::pade_fixed(4)
        .unwrap()
        .with_want(Want::model_only().with_synthesis(opts.clone()));
    let netlist = ladder(12, 80.0, 2e-12);
    let expected = |model: &sympvl::ReducedModel| {
        to_spice(&sympvl::synthesize_rc(model, &opts).unwrap().circuit)
    };

    let (ckt, _) = parse_spice(&netlist).unwrap();
    let session = ReductionSession::new(MnaSystem::assemble(&ckt).unwrap());
    let direct = session.reduce(&spec).unwrap();
    let synthesized = direct.synthesis.expect("synthesis requested");
    assert!(!synthesized.circuit.elements().is_empty());
    assert_eq!(to_spice(&synthesized.circuit), expected(&direct.model));

    let service = ReductionService::new(ServiceOptions::default());
    let request = ServiceRequest::from_spec(&netlist, spec).unwrap();
    for hit in [false, true] {
        let outcome = service.submit(&request).unwrap();
        assert_eq!(outcome.registry_hit, hit);
        let synthesized = outcome.synthesis.expect("synthesis requested");
        assert_eq!(
            to_spice(&synthesized.circuit),
            expected(&outcome.model),
            "registry hit = {hit}"
        );
    }
}
