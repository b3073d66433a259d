//! Multi-session concurrency stress: many client threads hammering one
//! service across several circuits must produce byte-identical results
//! to a serial replay, never lose or duplicate a ModelId, and survive
//! session-eviction churn. Run under `MPVL_THREADS=1/2/4` in CI — the
//! engine's internal parallelism must not interact with client-side
//! concurrency.

use mpvl_engine::{ReduceSpec, Want};
use mpvl_service::{
    ReductionService, ServiceError, ServiceOptions, ServiceOutcome, ServiceRequest,
};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

mod common;
use common::ladder;

/// FNV-1a over the exact bits of an eval sweep.
fn eval_fingerprint(points: &[mpvl_engine::EvalPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in points {
        eat(p.freq_hz.to_bits());
        for v in p.z.as_slice() {
            eat(v.re.to_bits());
            eat(v.im.to_bits());
        }
    }
    h
}

/// The workload: 3 circuits × 3 orders, every request with an eval
/// sweep. Returns (request, workload key) pairs.
fn workload() -> Vec<(String, ServiceRequest)> {
    let circuits = [
        ladder(18, 50.0, 1e-12),
        ladder(22, 80.0, 2e-12),
        ladder(26, 120.0, 5e-13),
    ];
    let mut out = Vec::new();
    for (ci, netlist) in circuits.iter().enumerate() {
        for order in [3usize, 4, 6] {
            let request =
                ServiceRequest::from_spec(netlist, ReduceSpec::pade_fixed(order).unwrap())
                    .unwrap()
                    .with_eval(vec![1e6, 1e8, 1e9, 5e9])
                    .unwrap();
            out.push((format!("c{ci}/o{order}"), request));
        }
    }
    out
}

/// Serial reference: every workload key → (model text, eval fingerprint).
fn serial_reference(work: &[(String, ServiceRequest)]) -> HashMap<String, (String, u64)> {
    let service = ReductionService::new(ServiceOptions::default());
    work.iter()
        .map(|(key, request)| {
            let outcome = service.submit(request).unwrap();
            let fp = eval_fingerprint(outcome.eval.as_deref().unwrap());
            (key.clone(), (sympvl::write_model(&outcome.model), fp))
        })
        .collect()
}

#[test]
fn concurrent_clients_match_serial_replay_byte_for_byte() {
    let work = workload();
    let reference = serial_reference(&work);

    let service = ReductionService::new(ServiceOptions::default());
    // Shard key → every ModelId handed out for that circuit's session.
    let ids_by_shard: Mutex<HashMap<String, Vec<usize>>> = Mutex::new(HashMap::new());
    const CLIENTS: usize = 4;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = &service;
            let work = &work;
            let reference = &reference;
            let ids_by_shard = &ids_by_shard;
            scope.spawn(move || {
                // Each client walks the workload from a different offset
                // so circuits and orders interleave across threads.
                for step in 0..work.len() {
                    let (key, request) = &work[(step + client * 2) % work.len()];
                    let outcome = service.submit(request).unwrap();
                    let (expected_model, expected_fp) = &reference[key];
                    assert_eq!(
                        &sympvl::write_model(&outcome.model),
                        expected_model,
                        "{key}: concurrent model bits must match serial replay"
                    );
                    assert_eq!(
                        eval_fingerprint(outcome.eval.as_deref().unwrap()),
                        *expected_fp,
                        "{key}: concurrent eval bits must match serial replay"
                    );
                    ids_by_shard
                        .lock()
                        .unwrap()
                        .entry(request.shard_key().to_string())
                        .or_default()
                        .push(outcome.model_id.index());
                }
            });
        }
    });

    // Every submit resolved to a live, unique model handle: within one
    // session no id may be handed out twice (lost/duplicated ids would
    // mean eval requests silently hitting the wrong model).
    let ids_by_shard = ids_by_shard.into_inner().unwrap();
    assert_eq!(ids_by_shard.len(), 3, "three circuits, three sessions");
    for (shard, ids) in &ids_by_shard {
        let unique: HashSet<usize> = ids.iter().copied().collect();
        assert_eq!(
            unique.len(),
            ids.len(),
            "shard {shard}: duplicated ModelId across concurrent submits"
        );
        assert_eq!(ids.len(), CLIENTS * work.len() / 3);
    }

    let stats = service.stats();
    assert_eq!(stats.admitted, (CLIENTS * work.len()) as u64);
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(
        stats.registry_hits >= (CLIENTS * work.len() - work.len()) as u64 / 2,
        "most repeat submits should be registry hits: {stats:?}"
    );
}

#[test]
fn batch_submission_is_thread_invariant_and_matches_serial() {
    let work = workload();
    let reference = serial_reference(&work);
    let requests: Vec<ServiceRequest> = work.iter().map(|(_, r)| r.clone()).collect();

    let service = ReductionService::new(ServiceOptions::default());
    for round in 0..2 {
        let results = service.submit_batch(&requests);
        for ((key, _), result) in work.iter().zip(&results) {
            let outcome = result.as_ref().unwrap();
            let (expected_model, expected_fp) = &reference[key];
            assert_eq!(
                &sympvl::write_model(&outcome.model),
                expected_model,
                "{key} round {round}: batch model bits"
            );
            assert_eq!(
                eval_fingerprint(outcome.eval.as_deref().unwrap()),
                *expected_fp,
                "{key} round {round}: batch eval bits"
            );
            assert_eq!(outcome.registry_hit, round > 0, "{key} round {round}");
        }
    }
}

#[test]
fn session_eviction_churn_under_concurrency_keeps_bits_stable() {
    let work = workload();
    let reference = serial_reference(&work);
    // One live session for three circuits: every shard switch evicts.
    let service = ReductionService::new(ServiceOptions::default().with_max_sessions(1).unwrap());
    std::thread::scope(|scope| {
        for client in 0..3 {
            let service = &service;
            let work = &work;
            let reference = &reference;
            scope.spawn(move || {
                for step in 0..work.len() {
                    let (key, request) = &work[(step + client * 3) % work.len()];
                    let outcome = service.submit(request).unwrap();
                    assert_eq!(
                        &sympvl::write_model(&outcome.model),
                        &reference[key].0,
                        "{key}: eviction churn must not change bits"
                    );
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.live_sessions, 1);
    assert!(
        stats.sessions_evicted >= 2,
        "shard switches must have churned: {stats:?}"
    );
    assert_eq!(stats.panics, 0);
}

/// A result in full: its `Debug` text, the exact model text and the
/// eval fingerprint (`Debug` abbreviates matrices).
fn describe(result: &Result<ServiceOutcome, ServiceError>) -> String {
    let Ok(o) = result else {
        return format!("{result:?}");
    };
    let eval = o.eval.as_deref().map(eval_fingerprint);
    format!("{o:?} {} {eval:?}", sympvl::write_model(&o.model))
}

#[test]
fn submit_agrees_with_one_element_batches() {
    use sympvl::{BtOptions, MultiPointOptions, Shift};

    let multi = MultiPointOptions::for_band(1e7, 1e10).unwrap();
    let want = Want::model_only().with_poles().with_certificate(1e-9);
    let specs = [
        ReduceSpec::multipoint(multi.with_points(vec![1e7, 1e10]).unwrap()),
        ReduceSpec::balanced(BtOptions::for_band(1e7, 1e10).unwrap()),
        ReduceSpec::pade_fixed(5).unwrap().with_want(want.unwrap()),
        // `G` floats under `Shift::None`: a typed error either way.
        ReduceSpec::pade_fixed(4)
            .unwrap()
            .with_shift(Shift::None)
            .unwrap(),
    ];
    let netlist = ladder(20, 60.0, 1e-12);
    let mut sequence: Vec<ServiceRequest> = workload().into_iter().map(|(_, r)| r).collect();
    for spec in specs {
        let request = ServiceRequest::from_spec(&netlist, spec).unwrap();
        sequence.push(request.with_eval(vec![1e8, 1e9]).unwrap());
    }
    sequence.push(sequence[0].clone().with_chaos_panic());
    // Then everything again, newest first: warm hits until the three
    // registry slots run out, with two live sessions churning.
    let warm: Vec<ServiceRequest> = sequence.iter().rev().cloned().collect();
    sequence.extend(warm);
    let opts = ServiceOptions::new().with_max_sessions(2).unwrap();
    let opts = opts.with_registry_capacity(3).unwrap();
    let single = ReductionService::new(opts.clone());
    let batched = ReductionService::new(opts);
    for (k, request) in sequence.iter().enumerate() {
        let batch = batched.submit_batch(std::slice::from_ref(request));
        let [batch]: &[_; 1] = batch.as_slice().try_into().expect("one result");
        assert_eq!(
            describe(&single.submit(request)),
            describe(batch),
            "request {k}"
        );
        assert_eq!(single.stats(), batched.stats(), "request {k}");
    }
    let stats = single.stats();
    assert!(
        stats.registry_hits > 0 && stats.sessions_evicted > 0,
        "{stats:?}"
    );
    assert_eq!(stats.panics, 2);
}
