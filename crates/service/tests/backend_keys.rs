//! Registry-key disjointness across reduction backends.
//!
//! The service's content address must include the *backend kind*:
//! requests that differ only in backend (same netlist, same order, same
//! band) must map to distinct registry keys and must never be served
//! from each other's cache. A Padé model handed out for a
//! balanced-truncation request would silently lose the Hankel error
//! bound the caller asked for — these tests pin that impossible.

use mpvl_engine::{BackendKind, CrossValidateOptions, ReduceSpec};
use mpvl_service::{ReductionService, ServiceOptions, ServiceRequest};
use sympvl::{BtOptions, MultiPointOptions};

const F_LO: f64 = 1e6;
const F_HI: f64 = 1e9;
const ORDER: usize = 6;

fn ladder(n: usize) -> String {
    let mut s = String::new();
    for i in 1..=n {
        let prev = if i == 1 {
            "in".to_string()
        } else {
            format!("m{}", i - 1)
        };
        s.push_str(&format!("R{i} {prev} m{i} 5e1\n"));
        s.push_str(&format!("C{i} m{i} 0 1e-12\n"));
    }
    s.push_str("Pin in 0\n.end\n");
    s
}

fn pade_spec() -> ReduceSpec {
    ReduceSpec::pade_fixed(ORDER).unwrap()
}

fn bt_spec() -> ReduceSpec {
    ReduceSpec::balanced(
        BtOptions::for_band(F_LO, F_HI)
            .unwrap()
            .with_order(ORDER)
            .unwrap(),
    )
}

fn multi_spec() -> ReduceSpec {
    ReduceSpec::multipoint(
        MultiPointOptions::for_band(F_LO, F_HI)
            .unwrap()
            .with_total_order(ORDER)
            .unwrap()
            .with_points(vec![F_LO, F_HI])
            .unwrap(),
    )
}

#[test]
fn backend_kind_is_part_of_the_registry_key() {
    let netlist = ladder(30);
    let pade = ServiceRequest::from_spec(&netlist, pade_spec()).unwrap();
    let bt = ServiceRequest::from_spec(&netlist, bt_spec()).unwrap();
    let multi = ServiceRequest::from_spec(&netlist, multi_spec()).unwrap();

    // Same circuit → same shard for all three.
    assert_eq!(pade.shard_key(), bt.shard_key());
    assert_eq!(pade.shard_key(), multi.shard_key());

    // Same order, same (or no) band — still three distinct addresses.
    assert_ne!(pade.registry_key(), bt.registry_key());
    assert_ne!(pade.registry_key(), multi.registry_key());
    assert_ne!(bt.registry_key(), multi.registry_key());

    // Nearby balanced options fragment too: order, band edges, and the
    // auto-order HSV cutoff are all part of the address.
    let bt_other_order = ServiceRequest::from_spec(
        &netlist,
        ReduceSpec::balanced(
            BtOptions::for_band(F_LO, F_HI)
                .unwrap()
                .with_order(ORDER + 1)
                .unwrap(),
        ),
    )
    .unwrap();
    assert_ne!(bt.registry_key(), bt_other_order.registry_key());
    let bt_other_band = ServiceRequest::from_spec(
        &netlist,
        ReduceSpec::balanced(
            BtOptions::for_band(F_LO, 2.0 * F_HI)
                .unwrap()
                .with_order(ORDER)
                .unwrap(),
        ),
    )
    .unwrap();
    assert_ne!(bt.registry_key(), bt_other_band.registry_key());
    let bt_auto = ServiceRequest::from_spec(
        &netlist,
        ReduceSpec::balanced(BtOptions::for_band(F_LO, F_HI).unwrap()),
    )
    .unwrap();
    assert_ne!(bt.registry_key(), bt_auto.registry_key());

    // Cross-validation and Want by-products are diagnostics, not model
    // identity: they must NOT fragment the registry.
    let bt_cv = ServiceRequest::from_spec(
        &netlist,
        bt_spec().with_cross_validation(CrossValidateOptions::for_band(F_LO, F_HI).unwrap()),
    )
    .unwrap();
    assert_eq!(bt.registry_key(), bt_cv.registry_key());
}

#[test]
fn a_balanced_request_is_never_served_from_a_pade_cache() {
    let netlist = ladder(30);
    let service = ReductionService::new(ServiceOptions::default());

    let pade = ServiceRequest::from_spec(&netlist, pade_spec()).unwrap();
    let first = service.submit(&pade).unwrap();
    assert!(!first.registry_hit);
    assert!(first.balanced.is_none());

    // Same circuit, same order — but a different backend: a registry
    // MISS, reduced fresh, with balanced-truncation diagnostics.
    let bt = ServiceRequest::from_spec(&netlist, bt_spec()).unwrap();
    let cold = service.submit(&bt).unwrap();
    assert!(
        !cold.registry_hit,
        "a BT request must never be served a cached Padé model"
    );
    let info = cold.balanced.as_ref().expect("balanced info on a miss");
    assert!(info.hankel_bound.is_finite() && info.hankel_bound > 0.0);
    assert_eq!(cold.model.order(), ORDER);

    // And the two models genuinely differ — distinct approximations,
    // not one model under two keys.
    assert_ne!(
        sympvl::write_model(&first.model),
        sympvl::write_model(&cold.model)
    );

    // Warm BT resubmission: registry hit, identical bits, diagnostics
    // absent (only the model is persisted).
    let warm = service.submit(&bt).unwrap();
    assert!(warm.registry_hit);
    assert!(warm.balanced.is_none());
    assert_eq!(
        sympvl::write_model(&warm.model),
        sympvl::write_model(&cold.model)
    );
}

#[test]
fn cross_validation_flows_through_the_service_miss_path() {
    let netlist = ladder(30);
    let service = ReductionService::new(ServiceOptions::default());
    let request = ServiceRequest::from_spec(
        &netlist,
        bt_spec().with_cross_validation(CrossValidateOptions::for_band(F_LO, F_HI).unwrap()),
    )
    .unwrap();
    let cold = service.submit(&request).unwrap();
    assert!(!cold.registry_hit);
    let cv = cold
        .cross_validation
        .as_ref()
        .expect("cross-validation on a miss");
    assert_eq!(cv.referee, BackendKind::Pade);
    assert!(cv.disagreement.is_finite() && cv.disagreement >= 0.0);
    assert!((F_LO..=F_HI).contains(&cv.at_freq_hz));
    // On a hit only the model comes back — the referee run is not
    // persisted.
    let warm = service.submit(&request).unwrap();
    assert!(warm.registry_hit);
    assert!(warm.cross_validation.is_none());
}

#[test]
fn mixed_backend_batch_resolves_each_member_under_its_own_key() {
    let netlist = ladder(30);
    let service = ReductionService::new(ServiceOptions::default());
    let requests = vec![
        ServiceRequest::from_spec(&netlist, pade_spec()).unwrap(),
        ServiceRequest::from_spec(&netlist, bt_spec()).unwrap(),
        ServiceRequest::from_spec(&netlist, multi_spec()).unwrap(),
    ];
    let cold: Vec<_> = service
        .submit_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert!(cold.iter().all(|o| !o.registry_hit));
    assert!(cold[1].balanced.is_some());
    assert!(cold[2].multipoint.is_some());
    // Resubmitting the batch hits all three distinct registry entries.
    let warm: Vec<_> = service
        .submit_batch(&requests)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    for (c, w) in cold.iter().zip(&warm) {
        assert!(w.registry_hit);
        assert_eq!(sympvl::write_model(&c.model), sympvl::write_model(&w.model));
    }
}

/// The registry address of one Padé and one balanced request, pinned.
/// The Padé key carries the Lanczos numerics revision, so `.rom` files
/// written before a change of the Lanczos bits miss instead of being
/// served as if a fresh reduction had produced them; balanced
/// truncation runs no Lanczos process and keeps its key.
#[test]
fn registry_keys_are_pinned() {
    let netlist = ladder(30);
    let pade = ServiceRequest::from_spec(&netlist, pade_spec()).unwrap();
    let bt = ServiceRequest::from_spec(&netlist, bt_spec()).unwrap();
    assert_eq!(
        pade.registry_key(),
        "496ec55f2ac566105b774ac2114f79830e8307acbf1e434a3d73aa64d5685f3a"
    );
    assert_eq!(
        bt.registry_key(),
        "99da47f7ed88b0a1e3c2d3b937438e10fdcc6272e4b1d3032b1e511f3112cd1b"
    );
}

/// The default probe grids of the four `for_band` builders on one band,
/// pinned bit for bit: they feed the registry keys above through the
/// canonical reduction text. The 17-probe grids of multi-point,
/// balanced truncation and cross-validation are the same grid.
#[test]
fn default_probe_grids_are_pinned() {
    use sympvl::AdaptiveOptions;
    const NINE: [u64; 9] = [
        0x412e847ffffffffc,
        0x41421796da531eff,
        0x4155739d501f2fce,
        0x41696f55ca4ad1c7,
        0x417e286789a07f2a,
        0x4191e0fdb3bba4b8,
        0x41a532e0ca01fe27,
        0x41b92293f76db78c,
        0x41cdcd64fffffffa,
    ];
    const SEVENTEEN: [u64; 17] = [
        0x412e847ffffffffc,
        0x41377f5686abd5b7,
        0x41421796da531eff,
        0x414bdc4ea2e2dd7b,
        0x4155739d501f2fce,
        0x416084576779a811,
        0x41696f55ca4ad1c7,
        0x4173957d243baf4f,
        0x417e286789a07f2a,
        0x4187386d8421f7f1,
        0x4191e0fdb3bba4b8,
        0x419b883ad9e0335e,
        0x41a532e0ca01fe27,
        0x41b0527f2b6d2ae0,
        0x41b92293f76db78c,
        0x41c35a637fc9c151,
        0x41cdcd64fffffffa,
    ];
    let bits = |freqs: Vec<f64>| freqs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let adaptive = AdaptiveOptions::for_band(F_LO, F_HI).unwrap();
    assert_eq!(bits(adaptive.probe_freqs_hz), NINE);
    let multi = MultiPointOptions::for_band(F_LO, F_HI).unwrap();
    assert_eq!(bits(multi.probe_freqs_hz), SEVENTEEN, "multi-point");
    let bt = BtOptions::for_band(F_LO, F_HI).unwrap();
    assert_eq!(bits(bt.probe_freqs_hz), SEVENTEEN, "balanced");
    let cv = CrossValidateOptions::for_band(F_LO, F_HI).unwrap();
    assert_eq!(bits(cv.probe_freqs_hz), SEVENTEEN, "cross-validation");
}
