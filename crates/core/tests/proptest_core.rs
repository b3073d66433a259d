//! Property-based tests for the core reduction machinery: Lanczos
//! invariants, model-persistence round trips, and evaluation identities.

use mpvl_circuit::generators::{package, random_lc, random_rc, random_rl, PackageParams};
use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Mat};
use mpvl_par::with_threads;
use mpvl_testkit::prop::check;
use mpvl_testkit::{prop_assert, prop_assert_eq};
use std::sync::atomic::{AtomicUsize, Ordering};
use sympvl::{
    certify, exact_moments, read_model, reduce_multipoint, sympvl, write_model, Certificate,
    GFactor, LanczosOptions, MultiPointOptions, SympvlOptions,
};

#[test]
fn io_roundtrip_is_lossless() {
    check(
        "io_roundtrip_is_lossless",
        24,
        (0u64..1000, 1usize..10),
        |&(seed, order)| {
            let sys = MnaSystem::assemble(&random_rc(seed, 15, 2)).unwrap();
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            let back = read_model(&write_model(&model)).unwrap();
            prop_assert_eq!(back.order(), model.order());
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
            let z1 = model.eval(s).unwrap();
            let z2 = back.eval(s).unwrap();
            prop_assert!((&z1 - &z2).max_abs() <= 1e-12 * z1.max_abs().max(1e-300));
            Ok(())
        },
    );
}

#[test]
fn model_is_reciprocal() {
    check(
        "model_is_reciprocal",
        24,
        (0u64..1000, 2usize..10),
        |&(seed, order)| {
            // Z_n must be symmetric (the reduction preserves reciprocity).
            let sys = MnaSystem::assemble(&random_rc(seed, 15, 3)).unwrap();
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 5e8);
            let z = model.eval(s).unwrap();
            for i in 0..3 {
                for j in 0..i {
                    let rel = (z[(i, j)] - z[(j, i)]).abs() / z[(i, j)].abs().max(1e-300);
                    prop_assert!(rel < 1e-9, "({i},{j}): {rel}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn conjugate_symmetry_of_evaluation() {
    check(
        "conjugate_symmetry_of_evaluation",
        24,
        (0u64..500, 6.0f64..10.0),
        |&(seed, fexp)| {
            // Z(conj(s)) == conj(Z(s)): condition (ii) of §5.2, which holds
            // for every model with real (T, Δ, ρ).
            let sys = MnaSystem::assemble(&random_rc(seed, 12, 1)).unwrap();
            let model = sympvl(&sys, 5, &SympvlOptions::default()).unwrap();
            let w = 2.0 * std::f64::consts::PI * 10f64.powf(fexp);
            let s = Complex64::new(0.3 * w, w);
            let z_plus = model.eval(s).unwrap()[(0, 0)];
            let z_minus = model.eval(s.conj()).unwrap()[(0, 0)];
            prop_assert!((z_minus - z_plus.conj()).abs() < 1e-9 * z_plus.abs().max(1e-300));
            Ok(())
        },
    );
}

#[test]
fn dc_value_matches_moment_zero() {
    check("dc_value_matches_moment_zero", 24, 0u64..500, |&seed| {
        // Z_n at the expansion point equals the zeroth matched moment.
        let sys = MnaSystem::assemble(&random_rc(seed, 12, 2)).unwrap();
        let model = sympvl(&sys, 6, &SympvlOptions::default()).unwrap();
        let z0 = model
            .eval_sigma(Complex64::from_real(model.shift()))
            .unwrap();
        let m0 = model.moment(0);
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!(
                    (z0[(i, j)].re - m0[(i, j)]).abs() < 1e-10 * m0[(i, j)].abs().max(1e-300)
                );
                prop_assert!(z0[(i, j)].im.abs() < 1e-12 * m0[(i, j)].abs().max(1e-300));
            }
        }
        Ok(())
    });
}

#[test]
fn blocked_minv_appliers_are_bit_identical_to_columnwise() {
    check(
        "blocked_minv_appliers_are_bit_identical_to_columnwise",
        24,
        (0u64..500, 1usize..5),
        |&(seed, ncols)| {
            // apply_minv_mat / apply_minv_t_mat must reproduce the scalar
            // appliers column for column — bitwise, since the blocked path
            // is what the bit-identity guarantee of the Lanczos rework
            // rests on.
            let sys = MnaSystem::assemble(&random_rc(seed, 14, 2)).unwrap();
            let factor = GFactor::factor(&sys.g, sys.num_node_unknowns).unwrap();
            let n = sys.dim();
            let x = Mat::from_fn(n, ncols, |i, j| {
                (((seed as usize + i * 31 + j * 17) % 97) as f64 * 0.021).sin()
            });
            let fwd = factor.apply_minv_mat(&x);
            let bwd = factor.apply_minv_t_mat(&x);
            for j in 0..ncols {
                prop_assert_eq!(
                    fwd.col(j),
                    &factor.apply_minv(x.col(j))[..],
                    "apply_minv col {}",
                    j
                );
                prop_assert_eq!(
                    bwd.col(j),
                    &factor.apply_minv_t(x.col(j))[..],
                    "apply_minv_t col {}",
                    j
                );
            }
            Ok(())
        },
    );
}

#[test]
fn blocked_minv_appliers_are_thread_count_invariant() {
    check(
        "blocked_minv_appliers_are_thread_count_invariant",
        12,
        0u64..500,
        |&seed| {
            // Chunked column fan-out must be bitwise independent of the
            // worker count: each column runs the identical serial kernel,
            // and chunks are contiguous and index-ordered.
            let sys = MnaSystem::assemble(&random_rc(seed, 18, 3)).unwrap();
            let factor = GFactor::factor(&sys.g, sys.num_node_unknowns).unwrap();
            let n = sys.dim();
            let x = Mat::from_fn(n, 5, |i, j| {
                (((seed as usize + i * 13 + j * 41) % 89) as f64 * 0.037).cos()
            });
            let base_fwd = with_threads(1, || factor.apply_minv_mat(&x));
            let base_bwd = with_threads(1, || factor.apply_minv_t_mat(&x));
            for threads in [2, 4] {
                let fwd = with_threads(threads, || factor.apply_minv_mat(&x));
                let bwd = with_threads(threads, || factor.apply_minv_t_mat(&x));
                for j in 0..5 {
                    prop_assert_eq!(fwd.col(j), base_fwd.col(j), "fwd t={} col {}", threads, j);
                    prop_assert_eq!(bwd.col(j), base_bwd.col(j), "bwd t={} col {}", threads, j);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn achieved_order_never_exceeds_request_or_dimension() {
    check(
        "achieved_order_never_exceeds_request_or_dimension",
        24,
        (0u64..500, 1usize..40),
        |&(seed, order)| {
            let sys = MnaSystem::assemble(&random_rc(seed, 10, 2)).unwrap();
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            prop_assert!(model.order() <= order.min(sys.dim()));
            prop_assert!(model.order() >= 1);
            Ok(())
        },
    );
}

/// One of the `J = I` generators (RC, RL, LC), picked by `kind`.
fn random_passive(kind: u64, seed: u64, nodes: usize, ports: usize) -> MnaSystem {
    let ckt = match kind {
        0 => random_rc(seed, nodes, ports),
        1 => random_rl(seed, nodes, ports),
        _ => random_lc(seed, nodes, ports),
    };
    MnaSystem::assemble(&ckt).expect("valid circuit")
}

#[test]
fn certificate_holds_at_every_order() {
    // §5: with J = I, Tₙ ⪰ 0 at every order, so every model certifies
    // as stable and passive, up to the full dimension.
    check(
        "certificate_holds_at_every_order",
        16,
        (0u64..3, 0u64..1000, 1usize..4),
        |&(kind, seed, ports)| {
            let sys = random_passive(kind, seed, 7, ports);
            for order in 1..=sys.dim() {
                let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
                match certify(&model, 1e-9).unwrap() {
                    Certificate::ProvablyPassive { .. } => {}
                    other => return Err(format!("order {order}: {other:?}")),
                }
            }
            Ok(())
        },
    );
}

#[test]
fn multipoint_merge_keeps_the_certificate() {
    // The merged multi-point model is a congruence projection of a J = I
    // pencil, so it keeps J = I and Tₙ ⪰ 0 (§5) whatever the points:
    // `points` 0 is adaptive placement, 1–3 that many explicit points.
    check(
        "multipoint_merge_keeps_the_certificate",
        24,
        (0u64..3, 0u64..1000, (1usize..4, 0usize..4)),
        |&(kind, seed, (ports, points))| {
            let sys = random_passive(kind, seed, 12, ports);
            let opts = MultiPointOptions::for_band(1e7, 1e10).map_err(|e| e.to_string())?;
            let opts = if points == 0 {
                opts.with_max_points(3)
            } else {
                let phase = (seed % 97) as f64 / 97.0;
                let freqs = (0..points)
                    .map(|i| 10f64.powf(7.0 + 3.0 * (i as f64 + phase) / points as f64))
                    .collect();
                opts.with_points(freqs)
            }
            .and_then(|o| o.with_total_order(3 * ports * points.max(2)))
            .map_err(|e| e.to_string())?;
            let out = reduce_multipoint(&sys, &opts).map_err(|e| e.to_string())?;
            prop_assert!(out.model.guarantees_passivity(), "merge lost J = I");
            match certify(&out.model, 1e-9).map_err(|e| e.to_string())? {
                Certificate::ProvablyPassive { .. } => Ok(()),
                other => Err(format!("order {}: {other:?}", out.model.order())),
            }
        },
    );
}

#[test]
fn matched_moments_equal_exact_moments() {
    // §3: the order-n model matches at least q(n) = 2⌊n/p⌋ matrix
    // moments about the expansion point, with or without deflation.
    // `extra` adds a port whose incidence column is linearly dependent
    // on the others, so the starting block must deflate: 1 repeats the
    // first port's node pair, 2 reverses it (the column times −1), 3
    // spans the first two port nodes (their columns' difference).
    // Deflation drops candidates below `dtol` of their norm, so the
    // moments hold to a tolerance scaled from it.
    let tol = 100.0 * LanczosOptions::default().dtol;
    let cases = AtomicUsize::new(0);
    let deflated = AtomicUsize::new(0);
    check(
        "matched_moments_equal_exact_moments",
        24,
        (0u64..3, 0u64..1000, (1usize..4, 1usize..13, 0usize..4)),
        |&(kind, seed, (ports, order, extra))| {
            let mut ckt = match kind {
                0 => random_rc(seed, 10, ports),
                1 => random_rl(seed, 10, ports),
                _ => random_lc(seed, 10, ports),
            };
            let first = ckt.ports()[0].clone();
            match (extra, ckt.ports().get(1).cloned()) {
                (0, _) => {}
                (1, _) => ckt.add_port("pdup", first.plus, first.minus),
                (3, Some(second)) => ckt.add_port("pdiff", first.plus, second.plus),
                _ => ckt.add_port("prev", first.minus, first.plus),
            }
            let sys = MnaSystem::assemble(&ckt).map_err(|e| e.to_string())?;
            let model = sympvl(&sys, order, &SympvlOptions::default()).unwrap();
            cases.fetch_add(1, Ordering::Relaxed);
            if model.deflation_count() > 0 {
                deflated.fetch_add(1, Ordering::Relaxed);
            }
            // Below order p the run stops before the dependent column.
            prop_assert!(
                extra == 0 || order < sys.num_ports() || model.deflation_count() > 0,
                "a dependent port column did not deflate"
            );
            let q = model.matched_moments();
            let exact = exact_moments(&sys, model.shift(), q).unwrap();
            for (k, ek) in exact.iter().enumerate() {
                let err = (&model.moment(k) - ek).max_abs() / ek.max_abs().max(1e-300);
                prop_assert!(
                    err < tol,
                    "moment {k} of {q} ({} deflations): relative error {err:.3e}",
                    model.deflation_count()
                );
            }
            Ok(())
        },
    );
    // Three of the four `extra` values force a deflation; require at
    // least half the cases to have deflated so the property cannot pass
    // on undeflated runs alone.
    let (cases, deflated) = (cases.into_inner(), deflated.into_inner());
    assert!(
        2 * deflated >= cases,
        "only {deflated} of {cases} cases deflated"
    );
}

#[test]
fn gfactor_is_an_mjm_factorization_of_g() {
    // Eq. (15): the sparse factor the reduction runs on is G = M J Mᵀ,
    // so M⁻¹ G M⁻ᵀ = J entrywise and M⁻ᵀ J M⁻¹ b = G⁻¹ b, the solve
    // of the underlying LDLᵀ. Kinds 0–2 are the J = I generators'
    // unshifted G; kind 3 is a general-RLC package shifted per eq. (26),
    // which factors with an indefinite J.
    check(
        "gfactor_is_an_mjm_factorization_of_g",
        24,
        (0u64..4, 0u64..1000, 1usize..4),
        |&(kind, seed, ports)| {
            let g = if kind < 3 {
                random_passive(kind, seed, 9, ports).g
            } else {
                let ckt = package(&PackageParams {
                    pins: 2 + (seed % 4) as usize,
                    signal_pins: vec![0],
                    sections: ports,
                    ..PackageParams::default()
                });
                let sys = MnaSystem::assemble_general(&ckt).expect("valid circuit");
                sys.g
                    .add_scaled(1.0, &sys.c, 2.0 * std::f64::consts::PI * 5e8)
            };
            let factor = GFactor::factor(&g, g.nrows()).map_err(|e| e.to_string())?;
            let GFactor::Sparse { fac, .. } = &factor else {
                return Err("sparse LDLT fell back to the dense factor".into());
            };
            let n = g.nrows();
            let j = factor.j_diag();
            prop_assert!(kind < 3 || !factor.is_identity_j(), "package J = I");
            for i in 0..n {
                let mut e = vec![0.0; n];
                e[i] = 1.0;
                let col = factor.apply_minv(&g.matvec(&factor.apply_minv_t(&e)));
                for (k, &v) in col.iter().enumerate() {
                    let expect = if k == i { j[i] } else { 0.0 };
                    prop_assert!((v - expect).abs() < 1e-9, "({k},{i}): {v} vs {expect}");
                }
            }
            let b: Vec<f64> = (0..n)
                .map(|i| (((seed as usize + i * 29) % 83) as f64 * 0.043).sin())
                .collect();
            let mut y = factor.apply_minv(&b);
            for (v, s) in y.iter_mut().zip(&j) {
                *v *= s;
            }
            let x = factor.apply_minv_t(&y);
            let x_ref = fac.solve(&b);
            let scale = x_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (u, v) in x.iter().zip(&x_ref) {
                prop_assert!((u - v).abs() <= 1e-9 * scale, "{u} vs {v}");
            }
            Ok(())
        },
    );
}
