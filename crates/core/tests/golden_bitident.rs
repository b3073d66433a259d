//! Golden bit-identity pins for the reduced model.
//!
//! The blocked-operator rework of the Lanczos hot path is required to
//! keep the produced `ReducedModel` *bit-identical* to the pre-rework
//! scalar path (same per-column FP evaluation order). These hashes were
//! captured from the columnwise implementation immediately before the
//! `LinearOperator` restructuring; any change to them means the FP
//! evaluation order drifted, not just "the numbers moved a little".
//!
//! Run under `MPVL_THREADS=1` in CI; the hashes must also be unchanged
//! at any ambient thread count because the blocked primitives fan out
//! per column with identical per-column arithmetic.

use mpvl_circuit::generators::{
    interconnect, package, random_lc, rc_ladder, InterconnectParams, PackageParams,
};
use mpvl_circuit::MnaSystem;
use sympvl::{sympvl, LanczosOptions, ReducedModel, Shift, SympvlOptions};

/// FNV-1a over the exact little-endian bit patterns of the model's
/// numerical payload (`t`, `delta`, `rho`) plus its dimensions.
fn model_fingerprint(m: &ReducedModel) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let (t, delta, rho) = (m.t_matrix(), m.delta_matrix(), m.rho_matrix());
    for dim in [
        t.nrows(),
        t.ncols(),
        delta.nrows(),
        delta.ncols(),
        rho.nrows(),
        rho.ncols(),
    ] {
        eat(&(dim as u64).to_le_bytes());
    }
    for mat in [t, delta, rho] {
        for &v in mat.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    eat(&m.shift().to_bits().to_le_bytes());
    h
}

fn reduce_fingerprint(sys: &MnaSystem, order: usize) -> u64 {
    let model = sympvl(sys, order, &SympvlOptions::default()).expect("reduce");
    model_fingerprint(&model)
}

/// The J ≠ I path: a general-RLC package (indefinite `J`) expanded
/// in-band, with a cluster tolerance that makes look-ahead build
/// three two-vector clusters (45 clusters for 48 vectors, none forced).
fn package_lookahead_fingerprint() -> u64 {
    let ckt = package(&PackageParams {
        pins: 10,
        signal_pins: vec![0, 5],
        sections: 4,
        ..PackageParams::default()
    });
    let sys = MnaSystem::assemble_general(&ckt).expect("assemble");
    let opts = SympvlOptions::new()
        .with_shift(Shift::Value(2.0 * std::f64::consts::PI * 5e8))
        .expect("shift")
        .with_lanczos(LanczosOptions {
            cluster_tol: 1e-3,
            ..LanczosOptions::default()
        });
    model_fingerprint(&sympvl(&sys, 48, &opts).expect("reduce"))
}

/// (name, expected fingerprint, actual): the first three captured
/// 2026-08-06 from the pre-`LinearOperator` scalar path at commit
/// 4a04b20+1; the package case captured 2026-10-17 at b87de9e, before
/// the J = I re-orthogonalization shortcut, to pin the J ≠ I branch.
#[test]
fn reduced_models_are_bit_identical_to_pre_rework_path() {
    let cases: [(&str, u64, u64); 4] = [
        (
            "rc_ladder(64)/order8",
            0xdced_a9d6_38c0_1260,
            reduce_fingerprint(
                &MnaSystem::assemble(&rc_ladder(64, 10.0, 1e-12)).expect("assemble"),
                8,
            ),
        ),
        (
            "interconnect(w3,s24,r2)/order12",
            0x7c9d_00c4_e33c_ca14,
            reduce_fingerprint(
                &MnaSystem::assemble(&interconnect(&InterconnectParams {
                    wires: 3,
                    segments: 24,
                    coupling_reach: 2,
                    ..InterconnectParams::default()
                }))
                .expect("assemble"),
                12,
            ),
        ),
        (
            "random_lc(7,40,2)/order10",
            0xa20d_29f5_9220_dc2c,
            reduce_fingerprint(
                &MnaSystem::assemble(&random_lc(7, 40, 2)).expect("assemble"),
                10,
            ),
        ),
        (
            "package(p10,s4)/lookahead/order48",
            0x3a88_873f_ec1a_153f,
            package_lookahead_fingerprint(),
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter(|(_, expected, actual)| actual != expected)
        .map(|(name, expected, actual)| {
            format!("{name}: fingerprint {actual:#018x} != pinned {expected:#018x}")
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Determinism across runs of the same process: two reductions of the
/// same system must agree bit-for-bit (no hidden global state).
#[test]
fn repeated_reduction_is_bitwise_stable() {
    let sys = MnaSystem::assemble(&rc_ladder(32, 5.0, 2e-12)).expect("assemble");
    let a = reduce_fingerprint(&sys, 6);
    let b = reduce_fingerprint(&sys, 6);
    assert_eq!(a, b);
}
