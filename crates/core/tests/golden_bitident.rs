//! Golden pins for the reduced model.
//!
//! Each case pins two things:
//!
//! * **The current bits**: an FNV-1a fingerprint of the model's
//!   numerical payload (`t`, `delta`, `rho`, shift). Any change means the
//!   FP evaluation order drifted, not just "the numbers moved a little";
//!   it must be regenerated deliberately and declared.
//! * **A reference that survives such a regeneration**: the Lanczos
//!   structure (order, `p₁`, deflation steps, cluster sizes), which must
//!   match exactly, and `Z(j2πf)` at one frequency per decade from 10⁴
//!   to 10¹² Hz as bit patterns. The reference was captured before the
//!   re-orthogonalization moved to block classical Gram–Schmidt; the
//!   current model must agree with it normwise within
//!   [`Z_RTOL_LOW`] below 10⁷ Hz and [`Z_RTOL_HIGH`] at and above.
//!   Near the floating-node pole of the RC cases (low frequencies) the
//!   response amplifies the last-bit differences of a reordered sum, so
//!   the low band gets the looser bound.
//!
//! Run under `MPVL_THREADS=1` in CI and again at 2 and 4 threads: the
//! fingerprints must not depend on the worker count.

use mpvl_circuit::generators::{
    interconnect, package, random_lc, rc_ladder, InterconnectParams, PackageParams,
};
use mpvl_circuit::{Circuit, MnaSystem, GROUND};
use mpvl_la::Complex64;
use sympvl::{
    block_lanczos, factor_target, factor_with_options_via, sympvl, KrylovOperator, LanczosOptions,
    ReducedModel, Shift, SympvlOptions,
};

/// One frequency per decade, 10⁴ … 10¹² Hz.
const FREQS_HZ: [f64; 9] = [1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12];
/// Normwise relative bound on `Z` against the reference below 10⁷ Hz.
const Z_RTOL_LOW: f64 = 1e-7;
/// Normwise relative bound on `Z` against the reference at and above 10⁷ Hz.
const Z_RTOL_HIGH: f64 = 1e-10;

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

/// What one case produces today.
struct Observed {
    fingerprint: u64,
    order: usize,
    p1: usize,
    deflation_steps: Vec<usize>,
    cluster_sizes: Vec<usize>,
    /// `Z(j2πf)` per frequency, column-major.
    z: Vec<Vec<Complex64>>,
}

/// The pinned data of one case.
struct Golden {
    name: &'static str,
    fingerprint: u64,
    order: usize,
    p1: usize,
    deflation_steps: &'static [usize],
    cluster_sizes: &'static [usize],
    /// Reference `Z(j2πf)` per frequency: space-separated hex bit
    /// patterns, `re im` per entry, entries column-major.
    z: [&'static str; 9],
}

/// Reduces `sys` and replays the same Lanczos run to read its structure
/// (the model carries the coefficients, not the cluster bookkeeping).
fn observe(sys: &MnaSystem, order: usize, opts: &SympvlOptions) -> Observed {
    let model = sympvl(sys, order, opts).expect("reduce");
    let (factor, _) = factor_with_options_via(sys, opts, &mut factor_target).expect("factor");
    let start = factor.apply_minv_mat(&sys.b);
    let op = KrylovOperator::new(&factor, &sys.c);
    let out = block_lanczos(&op, &factor.j_diag(), &start, order, &opts.lanczos);
    assert_eq!(
        out.order(),
        model.order(),
        "replayed run disagrees with the model"
    );
    let z = FREQS_HZ
        .iter()
        .map(|&f| {
            let zf = model
                .eval(Complex64::new(0.0, 2.0 * std::f64::consts::PI * f))
                .expect("eval");
            zf.as_slice().to_vec()
        })
        .collect();
    Observed {
        fingerprint: model_fingerprint(&model),
        order: model.order(),
        p1: out.p1,
        deflation_steps: out.deflation_steps.clone(),
        cluster_sizes: out.clusters.iter().map(Vec::len).collect(),
        z,
    }
}

fn parse_z(hex: &str) -> Vec<Complex64> {
    let bits: Vec<f64> = hex
        .split_whitespace()
        .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex bit pattern")))
        .collect();
    assert_eq!(bits.len() % 2, 0, "odd number of Z bit patterns");
    bits.chunks_exact(2)
        .map(|c| Complex64::new(c[0], c[1]))
        .collect()
}

fn z_hex(z: &[Complex64]) -> String {
    z.iter()
        .map(|v| format!("{:016x} {:016x}", v.re.to_bits(), v.im.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `‖a − b‖_F / ‖b‖_F`.
fn rel_err(a: &[Complex64], b: &[Complex64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).abs().powi(2)).sum();
    let den: f64 = b.iter().map(|y| y.abs().powi(2)).sum();
    (num / den).sqrt()
}

/// Every mismatch between `got` and `want`, as messages.
fn compare(want: &Golden, got: &Observed) -> Vec<String> {
    let name = want.name;
    let mut bad = Vec::new();
    if got.fingerprint != want.fingerprint {
        bad.push(format!(
            "{name}: fingerprint {:#018x} != pinned {:#018x}",
            got.fingerprint, want.fingerprint
        ));
    }
    if (got.order, got.p1) != (want.order, want.p1) {
        bad.push(format!(
            "{name}: (order, p1) ({}, {}) != pinned ({}, {})",
            got.order, got.p1, want.order, want.p1
        ));
    }
    if got.deflation_steps != want.deflation_steps {
        bad.push(format!(
            "{name}: deflation steps {:?} != pinned {:?}",
            got.deflation_steps, want.deflation_steps
        ));
    }
    if got.cluster_sizes != want.cluster_sizes {
        bad.push(format!(
            "{name}: cluster sizes {:?} != pinned {:?}",
            got.cluster_sizes, want.cluster_sizes
        ));
    }
    for ((&f, z), hex) in FREQS_HZ.iter().zip(&got.z).zip(want.z) {
        let reference = parse_z(hex);
        let tol = if f < 1e7 { Z_RTOL_LOW } else { Z_RTOL_HIGH };
        let err = if reference.len() == z.len() {
            rel_err(z, &reference)
        } else {
            f64::INFINITY
        };
        if !(err <= tol) {
            bad.push(format!(
                "{name}: Z({f:e} Hz) relative error {err:.3e} > {tol:e}"
            ));
        }
    }
    bad
}

/// The pinned data as Rust source, printed on a mismatch so a
/// deliberate regeneration can be reviewed and pasted.
fn golden_source(name: &str, got: &Observed) -> String {
    let z: Vec<String> = got
        .z
        .iter()
        .map(|z| format!("            \"{}\",", z_hex(z)))
        .collect();
    format!(
        "    Golden {{\n        name: {name:?},\n        fingerprint: {:#018x},\n        order: {},\n        p1: {},\n        deflation_steps: &{:?},\n        cluster_sizes: &{:?},\n        z: [\n{}\n        ],\n    }},",
        got.fingerprint,
        got.order,
        got.p1,
        got.deflation_steps,
        got.cluster_sizes,
        z.join("\n")
    )
}

/// The J ≠ I path: a general-RLC package (indefinite `J`) expanded
/// in-band, with a cluster tolerance that makes look-ahead build
/// three two-vector clusters (45 clusters for 48 vectors, none forced).
fn package_lookahead() -> Observed {
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
    observe(&sys, 48, &opts)
}

/// The deflating case: a 12 × 12 RC mesh with four ports, two of them
/// on the same corner node, so the starting block has a repeated column
/// and one of its candidates deflates.
fn rc_grid_shared_port() -> Observed {
    let side = 12;
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..side * side).map(|_| ckt.add_node()).collect();
    for r in 0..side {
        for c in 0..side {
            let a = nodes[r * side + c];
            if c + 1 < side {
                ckt.add_resistor(&format!("Rh{r}_{c}"), a, nodes[r * side + c + 1], 0.05);
            }
            if r + 1 < side {
                ckt.add_resistor(&format!("Rv{r}_{c}"), a, nodes[(r + 1) * side + c], 0.07);
            }
            let cap = 10e-15 * (1.0 + 0.1 * ((r * 7 + c * 3) % 5) as f64);
            ckt.add_capacitor(&format!("C{r}_{c}"), a, GROUND, cap);
        }
    }
    ckt.add_port("P0", nodes[0], GROUND);
    ckt.add_port("P1", nodes[0], GROUND);
    ckt.add_port("P2", nodes[side * side / 2 + side / 3], GROUND);
    ckt.add_port("P3", nodes[side * side - 1], GROUND);
    let sys = MnaSystem::assemble(&ckt).expect("assemble");
    observe(&sys, 16, &SympvlOptions::default())
}

fn observe_default(sys: &MnaSystem, order: usize) -> Observed {
    observe(sys, order, &SympvlOptions::default())
}

/// Fingerprints and reference `Z` captured before the block
/// Gram–Schmidt re-orthogonalization.
const GOLDEN: [Golden; 5] = [
    Golden {
        name: "rc_ladder(64)/order8",
        fingerprint: 0x3e7a29a06e37b22a,
        order: 8,
        p1: 1,
        deflation_steps: &[],
        cluster_sizes: &[1, 1, 1, 1, 1, 1, 1, 1],
        z: [
            "406b4b805166ad5b c10e5b3d14d51f41",
            "406b4b78a79619b7 c0d84914d95a6112",
            "406b48a18f0504a4 c0a374e7d304cc68",
            "406a3e689a4a4ffe c071b1b9ab6d8088",
            "40579067698cec22 c05654fffd9e2469",
            "4040b76930f535cf c03bfd14fe9987e5",
            "402f6e942e0580be c020b0c5d5439080",
            "400f5d0983a081a6 c01d02211ef27f80",
            "3faae9ec72521c94 bfee79073a49f45b",
        ],
    },
    Golden {
        name: "interconnect(w3,s24,r2)/order12",
        fingerprint: 0xf00879e0f8792214,
        order: 12,
        p1: 3,
        deflation_steps: &[],
        cluster_sizes: &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        z: [
            "4063194d3ff33e84 c1725d51ee8c6e86 c051d79376635e09 c14fb8266ff30240 4030d74e07fc889f c13f4a6b1c7e67b0 c051d7962b5ab6fc c14fb8266ff3023b 406e1dbe8a83203d c1705af3d255f604 c051d729f236391b c14fb8266ff30304 4030d74b540102b4 c13f4a6b1c7e67bf c051d7298392b699 c14fb8266ff3030d 40631a6297d7da69 c1725d51ee8c6e3e",
            "4057aab1dd34fc1e c13d621cb12c2f9e bfe6d67ed68a3830 c119601ebf94cd2f 3fc58e7704edb900 c1090855b061ac2a bfe6d682538f8ce3 c119601ebf94cd30 4057e31a864c6a2d c13a2b1fb75331cb bfe6d5f7d9be0040 c119601ebf94cd25 3fc58e73af143cf6 c1090855b061ac2c bfe6d5f729c3f44e c119601ebf94cd2c 4057aab769fe96a7 c13d621cb12c2f82",
            "4057857ee095b598 c10781b0a3fcc566 bf7d3a4950961000 c0e44ce551b8cfda 3f5b97bf1b1b0000 c0d406aae955c7e8 bf7d3a4dad9c801c c0e44ce551b8cfd8 4057860f43d962da c104ef4cacb94a5b bf7d399c9e8c6800 c0e44ce551b8cfcc 3f5b97baa79fde33 c0d406aae955c7e8 bf7d399bd9fd510c c0e44ce551b8cfc7 4057857eeec704f6 c10781b0a3fcc54e",
            "4057851cb0c854b0 c0d2ce2ddd84a97e 3eea154b19700000 c0b03d7de6065adc 3efccf0ad1440000 c0a0055259c8beba 3eea1534405f7030 c0b03d7de6065ada 4057851cef8e07c2 c0d0bf78af3c2a8f 3eea18be4f600000 c0b03d7de6065ad0 3efccf07bce4bfbb c0a0055259c8beb4 3eea18c21a98fc5e c0b03d7de6065ad4 4057851cb0eca306 c0d2ce2ddd84a969",
            "405783f4245b308c c09e1b07e6d27f12 3f8114f70acdac00 c079f804758328da 3f5190d7a0134000 c069a020d61f95b6 3f8114f70abf893b c079f804758328db 4057837d0d79b81a c09ad10ae435a77e 3f8114f70d035c00 c079f804758328ca 3f5190d79ff8cbb6 c069a020d61f95b5 3f8114f70d060ea6 c079f804758328c6 405783f4245b8d57 c09e1b07e6d27ef2",
            "40571465dd21d255 c06966fd18d408a7 3fe8fdda56881cc0 c043a3dba584c8a2 3fbc7ddc6f1d9400 c033e29996064483 3fe8fdda56881bca c043a3dba584c8a1 4056e9899f90879b c066fa5962339f00 3fe8fdda568832d0 c043a3dba584c893 3fbc7ddc6f1d9368 c033e29996064481 3fe8fdda56883323 c043a3dba584c893 40571465dd21d33a c06966fd18d4088c",
            "40480952954ee7a7 c04a816e5f3bd34c 4018dd0b08d0f468 c016564abb32eb40 4005e451b0df8972 c001dd0e48c465e2 4018dd0b08d0f46a c016564abb32eb39 40464bf64f42c1a2 c048d475ec61bc46 4018dd0b08d0f46f c016564abb32eb2b 4005e451b0df8973 c001dd0e48c465e2 4018dd0b08d0f472 c016564abb32eb2e 40480952954ee7b5 c04a816e5f3bd340",
            "40277c2d467fee52 c03145d2f2292033 40009d9551f5e13b bff9b988c54c54ad 3fe990c9669a2fb8 bfe4cf2f736d5966 40009d9551f5e137 bff9b988c54c54b0 4024edd4886c18d7 c03050b3e16fc5ae 40009d9551f5e12e bff9b988c54c5496 3fe990c9669a2fad bfe4cf2f736d5962 40009d9551f5e12e bff9b988c54c549e 40277c2d467fee5b c03145d2f2292034",
            "3fd6fa3bc7b665ac c00a291e3e0c0c1b 3fc20b19a9fc5c8a bfe5b706dc9328c1 3fb55fd2b48e217e bfd509999a3c2464 3fc20b19a9fc5c86 bfe5b706dc9328bd 3fd34ca39fdbbf81 c0075c8fba2ec654 3fc20b19a9fc5c72 bfe5b706dc9328b1 3fb55fd2b48e2187 bfd509999a3c2471 3fc20b19a9fc5c79 bfe5b706dc9328b7 3fd6fa3bc7b6657e c00a291e3e0c0c02",
        ],
    },
    Golden {
        name: "random_lc(7,40,2)/order10",
        fingerprint: 0x4a52adc3b1f47148,
        order: 10,
        p1: 2,
        deflation_steps: &[],
        cluster_sizes: &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        z: [
            "0000000000000000 3f3cf8a53e9f4e63 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 3f4151e469d568cd",
            "0000000000000000 3f721b675a189851 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 3f75a65d980e7f8c",
            "0000000000000000 3fa6a24a724aeb8e 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 3fab0ffea4aa8bad",
            "0000000000000000 3fdc4f63935095bf 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 3fe0ec5ad608eb7b",
            "0000000000000000 4012f53508008092 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 401669b3db9c710a",
            "0000000000000000 404cb82f7513716a 0000000000000000 0000000000000000 0000000000000000 0000000000000000 8000000000000000 c042387ef8e05283",
            "8000000000000000 c015576298d7cf1e 0000000000000000 0000000000000000 0000000000000000 0000000000000000 8000000000000000 c01387a05a2d4473",
            "8000000000000000 bfe09f6a2b2dad27 0000000000000000 0000000000000000 0000000000000000 0000000000000000 8000000000000000 bfd8ce8d59852f63",
            "8000000000000000 bfaa96e456feaffe 0000000000000000 0000000000000000 0000000000000000 0000000000000000 8000000000000000 bfa3d5e7bdfe9d93",
        ],
    },
    Golden {
        name: "package(p10,s4)/lookahead/order48",
        fingerprint: 0x5f3f5d5d2c9a311b,
        order: 48,
        p1: 4,
        deflation_steps: &[],
        cluster_sizes: &[1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2],
        z: [
            "3ff471b004a3fbed c15e8249f55b26d1 bfe90a9d6412dcb8 c15e8249f55d1e08 3e07692606ffb800 bdd31d5b00000000 3e076925f1dc2000 bdd326cb00000000 bfe90a9d6412d8b3 c15e8249f55d1e00 3ff283b2974b0114 c15e8249f55b6181 3e07693038b94d00 bdcc9f1400000000 3e0769302cba0600 bdccb1f500000000 be367b82e4416260 3de715d8571e8e2b be367b82e6512382 3de6e9ad5439d752 3ff6bebc9e13f6e0 c15b39b83dacf3fd bfe5f42d38f28cae c15b39b83daf021a be367b877f96eea7 be02b9c97d257cfd be367b878efb8777 be02c4d5140a5f70 bfe5f42d38f28dd7 c15b39b83daf021e 3ff34d1628fb76d5 c15b39b83dad5c9a",
            "3ff4b15651893b93 c128683b2a4dd891 bfe88b50cb169d2c c128683b2aeb1616 3d9faaa299204000 3d68d65000000000 3d9faa9e8ce10000 3d685d7c00000000 bfe88b50cb169cd6 c128683b2aeb1612 3ff2c358e419c10d c128683b2a602a7c 3d9fa9d202bf8000 3d81efa400000000 3d9fa9d22b4e0000 3d81d17100000000 bdccddfb8403210b 3dce6fcecc2b832e bdccddf8f7eca048 3dce5e230448074c 3ff5d73add89d35f c125c7c69754922a bfe7c330baf49ec0 c125c7c697f8fc44 bdccd419dfb4dd91 3daf912bbcf8f363 bdccd41b2dd5f43d 3daf4a7939a71a95 bfe7c330baf4a813 c125c7c697f8fc49 3ff265946848c8cc c125c7c69775447a",
            "3ff4b1f95dfe8bac c0f386959cfb73ba bfe88a0b02bcea72 c0f38695ce1eaa72 3d3327266bd00000 3d35bba000000000 3d3325cb3e800000 3d355af400000000 bfe88a0b02bceeb1 c0f38695ce1eaa6b 3ff2c3fbe7c5e422 c0f38695a2b50811 3d3354a250600000 3cef2a0000000000 3d3353e442000000 3ce3138000000000 bd627fad0ee757fe bd4c5b5ced769a09 bd628068fc3dda2b bd4e1fdb41a0bfcd 3ff5d4ea519ab956 c0f16c9ebea7896e bfe7c7d22fb621bc c0f16c9ef208b2cc bd627c2d2798ed21 bd3d0658db311f4f bd627ce6580e8dea bd40479f738d7078 bfe7c7d22fb6210f c0f16c9ef208b2ce 3ff26343cc852fcc c0f16c9ec8df42d9",
            "3ff4b2045b7ee609 c0bf3da92495c059 bfe88a14806de1e4 c0bf3dc7daa172a9 bd2e046d1f800000 bdd72d78dec00000 bd41f882ae000000 bdd72d0b75c00000 bfe88a14806de421 c0bf3dc7daa172a6 3ff2c40376ada536 c0bf3dacb8940af3 bd40c5cba9300000 bdd72d1a77000000 bd4b3c51e2a00000 bdd72c21d7400000 bd30a959b94c2e8a bdd72d6c7089ecca bd419bd3658e3112 bdd72d24cebde4f2 3ff5d4efd3bf3f6b c0bbe0e97c3e0f9f bfe7c7eb74590c04 c0bbe1099904f286 bd42cb035d4b1946 bdd72cfd477475ec bd4c11b7c5a541f3 bdd72c2a6a64a501 bfe7c7eb745919cd c0bbe1099904f283 3ff263431f9ef108 c0bbe0efdf14eee6",
            "3ff4b5ad6a06fcb5 c088f82d31bf07e4 bfe88f10bbd581fe c08901c73f129432 be02d1991bc45d80 be76d2c0ed2bf200 be1620f352d69b00 be76a7c68ad36b80 bfe88f10bbd57bf5 c08901c73f12942b 3ff2c654b7a248a0 c088f94ba33b9af9 be14af5943972f00 be76ae803c324e00 be2095beb3f8e800 be764ed6c6504980 be02d19929d62092 be76d2c0ecc6e959 be14af59600962ac be76ae803c55b6f3 3ff5d968e43a941c c086471e286274ba bfe7cd2ae0f6f148 c0865128be03bc6a be1620f353e95311 be76a7c68a71be7f be2095bec0cbc1b4 be764ed6c6706567 bfe7cd2ae0f6f268 c0865128be03bc6a 3ff26550b6a03ce8 c086491d68d288b0",
            "3ff651eedb12f879 c052070ff3aed78e bfeab85b6303894e c0552eb78ebd4465 bef2ac599566344b bf28376b0b6afd3e beef215eeb6ce698 bf10b25f1cef267e bfeab85b6303919e c0552eb78ebd4450 3ff3bfedd238cf75 c052677a2ce95a99 bef0152c2098d080 bf13c2e6f531fcf3 bedb99d298558a7d 3f02ea7272a8af60 bef2ac5995663380 bf28376b0b6b11e3 bef0152c2097f2ee bf13c2e6f531f64a 3ff7e5b18c1d75fe c04f626b6b0c61d9 bfea304c1569cf1a c0530beae928808c beef215eeb6dc108 bf10b25f1cef3686 bedb99d2985564c9 3f02ea7272a8b0c8 bfea304c1569caf8 c0530beae928809c 3ff34b923d19ddf0 c0505de789ea4941",
            "403f3bb59a310e49 4034e88349e227ae 403b49554d3d4f09 404158067320079b c0315ec1bb43be55 c0095a07a80bf1b9 c02d0df568b436c6 c01fc5e71406e71e 403b49554d3d6658 40415806732000a2 403a6276c377a05f c01100905acde070 c030b0c0bb75f9b3 c0163e8e5f9fe89d c02c1c2fea39eff0 c0222a90c4342fe3 c0315ec1bb43bcc0 c0095a07a80bf466 c030b0c0bb75f6e2 c0163e8e5fa00912 4036303d2d5cc467 4024d12087b6ae49 402da2a83555355c 402222fc92bbd072 c02d0df568b43cfa c01fc5e71406ec87 c02c1c2fea39edae c0222a90c434408e 402da2a8355521d0 402222fc92bbd635 402be60400803f95 c0324f2fd90d3035",
            "3f5b0c3f4c69f70e c0124c734111016e 3f433e211e6f20b0 3f756e455b59d800 bf39e4eabee6175e bf7b5b9b3c088a69 3f17e261868c5e7c 3f3c212076b24e70 3f433e211e610752 3f756e455b569944 bf47c85ace08e412 c00f49d3b61a7f9e 3f17f200ad7126ad 3f4471e750519c42 3f03cecf67b0fb21 bf2443b3049c6f44 bf39e4eabee60dd9 bf7b5b9b3c08962a 3f17f200ad724ef4 3f4471e75051bc60 3f691b3bed736b0f c0123cb7e797c676 3f44177487bbd8ec 3f8141e4630ec800 3f17e261868cce80 3f3c212076b0be34 3f03cecf67af17f6 bf2443b3049961ac 3f44177487c4a1d4 3f8141e4630ea654 bf579bccf1402406 c00b4b716c2be4a9",
            "3eefbae37d24198b bfdd02d8605dc56d 3ed876e63d4f1a86 3f3ff52329ee4c00 becfab936680b768 bf44f5698880123b 3ead24281df253c8 3f041e5ce04e0d40 3ed876e63d3d8d29 3f3ff52329e7bd20 bee01ce4a92ad4b1 bfd8d4ef807e1517 3eac9c958d3a3e6f 3f0d28c83e216bc1 3e9efeff3040dd80 bf02e5f225df3bbf becfab936680a84d bf44f56988801fde 3eac9c958d3bb12c 3f0d28c83e21d640 3efd442f54c185d4 bfdcdfa2da9ac9d0 3ed989a4045e6264 3f49525e3390dc00 3ead24281df2e99a 3f041e5ce04cd98d 3e9efeff303e7dfa bf02e5f225ddfd93 3ed989a404694ff9 3f49525e3390887a beef2f2e789069f0 bfd5a7c03f64e865",
        ],
    },
    Golden {
        name: "rc_grid(12,shared port)/order16",
        fingerprint: 0x2e79b67d4ea8c604,
        order: 16,
        p1: 3,
        deflation_steps: &[2],
        cluster_sizes: &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        z: [
            "403992c2d4768b8c c1619910b0666d22 403992c2d4768b8c c1619910b0666d22 40397ccdd68ab616 c1619910b0666d23 40397a0bfd29b76c c1619910b0666d29 403992c2d4768b8c c1619910b0666d22 403992c2d4768b8c c1619910b0666d22 40397ccdd68ab616 c1619910b0666d23 40397a0bfd29b76c c1619910b0666d29 40397ccdd68ab613 c1619910b0666d27 40397ccdd68ab613 c1619910b0666d27 4039846f55afe3f0 c1619910b0666d28 40397c536e539618 c1619910b0666d2e 40397a0bfd29b76a c1619910b0666d2a 40397a0bfd29b76a c1619910b0666d2a 40397c536e539618 c1619910b0666d2a 403992c34053226c c1619910b0666d30",
            "3fd5a47d15c09269 c12c281ab3d7ff00 3fd5a47d15c09269 c12c281ab3d7ff00 3fd0273d9acb3467 c12c281ab3d7ff00 3fceed8e85171014 c12c281ab3d7ff07 3fd5a47d15c09269 c12c281ab3d7ff00 3fd5a47d15c09269 c12c281ab3d7ff00 3fd0273d9acb3467 c12c281ab3d7ff00 3fceed8e85171014 c12c281ab3d7ff07 3fd0273d9acb3467 c12c281ab3d7fefc 3fd0273d9acb3467 c12c281ab3d7fefc 3fd20f9d6416ab3a c12c281ab3d7fefe 3fd008a38d0332f8 c12c281ab3d7ff08 3fceed8e85171014 c12c281ab3d7ff06 3fceed8e85171014 c12c281ab3d7ff06 3fd008a38d0332f7 c12c281ab3d7ff08 3fd5a4980ce645a3 c12c281ab3d7ff15",
            "3fb5f5130d432a0a c0f6867bc31334e1 3fb5f5130d432a0a c0f6867bc31334e1 3eb5216db2058000 c0f6867bc3133443 bf860e21fc87fc04 c0f6867bc31333f8 3fb5f5130d432a0a c0f6867bc31334e1 3fb5f5130d432a0a c0f6867bc31334e1 3eb5216db2058000 c0f6867bc3133443 bf860e21fc87fc04 c0f6867bc31333f8 3eb5216db1f86dc2 c0f6867bc3133444 3eb5216db1f86dc2 c0f6867bc3133444 3f9e86511a6e3512 c0f6867bc313345a bf5e94c56c94f7e0 c0f6867bc3133446 bf860e21fc87fc4b c0f6867bc31333f5 bf860e21fc87fc4b c0f6867bc31333f5 bf5e94c56c94f7a4 c0f6867bc3133443 3fb5f57ee9d9f6b1 c0f6867bc31334f3",
            "3fb550043bfb03af c0c2052fcf42c184 3fb550043bfb03af c0c2052fcf42c184 bf649f35fb4e1730 c0c2052fcf428f6e bf8b369886c8fc24 c0c2052fcf42757f 3fb550043bfb03af c0c2052fcf42c184 3fb550043bfb03af c0c2052fcf42c184 bf649f35fb4e1730 c0c2052fcf428f6e bf8b369886c8fc24 c0c2052fcf42757f bf649f35fb4e15a9 c0c2052fcf428f6d bf649f35fb4e15a9 c0c2052fcf428f6d 3f9bf215d54da964 c0c2052fcf4295e3 bf71f61e6fa7680c c0c2052fcf428d49 bf8b369886c8fc2d c0c2052fcf427579 bf8b369886c8fc2d c0c2052fcf427579 bf71f61e6fa76992 c0c2052fcf428d44 3fb550701891d05d c0c2052fcf42c19b",
            "3fb54e5e1eada45d c08cd5194bbc8079 3fb54e5e1eada45d c08cd5194bbc8079 bf64d3f9a4cd4b30 c08cd5194b9d31de bf8b43c9712037a0 c08cd5194b8cf825 3fb54e5e1eada45d c08cd5194bbc8079 3fb54e5e1eada45d c08cd5194bbc8079 bf64d3f9a4cd4b30 c08cd5194b9d31de bf8b43c9712037a0 c08cd5194b8cf825 bf64d3f9a4cd4b49 c08cd5194b9d31e1 bf64d3f9a4cd4b49 c08cd5194b9d31e1 3f9beb7d601d5557 c08cd5194ba13b4c bf7210804466e280 c08cd5194b9bd6fc bf8b43c971203764 c08cd5194b8cf828 bf8b43c971203764 c08cd5194b8cf828 bf7210804466e1ee c08cd5194b9bd6fe 3fb54ec9fb447043 c08cd5194bbc8959",
            "3fb54e59e2a32cbf c05710e112eafefd 3fb54e59e2a32cbf c05710e112eafefd bf64d48114a49a00 c05710e109226e12 bf8b43eb49bd427e c05710e10410612a 3fb54e59e2a32cbf c05710e112eafefd 3fb54e59e2a32cbf c05710e112eafefd bf64d48114a49a00 c05710e109226e12 bf8b43eb49bd427e c05710e10410612a bf64d48114a49b49 c05710e109226e11 bf64d48114a49b49 c05710e109226e11 3f9beb6c71f7b4f1 c05710e10a655f1e bf7210c3fc45f680 c05710e108b60365 bf8b43eb49bd42a7 c05710e104106128 bf8b43eb49bd42a7 c05710e104106128 bf7210c3fc45f642 c05710e108b60364 3fb54ec5bf39a52c c05710e112edbcb0",
            "3fb54e59a1e9bbc3 c02273ea3ca516f4 3fb54e59a1e9bbc3 c02273ea3ca516f4 bf64d4825916a480 c02273e72df7dff4 bf8b43ea4c2b57ec c02273e59853e4f3 3fb54e59a1e9bbc3 c02273ea3ca516f4 3fb54e59a1e9bbc3 c02273ea3ca516f4 bf64d4825916a480 c02273e72df7dff4 bf8b43ea4c2b57ec c02273e59853e4f3 bf64d4825916a3d0 c02273e72df7dff6 bf64d4825916a3d0 c02273e72df7dff6 3f9beb6c38ba3803 c02273e792e33258 bf7210c499951390 c02273e70c168633 bf8b43ea4c2b57cd c02273e59853e4f5 bf8b43ea4c2b57cd c02273e59853e4f5 bf7210c499951398 c02273e70c168633 3fb54ec57e5f9fcb c02273ea3d80599a",
            "3fb54e4494ecf21d bfed88200178873b 3fb54e4494ecf21d bfed88200178873b bf64d479afa7dac0 bfed8636d9caca8f bf8b4365677e79e4 bfed853957330b6b 3fb54e4494ecf21d bfed88200178873b 3fb54e4494ecf21d bfed88200178873b bf64d479afa7dac0 bfed8636d9caca8f bf8b4365677e79e4 bfed853957330b6b bf64d479afa7dabf bfed8636d9caca92 bf64d479afa7dabf bfed8636d9caca92 3f9beb66c98c9010 bfed8675ec846c89 bf7210be5915915c bfed8621acb8e260 bf8b4365677e79f8 bfed853957330b73 bf8b4365677e79f8 bfed853957330b73 bf7210be5915913c bfed8621acb8e263 3fb54eb064a92258 bfed88208a7e459c",
            "3fb5461547af9eaf bfb8347192cb228a 3fb5461547af9eaf bfb8347192cb228a bf64d126a1d0e3f0 bfb79c238f124ca4 bf8b0fc6813bf996 bfb74d63d351cda8 3fb5461547af9eaf bfb8347192cb228a 3fb5461547af9eaf bfb8347192cb228a bf64d126a1d0e3f0 bfb79c238f124ca4 bf8b0fc6813bf996 bfb74d63d351cda8 bf64d126a1d0e404 bfb79c238f124ca4 bf64d126a1d0e404 bfb79c238f124ca4 3f9be9491620ba27 bfb7afce84a4ca48 bf720e44b9c6628c bfb7957e85fe9af4 bf8b0fc6813bf9a6 bfb74d63d351cda9 bf8b0fc6813bf9a6 bfb74d63d351cda9 bf720e44b9c66282 bfb7957e85fe9af4 3fb5467c29a2f974 bfb8349bec8b4c3e",
        ],
    },
];

#[test]
fn reduced_models_match_their_golden_pins() {
    let observed: Vec<Observed> = vec![
        observe_default(
            &MnaSystem::assemble(&rc_ladder(64, 10.0, 1e-12)).expect("assemble"),
            8,
        ),
        observe_default(
            &MnaSystem::assemble(&interconnect(&InterconnectParams {
                wires: 3,
                segments: 24,
                coupling_reach: 2,
                ..InterconnectParams::default()
            }))
            .expect("assemble"),
            12,
        ),
        observe_default(
            &MnaSystem::assemble(&random_lc(7, 40, 2)).expect("assemble"),
            10,
        ),
        package_lookahead(),
        rc_grid_shared_port(),
    ];
    let names = [
        "rc_ladder(64)/order8",
        "interconnect(w3,s24,r2)/order12",
        "random_lc(7,40,2)/order10",
        "package(p10,s4)/lookahead/order48",
        "rc_grid(12,shared port)/order16",
    ];
    let mut bad = Vec::new();
    for (i, got) in observed.iter().enumerate() {
        match GOLDEN.get(i) {
            Some(want) => bad.extend(compare(want, got)),
            None => bad.push(format!("{}: no golden entry", names[i])),
        }
    }
    let regenerated: Vec<String> = names
        .iter()
        .zip(&observed)
        .map(|(name, got)| golden_source(name, got))
        .collect();
    assert!(
        bad.is_empty(),
        "{}\n\nobserved:\n{}",
        bad.join("\n"),
        regenerated.join("\n")
    );
}

/// Determinism across runs of the same process: two reductions of the
/// same system must agree bit-for-bit (no hidden global state).
#[test]
fn repeated_reduction_is_bitwise_stable() {
    let sys = MnaSystem::assemble(&rc_ladder(32, 5.0, 2e-12)).expect("assemble");
    let a = observe_default(&sys, 6);
    let b = observe_default(&sys, 6);
    assert_eq!(a.fingerprint, b.fingerprint);
}
