//! Byte pins for the canonical netlist writers. The service's shard and
//! registry keys hash `to_spice`'s output, and persisted `.rom` files
//! are found by those keys, so the writers must not change a byte.
//! Each pin is the SHA-256 of the text the writer produced before it
//! was rewritten to write without per-element allocations.

use mpvl_circuit::generators::{
    interconnect, package, rc_ladder, InterconnectParams, PackageParams,
};
use mpvl_circuit::{parse_spice, to_spice, to_spice_subckt, Circuit};
use mpvl_service::sha256_hex;

/// A hand netlist with every card type: K and G cards, a negative
/// value, a port tied to ground at its plus terminal and two ports on
/// one node (the subcircuit pin takes the first port's name).
const HAND: &str = "\
* hand netlist
R1 a b 1k
Rneg b c -2.5
C1 b 0 1p
Cx a c 33.3f
L1 c d 1n
L2 d 0 2n
K1 L1 L2 0.3
G1 d 0 a b 1m
P1 a 0
P2 0 c
P3 d b
P4 a 0
.end
";

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("rc_ladder", rc_ladder(7, 12.5, 3.3e-13)),
        (
            "interconnect",
            interconnect(&InterconnectParams {
                wires: 3,
                segments: 4,
                coupling_reach: 2,
                ..InterconnectParams::default()
            }),
        ),
        (
            "package",
            package(&PackageParams {
                pins: 3,
                signal_pins: vec![0, 2],
                sections: 2,
                ..PackageParams::default()
            }),
        ),
        ("hand", parse_spice(HAND).expect("hand netlist parses").0),
    ]
}

#[test]
fn writer_bytes_are_pinned() {
    let pins = [
        (
            "rc_ladder",
            "7e17188099eb9fa0a85725438503d2f824c515912c26d0037fe0a66b342d3d35",
            "6aaa13477786e0d8f4d591f908d13c9027743e9c3c67920420749e61117ee649",
        ),
        (
            "interconnect",
            "8b3e5f42197df1cadbe0b67ab8169dc48b77ee8ac9afe5da635287d4110b4f4c",
            "67f1368a2964751426af7b74fde69dda9160e806f2721a688e0d9e54b8b1881a",
        ),
        (
            "package",
            "3ca698b3f49e97699002f102a9a6e2046d1ca212c3382e605b486831ef0507e8",
            "716099f9783a5fa8c6c6678e04b677f572132fec84643d29fbc8235d0782f8bc",
        ),
        (
            "hand",
            "24142488eb71af7359920f7c0c3a2284d36fb7df989a600c45574b273c5a1893",
            "09cf8e467be960bbbef5b540cbfc3a0c7c40c4517c77fb723f0bfff60d45afa7",
        ),
    ];
    for ((name, ckt), (pin_name, spice, subckt)) in circuits().into_iter().zip(pins) {
        assert_eq!(name, pin_name);
        let text = to_spice(&ckt);
        assert_eq!(
            sha256_hex(text.as_bytes()),
            spice,
            "{name} to_spice:\n{text}"
        );
        let text = to_spice_subckt(&ckt, "blk");
        assert_eq!(
            sha256_hex(text.as_bytes()),
            subckt,
            "{name} to_spice_subckt:\n{text}"
        );
    }
}

#[test]
fn hand_netlist_canonical_text() {
    // The readable half of the pin: the K, G and negative-value cards and
    // both ground-tied port spellings, written out in full.
    let (ckt, _) = parse_spice(HAND).unwrap();
    assert_eq!(
        to_spice(&ckt),
        "* netlist written by mpvl-circuit\n\
         R1 n1 n2 1e3\n\
         Rneg n2 n3 -2.5e0\n\
         C1 n2 0 1e-12\n\
         Cx n1 n3 3.33e-14\n\
         L1 n3 n4 1e-9\n\
         L2 n4 0 2e-9\n\
         K1 L1 L2 3.000000000000e-1\n\
         G1 n4 0 n1 n2 1e-3\n\
         P1 n1 0\n\
         P2 0 n3\n\
         P3 n4 n2\n\
         P4 n1 0\n\
         .end\n"
    );
}
