//! The single-walk parser and the direct writer against the code they
//! replaced (`oracle/`), and [`canonical_circuit`] against the text
//! round trip it stands in for.
//!
//! * `parse_spice` returns the oracle's circuit (names, node indices,
//!   value bits), the same names table, and the same `ParseError` line
//!   and message; `parse_spice_circuit` returns the same circuit.
//! * `to_spice` writes the oracle's bytes.
//! * `canonical_circuit(c)` equals `parse_spice(&to_spice(&c)).0` field
//!   by field, value bits included.

mod oracle;

use mpvl_circuit::generators::{
    interconnect, package, rc_ladder, InterconnectParams, PackageParams,
};
use mpvl_circuit::{
    canonical_circuit, parse_spice, parse_spice_circuit, to_spice, Circuit, Element, ParseError,
};
use mpvl_testkit::prop::{check, printable, string_of, vec_in};
use mpvl_testkit::{prop_assert_eq, SmallRng};
use std::fmt::Write;

/// Everything a circuit holds, with values as bits, for exact
/// comparison (`Element`'s `PartialEq` calls `-0.0 == 0.0` and
/// `NaN != NaN`).
fn fields(ckt: &Circuit) -> (usize, Vec<String>, Vec<String>) {
    let elements = ckt
        .elements()
        .iter()
        .map(|e| match e {
            Element::Resistor {
                name,
                a,
                b,
                ohms: v,
            }
            | Element::Capacitor {
                name,
                a,
                b,
                farads: v,
            }
            | Element::Inductor {
                name,
                a,
                b,
                henries: v,
            } => format!("{:?} {name} {a} {b} {:016x}", kind(e), v.to_bits()),
            Element::Mutual { name, l1, l2, k } => {
                format!("K {name} {l1} {l2} {:016x}", k.to_bits())
            }
            Element::Vccs {
                name,
                out_a,
                out_b,
                cp,
                cm,
                gm,
            } => format!("G {name} {out_a} {out_b} {cp} {cm} {:016x}", gm.to_bits()),
        })
        .collect();
    let ports = ckt
        .ports()
        .iter()
        .map(|p| format!("{} {} {}", p.name, p.plus, p.minus))
        .collect();
    (ckt.num_nodes(), elements, ports)
}

fn kind(e: &Element) -> char {
    match e {
        Element::Resistor { .. } => 'R',
        Element::Capacitor { .. } => 'C',
        Element::Inductor { .. } => 'L',
        Element::Mutual { .. } => 'K',
        Element::Vccs { .. } => 'G',
    }
}

/// `text` parses the same with the library and with the oracle.
fn same_parse(text: &str) -> Result<(), String> {
    type Parsed = Result<(Circuit, std::collections::HashMap<String, usize>), ParseError>;
    let (new, old): (Parsed, Parsed) = (parse_spice(text), oracle::parse_spice(text));
    match (new, old) {
        (Ok((new, new_names)), Ok((old, old_names))) => {
            prop_assert_eq!(fields(&new), fields(&old), "circuits differ on {text:?}");
            prop_assert_eq!(new_names, old_names, "names differ on {text:?}");
            let bare = parse_spice_circuit(text).map_err(|e| e.to_string())?;
            prop_assert_eq!(fields(&bare), fields(&new), "parse_spice_circuit differs");
            prop_assert_eq!(to_spice(&new), oracle::to_spice(&new), "writers differ");
        }
        (Err(new), Err(old)) => {
            prop_assert_eq!(&new, &old, "errors differ on {text:?}");
            prop_assert_eq!(parse_spice_circuit(text).err(), Some(new));
        }
        (new, old) => {
            return Err(format!(
                "outcomes differ on {text:?}: {:?} vs {:?}",
                new.map(|_| ()),
                old.map(|_| ())
            ))
        }
    }
    Ok(())
}

const NODES: &[&str] = &[
    "a", "A", "b", "Net_1", "net_1", "NET_1", "GND", "gnd", "Gnd", "0", "00", "n1", "N1", "é", "Ä",
    "in", "IN", "0a", "ground",
];
const VALUES: &[&str] = &[
    "1k", "1K", "2.5MEG", "3Meg", "4meg", "1e-12", "1E-12", "-4.7p", "10", "0.8", "-0.5", "1e400",
    "-1e400", "inf", "INF", "infinity", "nan", "nanm", "NaNK", "abc", "1x", "1e-3M", "7T", "5g",
    "1f", "2u", "3N", "meg", "k", "-0", "1e-320", "+3.5e2", ".5", "1.",
];
const NAMES: &[&str] = &[
    "R1", "r2", "C1", "c_x", "L1", "l2", "K1", "k2", "G1", "g2", "P1", "pin", "Pout", "Xbad", "é1",
];
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "\t", "  ", "\u{a0}", "\u{2003}", "\u{b}", "\u{c}",
];

/// A netlist of mostly well-formed cards in every spelling the parser
/// reads, with malformed ones mixed in.
fn netlist(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pick = |list: &[&'static str]| list[rng.gen_range(0..list.len())];
    let mut text = String::new();
    let lines = 1 + (seed % 12) as usize;
    for _ in 0..lines {
        let card = pick(NAMES);
        // (nodes, values) the card's kind takes.
        let (nodes, values) = match card.as_bytes()[0].to_ascii_uppercase() {
            b'R' | b'C' | b'L' => (2, 1),
            b'G' => (4, 1),
            b'P' => (2, 0),
            _ => (2, 1),
        };
        let mut tokens = vec![card];
        if card.starts_with(['K', 'k']) {
            tokens.extend([pick(&["L1", "l2", "Lx"]), pick(&["L1", "l2", "Lx"])]);
        } else {
            tokens.extend((0..nodes).map(|_| pick(NODES)));
        }
        tokens.extend((0..values).map(|_| pick(VALUES)));
        match pick(&["", "", "", "", "drop", "add"]) {
            "drop" => {
                tokens.pop();
            }
            "add" => tokens.push(pick(NODES)),
            _ => {}
        }
        match pick(&["", "", "", "", "", "lead", "blank", "star", "end", "END"]) {
            "lead" => text.push_str(pick(SEPARATORS)),
            "blank" => text.push_str(pick(&["", "  ", "\t", "\u{a0}"])),
            "star" => text.push_str("* "),
            "end" => text.push_str(".end"),
            "END" => text.push_str(" .END "),
            _ => {}
        }
        for (i, token) in tokens.iter().enumerate() {
            if i > 0 {
                text.push_str(pick(SEPARATORS));
            }
            text.push_str(token);
        }
        text.push_str(pick(&["", "", "", " ; note", ";", "; x y z", " "]));
        text.push_str(pick(&["\n", "\n", "\r\n"]));
    }
    text
}

#[test]
fn parse_matches_oracle_on_card_mixes() {
    check(
        "parse_matches_oracle_on_card_mixes",
        512,
        0u64..u64::MAX,
        |&seed| same_parse(&netlist(seed)),
    );
}

#[test]
fn parse_matches_oracle_on_fuzz_alphabets() {
    check(
        "parse_matches_oracle_on_printable",
        256,
        printable(0, 200),
        |text| same_parse(text),
    );
    check(
        "parse_matches_oracle_on_token_lines",
        256,
        vec_in(string_of("ABCXYZabcxyz0189 .+-", 0, 40), 0..12),
        |lines| same_parse(&lines.join("\n")),
    );
    check(
        "parse_matches_oracle_on_control_chars",
        256,
        vec_in(
            string_of(
                "R1ab k\u{0}\u{b}\u{c}\u{85}\u{a0}\u{2003}\u{200b}\u{2028}\u{2029};*.\r",
                0,
                30,
            ),
            0..8,
        ),
        |lines| same_parse(&lines.join("\n")),
    );
    // Every value token alone and after each magnitude suffix spelling.
    for value in VALUES {
        same_parse(&format!("R1 a 0 {value}\nPa a 0")).unwrap();
        assert_eq!(
            mpvl_circuit::parse_value(value).map(f64::to_bits),
            oracle::parse_value(value).map(f64::to_bits),
            "{value}"
        );
    }
}

#[test]
fn ascii_splitting_agrees_with_char_is_whitespace() {
    // The byte splitter's space set must be exactly the ASCII part of
    // `char::is_whitespace`.
    for b in 0u8..128 {
        let c = char::from(b);
        same_parse(&format!("R1{c}a b 1k\nPa a 0")).unwrap();
        same_parse(&format!("R1 a{c}b 1k{c}\nPa a 0")).unwrap();
    }
}

/// `canonical_circuit(c)` is the circuit of `c`'s canonical text.
fn canonical_is_round_trip(ckt: &Circuit) -> Result<(), String> {
    let text = to_spice(ckt);
    let (parsed, _) = parse_spice(&text).map_err(|e| e.to_string())?;
    let direct = canonical_circuit(ckt.clone());
    prop_assert_eq!(fields(&direct), fields(&parsed), "differs on\n{text}");
    // A canonical circuit is its own canonical circuit.
    prop_assert_eq!(fields(&canonical_circuit(direct)), fields(&parsed));
    Ok(())
}

/// `ckt` as text in the two spellings the benchmark uses: plain `n<k>`
/// names, or `NET_<k>_X`, `GND`, comment lines and `.END`; every value
/// in shortest `{:e}` form (so coupling coefficients are not yet
/// rounded to the canonical 13 digits).
fn spelled(ckt: &Circuit, respelled: bool) -> String {
    let node = |n: usize| match (n, respelled) {
        (0, false) => "0".to_string(),
        (0, true) => "GND".to_string(),
        (n, false) => format!("n{n}"),
        (n, true) => format!("NET_{n}_X"),
    };
    let mut out = String::new();
    if respelled {
        out.push_str("* respelled\n");
    }
    for (i, e) in ckt.elements().iter().enumerate() {
        if respelled && i % 64 == 0 {
            let _ = writeln!(out, "; block {}", i / 64);
        }
        let _ = match e {
            Element::Resistor {
                name,
                a,
                b,
                ohms: v,
            }
            | Element::Capacitor {
                name,
                a,
                b,
                farads: v,
            }
            | Element::Inductor {
                name,
                a,
                b,
                henries: v,
            } => writeln!(out, "{name} {} {} {v:e}", node(*a), node(*b)),
            Element::Mutual { name, l1, l2, k } => writeln!(out, "{name} {l1} {l2} {k:e}"),
            Element::Vccs { .. } => unreachable!("no VCCS in these circuits"),
        };
    }
    for p in ckt.ports() {
        let _ = writeln!(out, "P{} {} {}", p.name, node(p.plus), node(p.minus));
    }
    out.push_str(if respelled { ".END\n" } else { ".end\n" });
    out
}

fn generated() -> Vec<Circuit> {
    let mut out = vec![rc_ladder(1, 100.0, 1e-12), rc_ladder(37, 80.0, 2e-12)];
    for wires in [2, 5] {
        out.push(interconnect(&InterconnectParams {
            wires,
            segments: 9,
            coupling_reach: 3,
            ..InterconnectParams::default()
        }));
    }
    for pins in [4, 9] {
        out.push(package(&PackageParams {
            pins,
            signal_pins: vec![0, pins / 2],
            sections: 3,
            ..PackageParams::default()
        }));
    }
    out
}

#[test]
fn canonical_circuit_of_generators_and_their_spellings() {
    // The generators name ports without the `P` their cards need, so
    // their circuits reach a parser only as text.
    for ckt in generated() {
        for respelled in [false, true] {
            let (parsed, _) = parse_spice(&spelled(&ckt, respelled)).unwrap();
            canonical_is_round_trip(&parsed).unwrap();
        }
    }
    // The package circuits carry mutuals, whose `k` the canonical text
    // rounds.
    assert!(generated().iter().any(|c| c
        .elements()
        .iter()
        .any(|e| matches!(e, Element::Mutual { .. }))));
}

#[test]
fn canonical_circuit_of_ports_first_and_unreferenced_nodes() {
    // Ports first: the canonical text moves them last, so their nodes
    // are renumbered after the elements' nodes.
    let (ports_first, _) =
        parse_spice("Pout out 0\nPin in GND\nR1 in mid 1k\nC1 mid 0 1p\nR2 mid out 2k\nC2 out 0 2p\nPmid mid 0\n")
            .unwrap();
    canonical_is_round_trip(&ports_first).unwrap();
    assert_eq!(canonical_circuit(ports_first).ports()[0].plus, 3);
    // Nodes no card refers to are dropped; a port-only node comes last.
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..8).map(|_| ckt.add_node()).collect();
    ckt.add_port("P1", nodes[6], 0);
    ckt.add_resistor("R1", nodes[5], nodes[2], 10.0);
    ckt.add_capacitor("C1", nodes[2], 0, 1e-12);
    ckt.add_inductor("L1", nodes[7], nodes[5], 1e-9);
    ckt.add_inductor("L2", nodes[7], 0, 2e-9);
    ckt.add_mutual("K1", "L1", "L2", 0.123_456_789_012_345_67);
    canonical_is_round_trip(&ckt).unwrap();
    let canonical = canonical_circuit(ckt);
    assert_eq!(canonical.num_nodes(), 5);
    assert_eq!(canonical.ports()[0].plus, 4);
}

#[test]
fn canonical_circuit_of_random_netlists() {
    check(
        "canonical_circuit_of_random_netlists",
        512,
        0u64..u64::MAX,
        |&seed| {
            match parse_spice(&netlist(seed)) {
                // Only circuits whose values all have a canonical spelling.
                Ok((ckt, _)) if finite(&ckt) => canonical_is_round_trip(&ckt),
                _ => Ok(()),
            }
        },
    );
}

fn finite(ckt: &Circuit) -> bool {
    ckt.elements().iter().all(|e| match e {
        Element::Resistor { ohms: v, .. }
        | Element::Capacitor { farads: v, .. }
        | Element::Inductor { henries: v, .. }
        | Element::Mutual { k: v, .. }
        | Element::Vccs { gm: v, .. } => v.is_finite(),
    })
}

#[test]
fn canonical_circuit_keeps_non_finite_values_for_validation() {
    let (ckt, _) = parse_spice("C1 b 0 1e400\nR1 b 0 1k\nK1 La Lb nanm\nPb b 0").unwrap();
    let canonical = canonical_circuit(ckt);
    assert!(matches!(
        canonical.elements()[0],
        Element::Capacitor { farads, .. } if farads == f64::INFINITY
    ));
    assert!(matches!(
        canonical.elements()[2],
        Element::Mutual { k, .. } if k.is_nan()
    ));
    assert!(canonical.validate().is_err());
}
