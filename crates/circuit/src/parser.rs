//! A SPICE-like netlist dialect: parser and writer.
//!
//! Supported card types (case-insensitive, one per line):
//!
//! ```text
//! * comment (also ; comment)
//! R<name> <node+> <node-> <value>     resistor
//! C<name> <node+> <node-> <value>     capacitor
//! L<name> <node+> <node-> <value>     inductor
//! K<name> <Lname1> <Lname2> <k>       mutual coupling
//! G<name> <out+> <out-> <c+> <c-> <gm> voltage-controlled current source
//! P<name> <node+> <node->             port declaration
//! .end                                optional terminator
//! ```
//!
//! Node `0` (or `gnd`/`GND`) is ground; all other node tokens are symbolic
//! names mapped to indices in order of first appearance. Values accept the
//! SPICE magnitude suffixes `f p n u m k meg g t`.
//!
//! Synthesized reduced circuits (§6 of the paper) can contain negative
//! element values; the parser accepts them (validation is the caller's
//! choice), and [`to_spice`] writes them back unchanged.

use crate::{Circuit, Element};
use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write};

/// Error from [`parse_spice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending card.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// Parses a netlist in the dialect described in the module-level docs.
///
/// Returns the circuit and the node-name table (`name → index`).
///
/// # Errors
///
/// Returns [`ParseError`] with the line number on any malformed card.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::parse_spice;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (ckt, names) = parse_spice(
///     "* simple low-pass
///      R1 in out 1k
///      C1 out 0 1n
///      Pin in 0
///      .end",
/// )?;
/// assert_eq!(ckt.num_ports(), 1);
/// assert_eq!(names.len(), 2); // "in", "out"
/// # Ok(())
/// # }
/// ```
pub fn parse_spice(text: &str) -> Result<(Circuit, HashMap<String, usize>), ParseError> {
    let mut ckt = Circuit::new();
    let mut names: HashMap<String, usize> = HashMap::new();
    let mut node = |ckt: &mut Circuit, token: &str| -> usize {
        let t = token.to_ascii_lowercase();
        if t == "0" || t == "gnd" {
            return 0;
        }
        if let Some(&n) = names.get(&t) {
            return n;
        }
        let n = ckt.add_node();
        names.insert(t, n);
        n
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = raw.split(';').next().unwrap_or("").trim();
        if stripped.is_empty() || stripped.starts_with('*') {
            continue;
        }
        if stripped.eq_ignore_ascii_case(".end") {
            break;
        }
        let tokens: Vec<&str> = stripped.split_whitespace().collect();
        // `trim` and `split_whitespace` share `char::is_whitespace`, so a
        // non-empty `stripped` always yields at least one non-empty token —
        // but a parser must have no panic path on *any* input, so both
        // lookups stay fallible and degrade to "blank line".
        let Some(&card) = tokens.first() else {
            continue;
        };
        let Some(kind) = card.chars().next() else {
            continue;
        };
        let err = |message: String| ParseError { line, message };
        match kind.to_ascii_uppercase() {
            'R' | 'C' | 'L' => {
                if tokens.len() != 4 {
                    return Err(err(format!(
                        "{card}: expected `<name> <node+> <node-> <value>`"
                    )));
                }
                let a = node(&mut ckt, tokens[1]);
                let b = node(&mut ckt, tokens[2]);
                let v = parse_value(tokens[3])
                    .ok_or_else(|| err(format!("{card}: bad value `{}`", tokens[3])))?;
                match kind.to_ascii_uppercase() {
                    'R' => ckt.add_resistor(card, a, b, v),
                    'C' => ckt.add_capacitor(card, a, b, v),
                    _ => ckt.add_inductor(card, a, b, v),
                }
            }
            'K' => {
                if tokens.len() != 4 {
                    return Err(err(format!("{card}: expected `<name> <L1> <L2> <k>`")));
                }
                let k = parse_value(tokens[3])
                    .ok_or_else(|| err(format!("{card}: bad coefficient `{}`", tokens[3])))?;
                ckt.add_mutual(card, tokens[1], tokens[2], k);
            }
            'G' => {
                if tokens.len() != 6 {
                    return Err(err(format!(
                        "{card}: expected `<name> <out+> <out-> <ctrl+> <ctrl-> <gm>`"
                    )));
                }
                let oa = node(&mut ckt, tokens[1]);
                let ob = node(&mut ckt, tokens[2]);
                let cp = node(&mut ckt, tokens[3]);
                let cm = node(&mut ckt, tokens[4]);
                let gm = parse_value(tokens[5])
                    .ok_or_else(|| err(format!("{card}: bad value `{}`", tokens[5])))?;
                ckt.add_vccs(card, oa, ob, cp, cm, gm);
            }
            'P' => {
                if tokens.len() != 3 {
                    return Err(err(format!("{card}: expected `<name> <node+> <node->`")));
                }
                let plus = node(&mut ckt, tokens[1]);
                let minus = node(&mut ckt, tokens[2]);
                ckt.add_port(card, plus, minus);
            }
            _ => {
                return Err(err(format!("unrecognized card `{card}`")));
            }
        }
    }
    Ok((ckt, names))
}

/// Parses a SPICE number with optional magnitude suffix.
///
/// Returns `None` on malformed input. Accepts negative values (synthesized
/// circuits may contain them).
pub fn parse_value(token: &str) -> Option<f64> {
    let t = token.to_ascii_lowercase();
    let (mantissa, mult) = if let Some(stripped) = t.strip_suffix("meg") {
        (stripped, 1e6)
    } else if let Some(stripped) = t.strip_suffix('f') {
        (stripped, 1e-15)
    } else if let Some(stripped) = t.strip_suffix('p') {
        (stripped, 1e-12)
    } else if let Some(stripped) = t.strip_suffix('n') {
        (stripped, 1e-9)
    } else if let Some(stripped) = t.strip_suffix('u') {
        (stripped, 1e-6)
    } else if let Some(stripped) = t.strip_suffix('m') {
        (stripped, 1e-3)
    } else if let Some(stripped) = t.strip_suffix('k') {
        (stripped, 1e3)
    } else if let Some(stripped) = t.strip_suffix('g') {
        (stripped, 1e9)
    } else if let Some(stripped) = t.strip_suffix('t') {
        (stripped, 1e12)
    } else {
        (t.as_str(), 1.0)
    };
    mantissa.parse::<f64>().ok().map(|v| v * mult)
}

/// A node as the writers spell it: ground `0`, a subcircuit pin by its
/// port's name, or `n<k>`.
#[derive(Clone, Copy)]
enum NodeName<'a> {
    Ground,
    Pin(&'a str),
    Index(usize),
}

impl fmt::Display for NodeName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeName::Ground => f.write_str("0"),
            NodeName::Pin(name) => f.write_str(name),
            NodeName::Index(n) => write!(f, "n{n}"),
        }
    }
}

/// Writes one line per element of `ckt` into `out`, spelling node `n` as
/// `node(n)`: the card syntax both writers share.
fn write_elements<'a>(out: &mut String, ckt: &Circuit, node: impl Fn(usize) -> NodeName<'a>) {
    for e in ckt.elements() {
        // Writing to a `String` cannot fail.
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
            Element::Mutual { name, l1, l2, k } => writeln!(out, "{name} {l1} {l2} {k:.12e}"),
            Element::Vccs {
                name,
                out_a,
                out_b,
                cp,
                cm,
                gm,
            } => writeln!(
                out,
                "{name} {} {} {} {} {gm:e}",
                node(*out_a),
                node(*out_b),
                node(*cp),
                node(*cm)
            ),
        };
    }
}

/// A `String` sized for the canonical text of `ckt` (about 40 bytes a
/// card), so writing it rarely reallocates.
fn text_buffer(ckt: &Circuit) -> String {
    String::with_capacity(64 + 40 * (ckt.elements().len() + ckt.ports().len()))
}

/// Writes a circuit as a SPICE `.subckt` block whose pin list is the
/// circuit's ports (in order), ready to drop into a standard simulator —
/// the delivery format for synthesized reduced circuits (§6).
///
/// Internal nodes are written as `n<k>`; ground stays `0` (global).
pub fn to_spice_subckt(ckt: &Circuit, name: &str) -> String {
    let ports = ckt.ports();
    // A port node takes the name of the first port whose plus terminal
    // it is.
    let mut pins: Vec<Option<&str>> = vec![None; ckt.num_nodes()];
    for p in ports.iter().rev() {
        pins[p.plus] = Some(&p.name);
    }
    let mut out = text_buffer(ckt);
    let _ = write!(out, ".subckt {name}");
    for p in ports {
        out.push(' ');
        out.push_str(&p.name);
    }
    out.push('\n');
    write_elements(&mut out, ckt, |n| match (n, pins[n]) {
        (0, _) => NodeName::Ground,
        (_, Some(pin)) => NodeName::Pin(pin),
        (_, None) => NodeName::Index(n),
    });
    let _ = writeln!(out, ".ends {name}");
    out
}

/// Writes a circuit back out in the dialect [`parse_spice`] reads.
///
/// Node indices are written as `n<k>` (ground as `0`), so the output
/// round-trips through the parser up to node naming.
pub fn to_spice(ckt: &Circuit) -> String {
    let node = |n: usize| match n {
        0 => NodeName::Ground,
        _ => NodeName::Index(n),
    };
    let mut out = text_buffer(ckt);
    out.push_str("* netlist written by mpvl-circuit\n");
    write_elements(&mut out, ckt, node);
    for p in ckt.ports() {
        let _ = writeln!(out, "{} {} {}", p.name, node(p.plus), node(p.minus));
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_la::Complex64;

    #[test]
    fn parses_values_with_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("2.5n"), Some(2.5e-9));
        assert_eq!(parse_value("3meg"), Some(3e6));
        assert_eq!(parse_value("10"), Some(10.0));
        assert_eq!(parse_value("-4.7p"), Some(-4.7e-12));
        assert_eq!(parse_value("1e-6"), Some(1e-6));
        assert_eq!(parse_value("1f"), Some(1e-15));
        assert_eq!(parse_value("abc"), None);
        assert_eq!(parse_value("1x"), None);
    }

    #[test]
    fn parses_simple_netlist() {
        let (ckt, names) = parse_spice(
            "* comment
             R1 a b 100 ; trailing comment
             C1 b gnd 1u
             Pp a 0
             .end
             R999 ignored after end 1",
        )
        .unwrap();
        assert_eq!(ckt.element_counts(), (1, 1, 0, 0));
        assert_eq!(ckt.num_ports(), 1);
        assert_eq!(names.len(), 2);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn parses_coupled_inductors() {
        let (ckt, _) = parse_spice(
            "L1 a 0 10n
             L2 b 0 10n
             K1 L1 L2 0.8
             C1 a b 1p
             Pa a 0
             Pb b 0",
        )
        .unwrap();
        assert_eq!(ckt.element_counts(), (0, 1, 2, 1));
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn reports_line_numbers() {
        let e = parse_spice("R1 a b 1k\nXfoo 1 2 3").unwrap_err();
        assert_eq!(e.line, 2);
        let e2 = parse_spice("R1 a b").unwrap_err();
        assert_eq!(e2.line, 1);
        let e3 = parse_spice("C1 a 0 zzz").unwrap_err();
        assert!(e3.message.contains("bad value"));
    }

    #[test]
    fn roundtrip_preserves_transfer_function() {
        let (ckt, _) = parse_spice(
            "R1 in mid 1k
             C1 mid 0 1n
             R2 mid out 2k
             C2 out 0 2n
             Pin in 0
             Pout out 0",
        )
        .unwrap();
        let text = to_spice(&ckt);
        let (ckt2, _) = parse_spice(&text).unwrap();
        let s1 = crate::MnaSystem::assemble(&ckt).unwrap();
        let s2 = crate::MnaSystem::assemble(&ckt2).unwrap();
        let s = Complex64::new(0.0, 1e6);
        let z1 = s1.dense_z(s).unwrap();
        let z2 = s2.dense_z(s).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((z1[(i, j)] - z2[(i, j)]).abs() < 1e-9 * z1[(i, j)].abs());
            }
        }
    }

    #[test]
    fn subckt_block_has_pins_and_terminator() {
        let (ckt, _) = parse_spice(
            "R1 in out 1k
             C1 out 0 1n
             Pin in 0
             Pout out 0",
        )
        .unwrap();
        let text = to_spice_subckt(&ckt, "rom");
        assert!(text.starts_with(".subckt rom Pin Pout\n"));
        assert!(text.ends_with(".ends rom\n"));
        // Port nodes use the pin names.
        assert!(text.contains("R1 Pin Pout"));
        assert!(text.contains("C1 Pout 0"));
    }

    #[test]
    fn parses_vccs_cards() {
        let (ckt, _) = parse_spice(
            "R1 in mid 200
             C1 mid 0 1p
             Gm 0 out mid 0 20m
             R2 out 0 1k
             Pin in 0
             Pout out 0",
        )
        .unwrap();
        assert_eq!(ckt.vccs_count(), 1);
        assert!(!ckt.is_symmetric());
        assert!(ckt.validate().is_ok());
        match ckt
            .elements()
            .iter()
            .find(|e| matches!(e, Element::Vccs { .. }))
            .unwrap()
        {
            Element::Vccs { gm, out_a, .. } => {
                assert!((gm - 20e-3).abs() < 1e-15);
                assert_eq!(*out_a, 0);
            }
            _ => unreachable!(),
        }
        // Round-trip through the writer.
        let text = to_spice(&ckt);
        let (ckt2, _) = parse_spice(&text).unwrap();
        assert_eq!(ckt2.vccs_count(), 1);
        let s1 = crate::MnaSystem::assemble(&ckt).unwrap();
        let s2 = crate::MnaSystem::assemble(&ckt2).unwrap();
        let s = Complex64::new(0.0, 1e8);
        let z1 = s1.dense_z(s).unwrap();
        let z2 = s2.dense_z(s).unwrap();
        assert!((z1[(1, 0)] - z2[(1, 0)]).abs() < 1e-9 * z1[(1, 0)].abs());
    }

    #[test]
    fn vccs_card_arity_checked() {
        let e = parse_spice("G1 a b c 1m").unwrap_err();
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn negative_values_roundtrip() {
        // Synthesized circuits can carry negative elements.
        let (ckt, _) = parse_spice("R1 a 0 -50\nC1 a 0 -1p\nPa a 0").unwrap();
        match &ckt.elements()[0] {
            Element::Resistor { ohms, .. } => assert_eq!(*ohms, -50.0),
            other => panic!("unexpected {other:?}"),
        }
        let text = to_spice(&ckt);
        assert!(text.contains("-5"));
    }
}
