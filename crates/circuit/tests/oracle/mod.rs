//! The netlist parser as it stood before the single-walk rewrite:
//! `parse_spice`, `parse_value` and `to_spice` copied verbatim (but for
//! the writer's buffer size), kept as the oracle that `parser_oracle.rs`
//! checks the library's parser and writer against.

use mpvl_circuit::{Circuit, Element, ParseError};
use std::collections::HashMap;
use std::fmt::{self, Write};

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

/// A node as the writer spells it: ground `0` or `n<k>`.
#[derive(Clone, Copy)]
enum NodeName {
    Ground,
    Index(usize),
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeName::Ground => f.write_str("0"),
            NodeName::Index(n) => write!(f, "n{n}"),
        }
    }
}

/// Writes one line per element of `ckt` into `out`, spelling node `n` as
/// `node(n)`: the card syntax both writers share.
fn write_elements(out: &mut String, ckt: &Circuit, node: impl Fn(usize) -> NodeName) {
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

/// Writes a circuit back out in the dialect [`parse_spice`] reads.
///
/// Node indices are written as `n<k>` (ground as `0`), so the output
/// round-trips through the parser up to node naming.
pub fn to_spice(ckt: &Circuit) -> String {
    let node = |n: usize| match n {
        0 => NodeName::Ground,
        _ => NodeName::Index(n),
    };
    let mut out = String::new();
    out.push_str("* netlist written by mpvl-circuit\n");
    write_elements(&mut out, ckt, node);
    for p in ckt.ports() {
        let _ = writeln!(out, "{} {} {}", p.name, node(p.plus), node(p.minus));
    }
    out.push_str(".end\n");
    out
}
