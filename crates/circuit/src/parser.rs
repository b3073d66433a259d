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
use std::hash::{Hash, Hasher};

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
/// Returns the circuit and the node-name table (`name → index`, names
/// lowercased).
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
    let mut nodes = NodeTable::for_text(text);
    let ckt = parse_with(text, &mut nodes)?;
    let names = nodes
        .0
        .into_iter()
        .map(|(name, n)| (name.0.to_ascii_lowercase(), n))
        .collect();
    Ok((ckt, names))
}

/// [`parse_spice`]'s circuit, without building the node-name table.
///
/// # Errors
///
/// Exactly those of [`parse_spice`].
pub fn parse_spice_circuit(text: &str) -> Result<Circuit, ParseError> {
    parse_with(text, &mut NodeTable::for_text(text))
}

/// Node names seen so far, borrowed from the text, compared and hashed
/// ignoring ASCII case. The names come from outside the program, so the
/// table keeps the standard keyed hasher.
struct NodeTable<'a>(HashMap<Caseless<'a>, usize>);

impl<'a> NodeTable<'a> {
    /// A table sized for a netlist of `text`'s length, at about one
    /// new node per 64 bytes, so it rarely grows.
    fn for_text(text: &str) -> Self {
        NodeTable(HashMap::with_capacity(text.len() / 64))
    }

    /// The index of node `token`: ground for `0`/`gnd`, else the index
    /// the name got when first seen (a fresh node then).
    fn node(&mut self, ckt: &mut Circuit, token: &'a str) -> usize {
        if token == "0" || token.eq_ignore_ascii_case("gnd") {
            return 0;
        }
        *self
            .0
            .entry(Caseless(token))
            .or_insert_with(|| ckt.add_node())
    }
}

/// A name that equals any other spelling of it in ASCII case.
#[derive(Clone, Copy)]
struct Caseless<'a>(&'a str);

impl PartialEq for Caseless<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 || self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Caseless<'_> {}

impl Hash for Caseless<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Whole words of the name with `A..=Z` mapped to `a..=z`: its
        // 8-byte chunks with the last one overlapping the one before, or
        // for a shorter name two overlapping halves or three bytes.
        let b = self.0.as_bytes();
        let n = b.len();
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        let half =
            |i: usize| u64::from(u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes")));
        let last = if n >= 8 {
            for i in (0..n - 8).step_by(8) {
                state.write_u64(ascii_lower(word(i)));
            }
            word(n - 8)
        } else if n >= 4 {
            half(0) | half(n - 4) << 32
        } else if n > 0 {
            u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16
        } else {
            0
        };
        state.write_u64(ascii_lower(last) ^ (n as u64) << 56);
    }
}

/// `u64::from_le_bytes(b.map(|c| c.to_ascii_lowercase()))` for the bytes
/// `b` of `x`.
fn ascii_lower(x: u64) -> u64 {
    const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HI: u64 = 0x8080_8080_8080_8080;
    let lo7 = x & LO7;
    // Bit 7 of a byte is set when its low seven bits are `>= b'A'`, and
    // when they are `> b'Z'`; neither sum carries into the next byte.
    let ge_a = lo7 + 0x3f3f_3f3f_3f3f_3f3f;
    let gt_z = lo7 + 0x2525_2525_2525_2525;
    let upper = ge_a & !gt_z & !x & HI;
    x | (upper >> 2)
}

/// Most tokens a card has (a `G` card).
const MAX_TOKENS: usize = 6;

/// The one parse walk behind [`parse_spice`] and
/// [`parse_spice_circuit`]: a line at a time, its tokens split in place.
fn parse_with<'a>(text: &'a str, nodes: &mut NodeTable<'a>) -> Result<Circuit, ParseError> {
    let mut ckt = Circuit::new();
    let mut tokens = [""; MAX_TOKENS];
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let count = split_tokens(raw, &mut tokens);
        let card = tokens[0];
        // Tokens are never empty, but a parser must have no panic path
        // on any input, so an empty first token reads as a blank line.
        let Some(kind) = card.as_bytes().first().map(u8::to_ascii_uppercase) else {
            continue;
        };
        if count == 0 || kind == b'*' {
            continue;
        }
        if count == 1 && card.eq_ignore_ascii_case(".end") {
            break;
        }
        let err = |message: String| ParseError { line, message };
        match kind {
            b'R' | b'C' | b'L' => {
                if count != 4 {
                    return Err(err(format!(
                        "{card}: expected `<name> <node+> <node-> <value>`"
                    )));
                }
                let a = nodes.node(&mut ckt, tokens[1]);
                let b = nodes.node(&mut ckt, tokens[2]);
                let v = parse_value(tokens[3])
                    .ok_or_else(|| err(format!("{card}: bad value `{}`", tokens[3])))?;
                match kind {
                    b'R' => ckt.add_resistor(card, a, b, v),
                    b'C' => ckt.add_capacitor(card, a, b, v),
                    _ => ckt.add_inductor(card, a, b, v),
                }
            }
            b'K' => {
                if count != 4 {
                    return Err(err(format!("{card}: expected `<name> <L1> <L2> <k>`")));
                }
                let k = parse_value(tokens[3])
                    .ok_or_else(|| err(format!("{card}: bad coefficient `{}`", tokens[3])))?;
                ckt.add_mutual(card, tokens[1], tokens[2], k);
            }
            b'G' => {
                if count != 6 {
                    return Err(err(format!(
                        "{card}: expected `<name> <out+> <out-> <ctrl+> <ctrl-> <gm>`"
                    )));
                }
                let oa = nodes.node(&mut ckt, tokens[1]);
                let ob = nodes.node(&mut ckt, tokens[2]);
                let cp = nodes.node(&mut ckt, tokens[3]);
                let cm = nodes.node(&mut ckt, tokens[4]);
                let gm = parse_value(tokens[5])
                    .ok_or_else(|| err(format!("{card}: bad value `{}`", tokens[5])))?;
                ckt.add_vccs(card, oa, ob, cp, cm, gm);
            }
            b'P' => {
                if count != 3 {
                    return Err(err(format!("{card}: expected `<name> <node+> <node->`")));
                }
                let plus = nodes.node(&mut ckt, tokens[1]);
                let minus = nodes.node(&mut ckt, tokens[2]);
                ckt.add_port(card, plus, minus);
            }
            _ => {
                return Err(err(format!("unrecognized card `{card}`")));
            }
        }
    }
    Ok(ckt)
}

/// Splits `line` before its first `;` at whitespace, as
/// `str::split_whitespace` does; stores the first [`MAX_TOKENS`] tokens
/// in `tokens` and returns how many there are. ASCII is split by bytes
/// in one pass; a line with any other character is handed whole to
/// `split_whitespace`, for the Unicode spaces.
fn split_tokens<'a>(line: &'a str, tokens: &mut [&'a str; MAX_TOKENS]) -> usize {
    let mut count = 0;
    let mut push = |count: &mut usize, token: &'a str| {
        if let Some(slot) = tokens.get_mut(*count) {
            *slot = token;
        }
        *count += 1;
    };
    // The ASCII characters `char::is_whitespace` accepts.
    let space = |b: u8| matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r');
    let bytes = line.as_bytes();
    let mut i = 0;
    loop {
        while i < bytes.len() && space(bytes[i]) {
            i += 1;
        }
        if i == bytes.len() || bytes[i] == b';' {
            return count;
        }
        let start = i;
        while i < bytes.len() && !space(bytes[i]) && bytes[i] != b';' {
            if !bytes[i].is_ascii() {
                let code = line.split(';').next().unwrap_or("");
                let mut count = 0;
                code.split_whitespace().for_each(|t| push(&mut count, t));
                return count;
            }
            i += 1;
        }
        push(&mut count, &line[start..i]);
    }
}

/// Parses a SPICE number with optional magnitude suffix (any case).
///
/// Returns `None` on malformed input. Accepts negative values (synthesized
/// circuits may contain them).
pub fn parse_value(token: &str) -> Option<f64> {
    let bytes = token.as_bytes();
    let suffix = |len: usize, mult: f64| Some((&token[..token.len() - len], mult));
    let split = if bytes.len() >= 3 && bytes[bytes.len() - 3..].eq_ignore_ascii_case(b"meg") {
        suffix(3, 1e6)
    } else {
        match bytes.last().map(u8::to_ascii_lowercase) {
            Some(b'f') => suffix(1, 1e-15),
            Some(b'p') => suffix(1, 1e-12),
            Some(b'n') => suffix(1, 1e-9),
            Some(b'u') => suffix(1, 1e-6),
            Some(b'm') => suffix(1, 1e-3),
            Some(b'k') => suffix(1, 1e3),
            Some(b'g') => suffix(1, 1e9),
            Some(b't') => suffix(1, 1e12),
            _ => None,
        }
    };
    let (mantissa, mult) = split.unwrap_or((token, 1.0));
    // `f64::from_str` reads `e`/`E`, `inf` and `nan` in any case, so the
    // mantissa needs no lowercasing.
    mantissa.parse::<f64>().ok().map(|v| v * mult)
}

/// The circuit `parse_spice(&to_spice(&ckt)).0` returns, without writing
/// or parsing text: nodes renumbered by first appearance in the
/// canonical text (element cards in order, then ports; ground stays
/// `0`, unreferenced nodes are dropped) and mutual coefficients rounded
/// through `{k:.12e}`. Non-finite values, which have no canonical
/// spelling the parser reads back, are kept as they are, for
/// [`Circuit::validate`] to reject.
pub fn canonical_circuit(mut ckt: Circuit) -> Circuit {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; ckt.num_nodes.max(1)];
    index[0] = 0;
    let mut next = 1;
    let mut renumber = |n: &mut usize| {
        if index[*n] == UNSEEN {
            index[*n] = next;
            next += 1;
        }
        *n = index[*n];
    };
    let mut text = String::new();
    for e in &mut ckt.elements {
        match e {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. } => {
                renumber(a);
                renumber(b);
            }
            Element::Mutual { k, .. } => {
                text.clear();
                let _ = write!(text, "{k:.12e}");
                *k = parse_value(&text).unwrap_or(*k);
            }
            Element::Vccs {
                out_a,
                out_b,
                cp,
                cm,
                ..
            } => {
                for n in [out_a, out_b, cp, cm] {
                    renumber(n);
                }
            }
        }
    }
    for p in &mut ckt.ports {
        renumber(&mut p.plus);
        renumber(&mut p.minus);
    }
    ckt.num_nodes = next;
    ckt
}

/// A node as the writers spell it: ground `0`, a subcircuit pin by its
/// port's name, or `n<k>`.
#[derive(Clone, Copy)]
enum NodeName<'a> {
    Ground,
    Pin(&'a str),
    Index(usize),
}

impl NodeName<'_> {
    /// Appends the spelling, after a space.
    fn push_to(self, out: &mut String) {
        out.push(' ');
        match self {
            NodeName::Ground => out.push('0'),
            NodeName::Pin(name) => out.push_str(name),
            NodeName::Index(n) => {
                out.push('n');
                push_decimal(out, n);
            }
        }
    }
}

/// Appends `n` in decimal, as `{n}` writes it.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes one line per element of `ckt` into `out`, spelling node `n` as
/// `node(n)`: the card syntax both writers share. Only the values go
/// through `fmt`.
fn write_elements<'a>(out: &mut String, ckt: &Circuit, node: impl Fn(usize) -> NodeName<'a>) {
    for e in ckt.elements() {
        out.push_str(e.name());
        // Writing to a `String` cannot fail.
        let _ = match e {
            Element::Resistor { a, b, ohms: v, .. }
            | Element::Capacitor {
                a, b, farads: v, ..
            }
            | Element::Inductor {
                a, b, henries: v, ..
            } => {
                node(*a).push_to(out);
                node(*b).push_to(out);
                writeln!(out, " {v:e}")
            }
            Element::Mutual { l1, l2, k, .. } => {
                for l in [l1, l2] {
                    out.push(' ');
                    out.push_str(l);
                }
                writeln!(out, " {k:.12e}")
            }
            Element::Vccs {
                out_a,
                out_b,
                cp,
                cm,
                gm,
                ..
            } => {
                for n in [out_a, out_b, cp, cm] {
                    node(*n).push_to(out);
                }
                writeln!(out, " {gm:e}")
            }
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
        out.push_str(&p.name);
        node(p.plus).push_to(&mut out);
        node(p.minus).push_to(&mut out);
        out.push('\n');
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_la::Complex64;

    #[test]
    fn ascii_lower_lowercases_each_byte_alone() {
        for b in 0..=255u8 {
            for lane in 0..8 {
                let mut bytes = *b"xY_9\x80Mz@";
                bytes[lane] = b;
                assert_eq!(
                    ascii_lower(u64::from_le_bytes(bytes)),
                    u64::from_le_bytes(bytes.map(|c| c.to_ascii_lowercase())),
                    "byte {b:#04x} in lane {lane}"
                );
            }
        }
    }

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
