//! Seeded SPICE text for the workloads.
//!
//! Every netlist is written here, not through `mpvl_circuit::to_spice`:
//! that writer copies generator port names such as `in` verbatim, and
//! the parser reads a card starting with `I` as unknown. Port cards
//! written here always carry a `P` prefix.
//!
//! The seed only moves element values (a uniform ±`jitter` factor on
//! every R, C and L) and, through [`Spelling`], the surface form of
//! the text. Topology and element order never depend on it.

use mpvl_circuit::{Circuit, Element};
use mpvl_testkit::SmallRng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// `nominal · (1 + jitter·u)` with `u` uniform in `[-1, 1)`.
pub fn jittered(rng: &mut SmallRng, nominal: f64, jitter: f64) -> f64 {
    nominal * (1.0 + jitter * (2.0 * rng.unit_f64() - 1.0))
}

/// Parameters of the RC power-grid mesh ([`power_grid`]).
#[derive(Debug, Clone)]
pub struct GridParams {
    /// Nodes per side; the mesh has `side²` unknowns.
    pub side: usize,
    /// Pads per side; the pad lattice has `pads²` ports.
    pub pads: usize,
    /// Nominal resistance of one mesh segment, ohms.
    pub seg_ohms: f64,
    /// Nominal capacitance from every node to ground, farads.
    pub node_farads: f64,
    /// Resistance from every pad to ground, ohms (not jittered).
    pub pad_ohms: f64,
    /// Relative jitter applied to every segment and node cap.
    pub jitter: f64,
}

impl GridParams {
    /// The benchmark's large case: 317×317 nodes (100,489 unknowns) and
    /// an 8×8 pad lattice (64 ports).
    pub fn full() -> Self {
        GridParams {
            side: 317,
            pads: 8,
            seg_ohms: 0.05,
            node_farads: 10e-15,
            pad_ohms: 0.5,
            jitter: 0.1,
        }
    }

    /// Unknowns of the assembled system.
    pub fn unknowns(&self) -> usize {
        self.side * self.side
    }

    /// Mesh coordinates of pad `i` along one side: evenly spread, away
    /// from the edges.
    fn pad_coord(&self, i: usize) -> usize {
        (2 * i + 1) * self.side / (2 * self.pads)
    }
}

/// An RC power-grid mesh: `side × side` nodes joined by jittered
/// segments, a jittered cap from every node to ground, and a `pads ×
/// pads` lattice of pads tied to ground through `pad_ohms`. Each pad is
/// a port, so `G` is positive definite and factors without a shift.
///
/// # Panics
///
/// Panics unless `1 <= pads <= side`.
pub fn power_grid(p: &GridParams, rng: &mut SmallRng) -> String {
    assert!(
        p.pads >= 1 && p.pads <= p.side,
        "pad lattice must fit the mesh"
    );
    let n = p.side;
    let mut out = String::with_capacity(n * n * 80);
    let _ = writeln!(out, "* RC power grid {n}x{n}, {0}x{0} pads", p.pads);
    let mut k = 0usize;
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                let v = jittered(rng, p.seg_ohms, p.jitter);
                let _ = writeln!(out, "R{k} n{r}_{c} n{r}_{} {v:e}", c + 1);
                k += 1;
            }
            if r + 1 < n {
                let v = jittered(rng, p.seg_ohms, p.jitter);
                let _ = writeln!(out, "R{k} n{r}_{c} n{}_{c} {v:e}", r + 1);
                k += 1;
            }
            let v = jittered(rng, p.node_farads, p.jitter);
            let _ = writeln!(out, "C{k} n{r}_{c} 0 {v:e}");
            k += 1;
        }
    }
    for i in 0..p.pads {
        for j in 0..p.pads {
            let (r, c) = (p.pad_coord(i), p.pad_coord(j));
            let _ = writeln!(out, "Rpad{i}_{j} n{r}_{c} 0 {:e}", p.pad_ohms);
            let _ = writeln!(out, "Ppad{i}_{j} n{r}_{c} 0");
        }
    }
    out.push_str(".end\n");
    out
}

/// Mesh coordinates of every unknown of a parsed [`power_grid`], from
/// the parser's name table: node `n<r>_<c>` is unknown `index − 1`.
/// `None` when a name is not a mesh node or an unknown is missing.
pub fn grid_coords(names: &HashMap<String, usize>, unknowns: usize) -> Option<Vec<[usize; 2]>> {
    let mut coords = vec![None; unknowns];
    for (name, &node) in names {
        let (r, c) = name.strip_prefix('n')?.split_once('_')?;
        *coords.get_mut(node.checked_sub(1)?)? = Some([r.parse().ok()?, c.parse().ok()?]);
    }
    coords.into_iter().collect()
}

/// Surface form of a netlist. Every spelling of one circuit parses to
/// the same canonical text, hence the same registry address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spelling {
    /// Lower-case `n<k>` node names, no comments.
    Plain,
    /// Other node names (`NET_<k>_X`, upper case), comment lines, a
    /// `GND` ground and an upper-case `.END`.
    Respelled,
}

/// Writes `ckt` as SPICE text with every R, C and L value multiplied
/// by a seeded jitter factor. Mutual couplings keep their `k`, so the
/// inductance matrix stays positive definite. Ports are written as
/// `P<name>` cards in circuit order.
pub fn write_jittered(ckt: &Circuit, rng: &mut SmallRng, jitter: f64) -> JitteredNetlist {
    let values: Vec<f64> = ckt
        .elements()
        .iter()
        .map(|e| match e {
            Element::Resistor { ohms: v, .. }
            | Element::Capacitor { farads: v, .. }
            | Element::Inductor { henries: v, .. } => jittered(rng, *v, jitter),
            Element::Mutual { k, .. } => *k,
            Element::Vccs { gm, .. } => *gm,
        })
        .collect();
    JitteredNetlist {
        ckt: ckt.clone(),
        values,
    }
}

/// A circuit with fixed jittered values, printable in any [`Spelling`].
#[derive(Debug, Clone)]
pub struct JitteredNetlist {
    ckt: Circuit,
    values: Vec<f64>,
}

impl JitteredNetlist {
    /// The netlist text in the given spelling.
    pub fn text(&self, spelling: Spelling) -> String {
        let respelled = spelling == Spelling::Respelled;
        let node = |n: usize| -> String {
            match (n, respelled) {
                (0, false) => "0".into(),
                (0, true) => "GND".into(),
                (n, false) => format!("n{n}"),
                (n, true) => format!("NET_{n}_X"),
            }
        };
        let mut out = String::new();
        if respelled {
            out.push_str("* respelled copy: other node names, comments, case\n");
        }
        for (i, (e, v)) in self.ckt.elements().iter().zip(&self.values).enumerate() {
            if respelled && i % 64 == 0 {
                let _ = writeln!(out, "; element block {}", i / 64);
            }
            let _ = match e {
                Element::Resistor { name, a, b, .. }
                | Element::Capacitor { name, a, b, .. }
                | Element::Inductor { name, a, b, .. } => {
                    writeln!(out, "{name} {} {} {v:e}", node(*a), node(*b))
                }
                Element::Mutual { name, l1, l2, .. } => writeln!(out, "{name} {l1} {l2} {v:e}"),
                Element::Vccs {
                    name,
                    out_a,
                    out_b,
                    cp,
                    cm,
                    ..
                } => writeln!(
                    out,
                    "{name} {} {} {} {} {v:e}",
                    node(*out_a),
                    node(*out_b),
                    node(*cp),
                    node(*cm)
                ),
            };
        }
        for port in self.ckt.ports() {
            let _ = writeln!(
                out,
                "P{} {} {}",
                port.name,
                node(port.plus),
                node(port.minus)
            );
        }
        out.push_str(if respelled { ".END\n" } else { ".end\n" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::{package, rc_ladder, PackageParams};
    use mpvl_circuit::{parse_spice, to_spice, MnaSystem};
    use sympvl::{factor_target, FactorTarget, GFactor};

    fn small_grid() -> GridParams {
        GridParams {
            side: 24,
            pads: 3,
            ..GridParams::full()
        }
    }

    #[test]
    fn full_grid_has_1e5_unknowns_and_64_ports() {
        let p = GridParams::full();
        assert!(p.unknowns() >= 100_000);
        assert_eq!(p.pads * p.pads, 64);
        let text = power_grid(&p, &mut SmallRng::seed_from_u64(1));
        let (ckt, _) = parse_spice(&text).expect("grid parses");
        assert_eq!(ckt.num_ports(), 64);
        assert_eq!(ckt.num_nodes() - 1, p.unknowns());
    }

    #[test]
    fn grid_text_round_trips_through_the_parser() {
        let text = power_grid(&small_grid(), &mut SmallRng::seed_from_u64(3));
        let (ckt, _) = parse_spice(&text).expect("grid parses");
        let canonical = to_spice(&ckt);
        let (again, _) = parse_spice(&canonical).expect("canonical form parses");
        assert_eq!(to_spice(&again), canonical);
        assert_eq!(again.num_ports(), 9);
    }

    #[test]
    fn grid_factors_on_the_sparse_path() {
        let text = power_grid(&small_grid(), &mut SmallRng::seed_from_u64(5));
        let (ckt, _) = parse_spice(&text).unwrap();
        let sys = MnaSystem::assemble(&ckt).unwrap();
        let factor = factor_target(&sys, FactorTarget::Unshifted).unwrap();
        assert!(
            matches!(*factor, GFactor::Sparse { .. }),
            "a dense fallback at full size would need ~80 GB"
        );
        assert!(factor.is_identity_j(), "the pads make G positive definite");
    }

    #[test]
    fn seed_moves_values_only() {
        let a = power_grid(&small_grid(), &mut SmallRng::seed_from_u64(1));
        let b = power_grid(&small_grid(), &mut SmallRng::seed_from_u64(2));
        assert_ne!(a, b);
        let shape = |t: &str| -> Vec<String> {
            t.lines()
                .map(|l| l.rsplit_once(' ').map_or(l, |(head, _)| head).to_string())
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn spellings_share_one_canonical_form() {
        for ckt in [
            rc_ladder(12, 100.0, 1e-12),
            package(&PackageParams::default()),
        ] {
            let net = write_jittered(&ckt, &mut SmallRng::seed_from_u64(9), 0.1);
            let plain = net.text(Spelling::Plain);
            let respelled = net.text(Spelling::Respelled);
            assert_ne!(plain, respelled);
            let (a, _) = parse_spice(&plain).expect("plain parses");
            let (b, _) = parse_spice(&respelled).expect("respelled parses");
            assert_eq!(to_spice(&a), to_spice(&b));
            assert_eq!(a.num_ports(), ckt.num_ports());
        }
    }
}
