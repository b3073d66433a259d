//! The RLC netlist data model.
//!
//! A [`Circuit`] is a list of passive elements (resistors, capacitors,
//! inductors, mutual inductive couplings) between nodes, plus a list of
//! *ports* — the terminal pairs through which the paper's multi-port
//! transfer function `Z(s)` is defined (§2.1: excitation by current
//! sources, response = voltages across them, i.e. Z-parameters).
//!
//! Node `0` is the datum (ground) node, as in SPICE.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Index of a circuit node. Node `0` is ground.
pub type Node = usize;

/// The datum (ground) node.
pub const GROUND: Node = 0;

/// A passive two-terminal element or coupling.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Resistor of `ohms` between nodes `a` and `b`.
    Resistor {
        /// Element name (unique within its kind).
        name: String,
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms (positive).
        ohms: f64,
    },
    /// Capacitor of `farads` between nodes `a` and `b`.
    Capacitor {
        /// Element name.
        name: String,
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in farads (positive).
        farads: f64,
    },
    /// Inductor of `henries` between nodes `a` and `b`.
    Inductor {
        /// Element name (referenced by [`Element::Mutual`]).
        name: String,
        /// First terminal (current flows a → b through the inductor).
        a: Node,
        /// Second terminal.
        b: Node,
        /// Inductance in henries (positive).
        henries: f64,
    },
    /// Mutual coupling `k` between two named inductors (`|k| < 1`).
    Mutual {
        /// Element name.
        name: String,
        /// Name of the first coupled inductor.
        l1: String,
        /// Name of the second coupled inductor.
        l2: String,
        /// Coupling coefficient, `M = k √(L₁L₂)`.
        k: f64,
    },
    /// Voltage-controlled current source: injects
    /// `gm·(v(cp) − v(cm))` from `out_b` into `out_a`.
    ///
    /// An *active* element: it makes the MNA `G` matrix non-symmetric, so
    /// circuits containing one leave SyMPVL's scope (§2 assumes symmetric
    /// matrices) and require the general MPVL algorithm.
    Vccs {
        /// Element name.
        name: String,
        /// Current is injected into this node…
        out_a: Node,
        /// …and drawn from this node.
        out_b: Node,
        /// Positive controlling node.
        cp: Node,
        /// Negative controlling node.
        cm: Node,
        /// Transconductance, siemens (may be any finite nonzero value).
        gm: f64,
    },
}

impl Element {
    /// The element's name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::Mutual { name, .. }
            | Element::Vccs { name, .. } => name,
        }
    }
}

/// A port: a terminal pair excited by a current source, across which the
/// corresponding Z-parameter voltage is measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Positive terminal (current is injected here).
    pub plus: Node,
    /// Negative terminal (usually ground).
    pub minus: Node,
}

/// Structural class of a circuit (§2.2 of the paper), which decides both
/// the MNA formulation and the stability/passivity guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitClass {
    /// Resistors and capacitors only: `G`, `C` ⪰ 0, guaranteed passive ROM.
    Rc,
    /// Resistors and inductors only: after the §2.2 transformation,
    /// `G`, `C` ⪰ 0 and the ROM is guaranteed passive.
    Rl,
    /// Inductors and capacitors only: uses the `σ = s²` transformation.
    Lc,
    /// Full RLC: general symmetric (indefinite) matrices.
    Rlc,
}

impl fmt::Display for CircuitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CircuitClass::Rc => "RC",
            CircuitClass::Rl => "RL",
            CircuitClass::Lc => "LC",
            CircuitClass::Rlc => "RLC",
        };
        f.write_str(s)
    }
}

/// Errors produced while building or validating a [`Circuit`].
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// An element value was non-positive or non-finite.
    BadValue {
        /// The offending element name.
        element: String,
        /// The offending value.
        value: f64,
    },
    /// A mutual coupling coefficient was outside `(-1, 1)` or referenced
    /// an unknown/identical inductor.
    BadCoupling {
        /// The offending coupling name.
        element: String,
        /// Explanation.
        reason: String,
    },
    /// An element was connected to the same node on both terminals.
    ShortedElement {
        /// The offending element name.
        element: String,
    },
    /// A node index exceeded the declared node count.
    UnknownNode {
        /// The offending node index.
        node: Node,
    },
    /// Two elements of the same kind share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// The circuit declares no ports.
    NoPorts,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::BadValue { element, value } => {
                write!(f, "element {element} has non-positive value {value}")
            }
            CircuitError::BadCoupling { element, reason } => {
                write!(f, "coupling {element}: {reason}")
            }
            CircuitError::ShortedElement { element } => {
                write!(f, "element {element} connects a node to itself")
            }
            CircuitError::UnknownNode { node } => write!(f, "unknown node index {node}"),
            CircuitError::DuplicateName { name } => write!(f, "duplicate element name {name}"),
            CircuitError::NoPorts => write!(f, "circuit declares no ports"),
        }
    }
}

impl Error for CircuitError {}

/// An RLC multi-port circuit.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::Circuit;
///
/// // A one-port RC low-pass: port -> R -> C to ground.
/// let mut ckt = Circuit::new();
/// let n1 = ckt.add_node();
/// let n2 = ckt.add_node();
/// ckt.add_resistor("R1", n1, n2, 1.0e3);
/// ckt.add_capacitor("C1", n2, 0, 1.0e-9);
/// ckt.add_port("in", n1, 0);
/// assert_eq!(ckt.num_ports(), 1);
/// assert!(ckt.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Total node count including ground (node indices are `0..num_nodes`).
    pub(crate) num_nodes: usize,
    pub(crate) elements: Vec<Element>,
    pub(crate) ports: Vec<Port>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            num_nodes: 1,
            elements: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Adds a fresh node and returns its index.
    pub fn add_node(&mut self) -> Node {
        self.num_nodes += 1;
        self.num_nodes - 1
    }

    /// Ensures node indices up to and including `n` exist.
    pub fn ensure_node(&mut self, n: Node) {
        if n >= self.num_nodes {
            self.num_nodes = n + 1;
        }
    }

    /// Total node count, including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The declared ports, in order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// All elements, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Adds a resistor; grows the node set as needed.
    pub fn add_resistor(&mut self, name: &str, a: Node, b: Node, ohms: f64) {
        self.ensure_node(a);
        self.ensure_node(b);
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        });
    }

    /// Adds a capacitor; grows the node set as needed.
    pub fn add_capacitor(&mut self, name: &str, a: Node, b: Node, farads: f64) {
        self.ensure_node(a);
        self.ensure_node(b);
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        });
    }

    /// Adds an inductor; grows the node set as needed.
    pub fn add_inductor(&mut self, name: &str, a: Node, b: Node, henries: f64) {
        self.ensure_node(a);
        self.ensure_node(b);
        self.elements.push(Element::Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
        });
    }

    /// Adds a mutual coupling between two previously added inductors.
    pub fn add_mutual(&mut self, name: &str, l1: &str, l2: &str, k: f64) {
        self.elements.push(Element::Mutual {
            name: name.to_string(),
            l1: l1.to_string(),
            l2: l2.to_string(),
            k,
        });
    }

    /// Adds a voltage-controlled current source (`gm` in siemens):
    /// current `gm·(v(cp) − v(cm))` flows from `out_b` to `out_a`
    /// externally (i.e. is injected into `out_a`).
    ///
    /// Adding a VCCS makes the circuit *active*: `G` becomes
    /// non-symmetric, [`Circuit::is_symmetric`] turns false, and only the
    /// general (MPVL) reduction path applies.
    pub fn add_vccs(&mut self, name: &str, out_a: Node, out_b: Node, cp: Node, cm: Node, gm: f64) {
        self.ensure_node(out_a);
        self.ensure_node(out_b);
        self.ensure_node(cp);
        self.ensure_node(cm);
        self.elements.push(Element::Vccs {
            name: name.to_string(),
            out_a,
            out_b,
            cp,
            cm,
            gm,
        });
    }

    /// `true` when the circuit contains only reciprocal (RLCK) elements,
    /// i.e. its MNA matrices are symmetric and SyMPVL applies.
    pub fn is_symmetric(&self) -> bool {
        !self
            .elements
            .iter()
            .any(|e| matches!(e, Element::Vccs { .. }))
    }

    /// Declares a port between `plus` and `minus`.
    pub fn add_port(&mut self, name: &str, plus: Node, minus: Node) {
        self.ensure_node(plus);
        self.ensure_node(minus);
        self.ports.push(Port {
            name: name.to_string(),
            plus,
            minus,
        });
    }

    /// Counts of (resistors, capacitors, inductors, mutuals).
    pub fn element_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.elements {
            match e {
                Element::Resistor { .. } => c.0 += 1,
                Element::Capacitor { .. } => c.1 += 1,
                Element::Inductor { .. } => c.2 += 1,
                Element::Mutual { .. } => c.3 += 1,
                Element::Vccs { .. } => {}
            }
        }
        c
    }

    /// Number of VCCS (active) elements.
    pub fn vccs_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Vccs { .. }))
            .count()
    }

    /// Classifies the circuit per §2.2 of the paper. Active circuits
    /// (containing a VCCS) are always classed RLC: none of the symmetric
    /// special forms applies.
    pub fn classify(&self) -> CircuitClass {
        if !self.is_symmetric() {
            return CircuitClass::Rlc;
        }
        let (r, c, l, _) = self.element_counts();
        match (r > 0, c > 0, l > 0) {
            (_, true, false) => CircuitClass::Rc, // R-only degenerates to RC
            (true, false, true) => CircuitClass::Rl,
            (false, true, true) => CircuitClass::Lc,
            (true, false, false) => CircuitClass::Rc,
            (false, false, true) => CircuitClass::Rl, // L-only
            _ => CircuitClass::Rlc,
        }
    }

    /// Validates element values, node references, couplings and names.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found.
    pub fn validate(&self) -> Result<(), CircuitError> {
        self.validate_inner(true)
    }

    /// Like [`Circuit::validate`], but permits negative element values.
    ///
    /// Reduced circuits synthesized per §6 of the paper may contain
    /// negative-valued resistors and capacitors; as the paper notes, when
    /// the reduced model is stable and passive these do not affect
    /// simulation. Values must still be nonzero and finite.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found.
    pub fn validate_lenient(&self) -> Result<(), CircuitError> {
        self.validate_inner(false)
    }

    fn validate_inner(&self, require_positive: bool) -> Result<(), CircuitError> {
        let mut names: HashMap<&str, ()> = HashMap::new();
        let mut inductors: HashMap<&str, f64> = HashMap::new();
        for e in &self.elements {
            if names.insert(e.name(), ()).is_some() {
                return Err(CircuitError::DuplicateName {
                    name: e.name().to_string(),
                });
            }
            match e {
                Element::Resistor { name, a, b, ohms } => {
                    check_value(name, *ohms, require_positive)?;
                    check_branch(name, *a, *b, self.num_nodes)?;
                }
                Element::Capacitor { name, a, b, farads } => {
                    check_value(name, *farads, require_positive)?;
                    check_branch(name, *a, *b, self.num_nodes)?;
                }
                Element::Inductor {
                    name,
                    a,
                    b,
                    henries,
                } => {
                    check_value(name, *henries, require_positive)?;
                    check_branch(name, *a, *b, self.num_nodes)?;
                    inductors.insert(name, *henries);
                }
                Element::Mutual { .. } => {}
                Element::Vccs {
                    name,
                    out_a,
                    out_b,
                    cp,
                    cm,
                    gm,
                } => {
                    if !gm.is_finite() || *gm == 0.0 {
                        return Err(CircuitError::BadValue {
                            element: name.clone(),
                            value: *gm,
                        });
                    }
                    for &n in [out_a, out_b, cp, cm] {
                        if n >= self.num_nodes {
                            return Err(CircuitError::UnknownNode { node: n });
                        }
                    }
                    if out_a == out_b {
                        return Err(CircuitError::ShortedElement {
                            element: name.clone(),
                        });
                    }
                }
            }
        }
        for e in &self.elements {
            if let Element::Mutual { name, l1, l2, k } = e {
                if !k.is_finite() || k.abs() >= 1.0 || *k == 0.0 {
                    return Err(CircuitError::BadCoupling {
                        element: name.clone(),
                        reason: format!("coefficient {k} outside (-1, 1) \\ {{0}}"),
                    });
                }
                if l1 == l2 {
                    return Err(CircuitError::BadCoupling {
                        element: name.clone(),
                        reason: "couples an inductor to itself".to_string(),
                    });
                }
                for l in [l1, l2] {
                    if !inductors.contains_key(l.as_str()) {
                        return Err(CircuitError::BadCoupling {
                            element: name.clone(),
                            reason: format!("unknown inductor {l}"),
                        });
                    }
                }
            }
        }
        if self.ports.is_empty() {
            return Err(CircuitError::NoPorts);
        }
        for p in &self.ports {
            if p.plus >= self.num_nodes {
                return Err(CircuitError::UnknownNode { node: p.plus });
            }
            if p.minus >= self.num_nodes {
                return Err(CircuitError::UnknownNode { node: p.minus });
            }
        }
        Ok(())
    }
}

fn check_value(name: &str, v: f64, require_positive: bool) -> Result<(), CircuitError> {
    let ok = if require_positive {
        v > 0.0 && v.is_finite()
    } else {
        v != 0.0 && v.is_finite()
    };
    if ok {
        Ok(())
    } else {
        Err(CircuitError::BadValue {
            element: name.to_string(),
            value: v,
        })
    }
}

fn check_branch(name: &str, a: Node, b: Node, n: usize) -> Result<(), CircuitError> {
    if a == b {
        return Err(CircuitError::ShortedElement {
            element: name.to_string(),
        });
    }
    if a >= n {
        return Err(CircuitError::UnknownNode { node: a });
    }
    if b >= n {
        return Err(CircuitError::UnknownNode { node: b });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_one_port() -> Circuit {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_resistor("R1", n1, n2, 1e3);
        ckt.add_capacitor("C1", n2, GROUND, 1e-9);
        ckt.add_port("in", n1, GROUND);
        ckt
    }

    #[test]
    fn builds_and_validates() {
        let ckt = rc_one_port();
        assert_eq!(ckt.num_nodes(), 3);
        assert_eq!(ckt.num_ports(), 1);
        assert!(ckt.validate().is_ok());
        assert_eq!(ckt.element_counts(), (1, 1, 0, 0));
    }

    #[test]
    fn classification() {
        assert_eq!(rc_one_port().classify(), CircuitClass::Rc);
        let mut rl = Circuit::new();
        let n1 = rl.add_node();
        rl.add_resistor("R1", n1, GROUND, 1.0);
        rl.add_inductor("L1", n1, GROUND, 1e-9);
        rl.add_port("p", n1, GROUND);
        assert_eq!(rl.classify(), CircuitClass::Rl);
        let mut lc = Circuit::new();
        let n1 = lc.add_node();
        lc.add_inductor("L1", n1, GROUND, 1e-9);
        lc.add_capacitor("C1", n1, GROUND, 1e-12);
        lc.add_port("p", n1, GROUND);
        assert_eq!(lc.classify(), CircuitClass::Lc);
        let mut rlc = Circuit::new();
        let n1 = rlc.add_node();
        rlc.add_resistor("R1", n1, GROUND, 1.0);
        rlc.add_inductor("L1", n1, GROUND, 1e-9);
        rlc.add_capacitor("C1", n1, GROUND, 1e-12);
        rlc.add_port("p", n1, GROUND);
        assert_eq!(rlc.classify(), CircuitClass::Rlc);
    }

    #[test]
    fn rejects_bad_values() {
        let mut ckt = rc_one_port();
        ckt.add_resistor("R2", 1, 0, -5.0);
        assert!(matches!(ckt.validate(), Err(CircuitError::BadValue { .. })));
    }

    #[test]
    fn rejects_shorted_element() {
        let mut ckt = rc_one_port();
        ckt.add_capacitor("C2", 1, 1, 1e-12);
        assert!(matches!(
            ckt.validate(),
            Err(CircuitError::ShortedElement { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut ckt = rc_one_port();
        ckt.add_resistor("R1", 2, 0, 1.0);
        assert!(matches!(
            ckt.validate(),
            Err(CircuitError::DuplicateName { .. })
        ));
    }

    #[test]
    fn rejects_bad_coupling() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_inductor("L1", n1, GROUND, 1e-9);
        ckt.add_inductor("L2", n2, GROUND, 1e-9);
        ckt.add_port("p", n1, GROUND);
        let mut bad_k = ckt.clone();
        bad_k.add_mutual("K1", "L1", "L2", 1.5);
        assert!(matches!(
            bad_k.validate(),
            Err(CircuitError::BadCoupling { .. })
        ));
        let mut missing = ckt.clone();
        missing.add_mutual("K1", "L1", "L9", 0.5);
        assert!(matches!(
            missing.validate(),
            Err(CircuitError::BadCoupling { .. })
        ));
        let mut selfk = ckt;
        selfk.add_mutual("K1", "L1", "L1", 0.5);
        assert!(matches!(
            selfk.validate(),
            Err(CircuitError::BadCoupling { .. })
        ));
    }

    #[test]
    fn requires_ports() {
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        ckt.add_resistor("R1", n1, GROUND, 1.0);
        assert_eq!(ckt.validate(), Err(CircuitError::NoPorts));
    }

    #[test]
    fn ensure_node_grows() {
        let mut ckt = Circuit::new();
        ckt.add_resistor("R1", 5, 0, 1.0);
        assert_eq!(ckt.num_nodes(), 6);
    }
}
