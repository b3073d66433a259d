//! Netlist helpers shared by the service suites.

/// An `n`-section RC ladder from port node `in`: series `r`, shunt `c`.
pub fn ladder(n: usize, r: f64, c: f64) -> String {
    let mut s = String::new();
    for i in 1..=n {
        let prev = if i == 1 {
            "in".to_string()
        } else {
            format!("m{}", i - 1)
        };
        s.push_str(&format!("R{i} {prev} m{i} {r:e}\n"));
        s.push_str(&format!("C{i} m{i} 0 {c:e}\n"));
    }
    s.push_str("Pin in 0\n.end\n");
    s
}
