//! Shared plumbing for the figure-regeneration and bench binaries.
//!
//! Each `fig*`/`ablation_*` binary under `src/bin/` regenerates one table
//! or figure of the paper (see `DESIGN.md` §3 for the index), printing an
//! aligned table to stdout and writing a CSV under `target/figures/` for
//! plotting. Each `bench_*` binary times its cases with
//! [`mpvl_testkit::bench::Bench`]; the six that guard a kernel in CI
//! check their gate on the cases they just recorded, through [`Gates`],
//! and exit nonzero when it fails.

use mpvl_testkit::bench::Bench;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Returns the output directory for figure CSVs, creating it if needed.
/// Anchored on [`mpvl_testkit::bench::target_dir`] so the binaries work
/// from any cwd.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn figures_dir() -> PathBuf {
    let dir = mpvl_testkit::bench::target_dir().join("figures");
    fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create figures dir {}: {e}", dir.display()));
    dir
}

/// Writes a CSV file with the given header and rows into
/// `<target>/figures/<name>.csv` and reports the path on stdout.
///
/// # Panics
///
/// Panics on I/O errors (benchmark binaries want loud failures).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<f64>]) {
    let path = figures_dir().join(format!("{name}.csv"));
    let mut f =
        fs::File::create(&path).unwrap_or_else(|e| panic!("create csv {}: {e}", path.display()));
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.12e}")).collect();
        writeln!(f, "{}", line.join(",")).expect("write row");
    }
    mpvl_obs::cprintln!("wrote {}", path.display());
}

/// Exports recorded observability data per the `MPVL_OBS` env knob
/// (see [`mpvl_obs::export_env`]) and reports where it went. Binaries
/// call this once, after their last workload; a no-op unless the user
/// opted in with `MPVL_OBS=json[:path]`.
pub fn export_obs() {
    match mpvl_obs::export_env() {
        Ok(Some(path)) => mpvl_obs::cprintln!("wrote obs export {}", path.display()),
        Ok(None) => {}
        Err(e) => mpvl_obs::ceprintln!("warning: obs export failed: {e}"),
    }
}

/// The CI gates of one bench binary, checked against the medians and
/// values its own [`Bench`] recorded — no second process reads the
/// JSON back.
pub struct Gates {
    suite: &'static str,
    failures: usize,
}

impl Gates {
    /// Gates over the cases of the bench suite named `suite`.
    pub fn new(suite: &'static str) -> Self {
        Gates { suite, failures: 0 }
    }

    /// Checks one gate: `check` gets the medians of `cases` in order (a
    /// [`Bench::push_value`] reads back as its value) and returns the
    /// `ok` line or the `FAIL` line. A missing case fails without
    /// calling `check`.
    pub fn check<const N: usize>(
        &mut self,
        bench: &Bench,
        cases: [&str; N],
        check: impl FnOnce([f64; N]) -> Result<String, String>,
    ) {
        match self.verdict(bench, cases, check) {
            Ok(line) => mpvl_obs::cprintln!("gate ok: {line}"),
            Err(line) => {
                mpvl_obs::ceprintln!("gate FAIL: {line}");
                self.failures += 1;
            }
        }
    }

    /// Reports that a gate checks a weaker bound on this machine, and why.
    pub fn skip(&self, why: &str) {
        mpvl_obs::cprintln!("gate SKIP: {why}");
    }

    /// Writes the bench JSON and the obs export, then exits nonzero if
    /// any gate failed: a failed run keeps its record for diagnosis.
    pub fn finish(self, bench: Bench) {
        bench.finish();
        export_obs();
        if self.failed() {
            mpvl_obs::ceprintln!("{} gate(s) failed", self.failures);
            std::process::exit(1);
        }
    }

    fn verdict<const N: usize>(
        &self,
        bench: &Bench,
        cases: [&str; N],
        check: impl FnOnce([f64; N]) -> Result<String, String>,
    ) -> Result<String, String> {
        let mut values = [0.0; N];
        for (value, name) in values.iter_mut().zip(cases) {
            *value = bench
                .median_of(name)
                .ok_or_else(|| format!("BENCH_{}.json has no result \"{name}\"", self.suite))?;
        }
        check(values)
    }

    fn failed(&self) -> bool {
        self.failures > 0
    }
}

/// Median of a slice (sorted copy; the mean of the two middle values
/// for even lengths); 0 for empty input.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

/// Maximum of a slice; 0 for empty input.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Relative error between two complex numbers.
pub fn rel_err(a: mpvl_la::Complex64, b: mpvl_la::Complex64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

/// A `side × side` RC mesh: 0.05 Ω segments, 10 fF from every node to
/// ground and a port at one corner — the 2-D power-grid shape where the
/// fill-reducing ordering dominates a cold factor.
pub fn rc_grid(side: usize) -> mpvl_circuit::MnaSystem {
    use mpvl_circuit::{Circuit, MnaSystem, GROUND};
    let mut ckt = Circuit::new();
    let nodes: Vec<usize> = (0..side * side).map(|_| ckt.add_node()).collect();
    for r in 0..side {
        for c in 0..side {
            let a = nodes[r * side + c];
            if c + 1 < side {
                ckt.add_resistor(&format!("Rh{r}_{c}"), a, nodes[r * side + c + 1], 0.05);
            }
            if r + 1 < side {
                ckt.add_resistor(&format!("Rv{r}_{c}"), a, nodes[(r + 1) * side + c], 0.05);
            }
            ckt.add_capacitor(&format!("C{r}_{c}"), a, GROUND, 10e-15);
        }
    }
    ckt.add_port("P0", nodes[0], GROUND);
    MnaSystem::assemble(&ckt).expect("valid circuit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }

    fn recorded() -> Bench {
        let mut bench = Bench::with_counts("gate_test", 0, 1);
        bench.push_value("fast", 1.0);
        bench.push_value("slow", 2.0);
        bench
    }

    fn faster([fast, slow]: [f64; 2]) -> Result<String, String> {
        if fast < slow {
            Ok(format!("{fast} < {slow}"))
        } else {
            Err(format!("{fast} is not below {slow}"))
        }
    }

    #[test]
    fn a_gate_passes_and_fails_on_the_recorded_values() {
        let bench = recorded();
        let gates = Gates::new("gate_test");
        assert_eq!(
            gates.verdict(&bench, ["fast", "slow"], faster),
            Ok("1 < 2".into())
        );
        assert_eq!(
            gates.verdict(&bench, ["slow", "fast"], faster),
            Err("2 is not below 1".into())
        );
    }

    #[test]
    fn a_missing_case_fails_naming_it() {
        let bench = recorded();
        let gates = Gates::new("gate_test");
        let verdict = gates.verdict(&bench, ["fast", "absent"], |_| -> Result<String, String> {
            panic!("check must not run without its inputs")
        });
        assert_eq!(
            verdict,
            Err("BENCH_gate_test.json has no result \"absent\"".into())
        );
    }

    #[test]
    fn any_failed_gate_fails_the_run() {
        let bench = recorded();
        let mut gates = Gates::new("gate_test");
        gates.check(&bench, ["fast", "slow"], faster);
        assert!(!gates.failed());
        gates.check(&bench, ["slow", "fast"], faster);
        gates.check(&bench, ["fast", "slow"], faster);
        assert!(gates.failed(), "a later pass must not clear a failure");
        let mut gates = Gates::new("gate_test");
        gates.check(&bench, ["absent"], |[_]| Ok(String::new()));
        assert!(gates.failed(), "a missing case fails the run");
    }

    #[test]
    fn rel_err_basics() {
        use mpvl_la::Complex64;
        let a = Complex64::new(1.1, 0.0);
        let b = Complex64::new(1.0, 0.0);
        assert!((rel_err(a, b) - 0.1).abs() < 1e-12);
    }
}
