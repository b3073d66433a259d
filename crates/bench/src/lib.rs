//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §3 for the index), printing an aligned table to
//! stdout and writing a CSV under `target/figures/` for plotting.

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

    #[test]
    fn rel_err_basics() {
        use mpvl_la::Complex64;
        let a = Complex64::new(1.1, 0.0);
        let b = Complex64::new(1.0, 0.0);
        assert!((rel_err(a, b) - 0.1).abs() < 1e-12);
    }
}
