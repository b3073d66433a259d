//! A criterion-free micro-bench harness.
//!
//! Each suite is a plain `cargo run --release` binary: build a
//! [`Bench`], time closures with [`Bench::bench`], and [`Bench::finish`]
//! writes machine-readable JSON to `<target dir>/bench/BENCH_<suite>.json`
//! (besides the aligned table printed as it goes). Every sample is one
//! timed call; the harness reports median, p90, min and mean wall-clock
//! seconds over N samples after a warmup.
//!
//! The output directory is resolved against `CARGO_TARGET_DIR` when set,
//! otherwise against the workspace root found from `CARGO_MANIFEST_DIR`
//! (so `cargo run -p mpvl-bench` works from any cwd), and only falls
//! back to the relative `target/bench` when neither is available (a
//! binary executed outside cargo).
//!
//! Knobs (for CI smoke runs): `MPVL_BENCH_SAMPLES` and
//! `MPVL_BENCH_WARMUP` override the per-suite defaults.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark's timing summary, in seconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `"ldlt_factor/1360"`.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Median of the samples.
    pub median_s: f64,
    /// 90th percentile of the samples.
    pub p90_s: f64,
    /// Fastest sample.
    pub min_s: f64,
    /// Mean of the samples.
    pub mean_s: f64,
}

/// A benchmark suite accumulating [`BenchResult`]s.
pub struct Bench {
    suite: String,
    warmup: usize,
    samples: usize,
    results: Vec<BenchResult>,
}

/// Resolves the cargo target directory: `$CARGO_TARGET_DIR` when set,
/// else `<workspace root>/target` (the workspace root is the closest
/// ancestor of `CARGO_MANIFEST_DIR` holding a `Cargo.lock`), else the
/// cwd-relative `target` as a last resort (a binary executed outside
/// cargo). Output-writing binaries anchor on this so running them from
/// any cwd lands artifacts in one place.
pub fn target_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        return PathBuf::from(dir);
    }
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let mut dir = PathBuf::from(manifest);
        loop {
            if dir.join("Cargo.lock").exists() {
                return dir.join("target");
            }
            if !dir.pop() {
                break;
            }
        }
    }
    PathBuf::from("target")
}

/// The directory bench JSON lands in: `<target_dir()>/bench`.
fn output_dir() -> PathBuf {
    target_dir().join("bench")
}

impl Bench {
    /// Creates a suite with default warmup (3) and sample (15) counts,
    /// both overridable via `MPVL_BENCH_WARMUP` / `MPVL_BENCH_SAMPLES`.
    #[must_use]
    pub fn new(suite: &str) -> Self {
        let env_usize = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(default)
        };
        Self::with_counts(
            suite,
            env_usize("MPVL_BENCH_WARMUP", 3),
            env_usize("MPVL_BENCH_SAMPLES", 15),
        )
    }

    /// Creates a suite with explicit warmup and sample counts (no env
    /// reads — what tests use instead of mutating the process env).
    #[must_use]
    pub fn with_counts(suite: &str, warmup: usize, samples: usize) -> Self {
        let b = Bench {
            suite: suite.to_string(),
            warmup,
            samples: samples.max(1),
            results: Vec::new(),
        };
        mpvl_obs::ceprintln!(
            "# bench suite `{}`: {} warmup + {} samples per case",
            b.suite,
            b.warmup,
            b.samples
        );
        b
    }

    /// Times `f`: `warmup` untimed calls, then one timed call per
    /// sample. Prints the summary line and records it for the JSON.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        self.bench_interleaved(&mut [(name, &mut f)]);
    }

    /// Times cases in alternation, one call of each per warmup and sample
    /// round, so a burst of machine load hits all alike: for cases whose
    /// medians are compared. Each is recorded as [`Bench::bench`] does.
    pub fn bench_interleaved(&mut self, cases: &mut [(&str, &mut dyn FnMut())]) {
        for _ in 0..self.warmup {
            for (_, f) in cases.iter_mut() {
                f();
            }
        }
        let mut samples = vec![Vec::with_capacity(self.samples); cases.len()];
        for _ in 0..self.samples {
            for ((_, f), times) in cases.iter_mut().zip(&mut samples) {
                let t0 = Instant::now();
                f();
                times.push(t0.elapsed().as_secs_f64());
            }
        }
        for ((name, _), mut times) in cases.iter().zip(samples) {
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let n = times.len();
            let pick = |q: f64| times[(((n - 1) as f64) * q).round() as usize];
            let result = BenchResult {
                name: name.to_string(),
                samples: n,
                median_s: pick(0.5),
                p90_s: pick(0.9),
                min_s: times[0],
                mean_s: times.iter().sum::<f64>() / n as f64,
            };
            mpvl_obs::cprintln!(
                "{:<40} median {:>12} p90 {:>12} min {:>12}",
                result.name,
                fmt_time(result.median_s),
                fmt_time(result.p90_s),
                fmt_time(result.min_s),
            );
            self.results.push(result);
        }
    }

    /// Records an already-computed scalar (e.g. a speedup ratio derived
    /// from two timed cases) as a single-sample result, so it lands in
    /// the JSON and the printed table alongside the timed cases.
    pub fn push_value(&mut self, name: &str, value: f64) {
        let result = BenchResult {
            name: name.to_string(),
            samples: 1,
            median_s: value,
            p90_s: value,
            min_s: value,
            mean_s: value,
        };
        mpvl_obs::cprintln!("{:<40} value  {:>12.4}", result.name, value);
        self.results.push(result);
    }

    /// The median of an already-recorded case, by name — what derived
    /// ratio cases ([`push_value`](Self::push_value)) are computed from.
    #[must_use]
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_s)
    }

    /// Writes `BENCH_<suite>.json` into the resolved bench output
    /// directory (see the module docs) and reports the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — loudly, naming the attempted path — since
    /// a bench binary that silently dropped its record would poison the
    /// timing trajectory.
    pub fn finish(self) {
        let dir = output_dir();
        fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create bench output dir {}: {e}", dir.display()));
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": {},\n", json_str(&self.suite)));
        out.push_str("  \"unit\": \"seconds\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"samples\": {}, \"median_s\": {:e}, \"p90_s\": {:e}, \"min_s\": {:e}, \"mean_s\": {:e}}}{}\n",
                json_str(&r.name),
                r.samples,
                r.median_s,
                r.p90_s,
                r.min_s,
                r.mean_s,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        let mut f = fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create bench json {}: {e}", path.display()));
        f.write_all(out.as_bytes())
            .unwrap_or_else(|e| panic!("write bench json {}: {e}", path.display()));
        mpvl_obs::cprintln!("wrote {}", path.display());
    }
}

/// Human-readable time with an adaptive unit.
fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_ordered() {
        // Explicit counts — no `std::env::set_var` (racy under the
        // multi-threaded test harness).
        let mut b = Bench::with_counts("selftest", 0, 9);
        let mut k = 0u64;
        b.bench("spin", || {
            // A tiny but non-empty workload.
            for i in 0..10_000u64 {
                k = k.wrapping_add(i * i);
            }
        });
        assert!(k > 0);
        let r = &b.results[0];
        assert_eq!(r.samples, 9);
        assert!(r.min_s <= r.median_s && r.median_s <= r.p90_s);
        assert!(r.min_s > 0.0);
    }

    #[test]
    fn output_dir_is_anchored_when_cargo_provides_context() {
        let dir = output_dir();
        assert!(dir.ends_with("bench"), "got {}", dir.display());
        // Under `cargo test` CARGO_MANIFEST_DIR is always set, so unless
        // the user pinned a (possibly relative) CARGO_TARGET_DIR, the
        // resolved path is absolute — cwd-independent.
        if std::env::var_os("CARGO_TARGET_DIR").is_none() {
            assert!(dir.is_absolute(), "got {}", dir.display());
            assert!(dir.parent().unwrap().ends_with("target"));
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn time_formatting_units() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2.5e-3), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 µs");
        assert_eq!(fmt_time(5e-9), "5.0 ns");
    }
}
