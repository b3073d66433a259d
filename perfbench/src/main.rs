//! The `bench` command.
//!
//! ```text
//! bench --workload <name|all> --seed <u64> --seconds <s> --trace <0|1>
//! bench --compare <base.jsonl> <change.jsonl>
//! ```
//!
//! A run prints `<workload> <metric> <value> <unit>` per metric and, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; it writes `BENCH_<workload>.json` (untraced) or
//! `TRACE_<workload>.json` (traced) under `bench/` of the Cargo target
//! directory (`mpvl_testkit::bench::target_dir`: `$CARGO_TARGET_DIR`, or
//! this package's `target` under `cargo run`) and exits non-zero on a
//! wrong answer.
//! `all` runs every workload in a process of its own.
//!
//! `--compare` reads two files of result lines, one run per line, and
//! judges every end-to-end metric of `BENCHMARK.json` (read from the
//! working directory) by the bound declared there.

use mpvl_perfbench::json::{self, obj, Value};
use mpvl_perfbench::run::{Ctx, Report};
use mpvl_perfbench::stats::{compare, median, quartiles, Better, Verdict};
use mpvl_perfbench::workloads::{self, NAMES};
use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Thread count the runs pin, unless `MPVL_THREADS` is set. One: on a
/// shared two-vCPU machine the second vCPU is intermittently taken by
/// the host, which moved two-thread results by up to 2x between runs of
/// one seed within minutes; one-thread runs move much less over the
/// same span.
const THREADS: &str = "1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a finite, non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {NAMES:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> PathBuf {
    mpvl_testkit::bench::target_dir().join("bench")
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Value {
    obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            obj([
                ("value", Value::Num(*value)),
                ("unit", Value::Str((*unit).into())),
            ]),
        )
    }))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_json()
}

fn run_one(args: &Args) -> Result<bool, String> {
    let out = out_dir();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        small: false,
        scratch: out.join("scratch").join(&args.workload),
    };
    let report: Report = workloads::run(&args.workload, &ctx, args.trace)
        .ok_or_else(|| format!("unknown workload {}", args.workload))??;
    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", report.workload);
    }
    let file = out.join(format!(
        "{}_{}.json",
        if args.trace { "TRACE" } else { "BENCH" },
        report.workload
    ));
    let doc = obj([
        ("workload", Value::Str(report.workload.into())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("threads", Value::Num(mpvl_par::thread_count() as f64)),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("correct", Value::Bool(report.correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", metrics_json(&report.metrics)),
        ("details", report.details.clone()),
    ]);
    mpvl_obs::write_atomic(&file, &(doc.to_json() + "\n"))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{} report {}", report.workload, file.display());
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted,
            report.failed,
            metrics_json(&report.metrics)
        )
    );
    Ok(report.correct)
}

/// Runs every workload in a child process of its own, so each has its
/// own peak memory, and sums up their result lines.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for name in NAMES {
        let mut child = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let mut last = None;
        let stdout = child.stdout.take().expect("stdout is piped");
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if let Some(prev) = last.replace(line) {
                println!("{prev}");
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let result = last
            .as_deref()
            .and_then(|l| json::parse(l).ok())
            .ok_or_else(|| format!("{name} printed no result ({status})"))?;
        correct &= status.success() && result.get("correct") == Some(&Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (metric, v) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            metrics.push((format!("{name}.{metric}"), v.clone()));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted as u64, failed as u64, obj(metrics))
    );
    Ok(correct)
}

/// The result lines of `path`, one run per line.
fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Values of `metric` across runs.
fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn run_compare(base: &str, change: &str) -> Result<bool, String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))
        .and_then(|t| json::parse(&t))?;
    let (base_runs, change_runs) = (read_runs(base)?, read_runs(change)?);
    let mut clean = true;
    for m in spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let better = m
            .get("better")
            .and_then(Value::as_str)
            .and_then(Better::parse)
            .ok_or_else(|| format!("{name}: bad `better`"))?;
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        let (b, c) = (values(&base_runs, name), values(&change_runs, name));
        let wins = b
            .iter()
            .zip(&c)
            .filter(|(b, c)| match better {
                Better::Lower => c < b,
                Better::Higher => c > b,
            })
            .count();
        let verdict = compare(&b, &c, better, bound);
        clean &= verdict == Some(Verdict::WithinBound);
        let q = |v: &[f64]| match (median(v), quartiles(v)) {
            (Some(m), Some([q1, _, q3])) => format!("{m:.6e} [{q1:.6e}, {q3:.6e}]"),
            (Some(m), None) => format!("{m:.6e}"),
            _ => "-".into(),
        };
        println!(
            "{name}: base {} change {} wins {wins}/{} bound {bound} -> {}",
            q(&b),
            q(&c),
            b.len().min(c.len()),
            match verdict {
                Some(Verdict::WithinBound) => "within bound",
                Some(Verdict::Regression) => "REGRESSION",
                Some(Verdict::Unresolved) => "unresolved (base spread exceeds the bound)",
                None => "no data",
            }
        );
    }
    Ok(clean)
}

fn main() -> ExitCode {
    // Pin the worker count before any library call reads it.
    if std::env::var_os("MPVL_THREADS").is_none() {
        std::env::set_var("MPVL_THREADS", THREADS);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        Some("--compare") => Err("--compare takes two files".into()),
        _ => parse_args(&args).and_then(|a| {
            if a.workload == "all" {
                run_all(&a)
            } else {
                run_one(&a)
            }
        }),
    };
    let _ = std::io::stdout().flush();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
