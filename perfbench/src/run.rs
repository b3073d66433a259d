//! The shared run loop: set-up, the timed closed loop, the traced
//! replay, the checks, and the metrics each produces.

use crate::json::{obj, Value};
use crate::replay::{Counts, Replay};
use crate::stats::{median, tail};
use crate::trace::{breakdown, span_of_scope, Breakdown, REQUEST, SETUP};
use mpvl_obs::Capture;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up runs per untraced run; `setup_s` is their median. The
/// slowest set-up (`sweep_eval`, three reductions) takes ~0.2 s.
const SETUP_REPEATS: usize = 9;

/// What a workload run is told.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed loop runs; at least one request always runs.
    pub seconds: f64,
    /// Small instances, for tests.
    pub small: bool,
    /// A directory the workload owns for the run (registry files).
    pub scratch: PathBuf,
}

impl Ctx {
    /// A subdirectory path of the scratch directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    /// Removes a subdirectory of the scratch directory, if present.
    ///
    /// # Errors
    ///
    /// When it exists and cannot be removed.
    pub fn clear(&self, name: &str) -> Result<(), String> {
        remove_tree(&self.dir(name))
    }

    fn reset_scratch(&self) -> Result<(), String> {
        remove_tree(&self.scratch)
    }
}

fn remove_tree(dir: &std::path::Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clear {}: {e}", dir.display())),
    }
}

/// Outcome of a workload's correctness checks.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Worst relative error of a returned model against the exact
    /// reference (or of the eval path against the LU path).
    pub max_rel_err: f64,
    /// The workload's tolerance on `max_rel_err`.
    pub tolerance: f64,
    /// Every other failed check, one line each.
    pub problems: Vec<String>,
}

impl Check {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.max_rel_err <= self.tolerance
    }

    /// Records a problem.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Folds one relative error in.
    pub fn err(&mut self, e: f64) {
        // NaN must fail the check, so it may not be lost by `max`.
        self.max_rel_err = if e.is_nan() {
            f64::INFINITY
        } else {
            self.max_rel_err.max(e)
        };
    }
}

/// One benchmark workload. The real path drives the program's public
/// API; the replay path sends the same requests through
/// [`crate::replay`] with a bench span around every call.
pub trait Workload {
    /// Name on the command line and in the reports.
    const NAME: &'static str;
    /// Generated inputs.
    type Input;
    /// Program state the real requests run against.
    type Real;
    /// Replay state the traced requests run against.
    type Traced;
    /// What a request returns, as the program returned it.
    type Raw;
    /// What the checks keep of one request.
    type Out;

    /// Generates the seeded inputs.
    fn generate(ctx: &Ctx) -> Result<Self::Input, String>;
    /// Builds the program state the requests run against.
    fn start(ctx: &Ctx, input: &Self::Input) -> Result<Self::Real, String>;
    /// Serves request `i` through the program.
    fn request(
        ctx: &Ctx,
        real: &mut Self::Real,
        input: &Self::Input,
        i: usize,
    ) -> Result<Self::Raw, String>;
    /// [`Workload::start`] through the replay.
    fn start_traced(ctx: &Ctx, r: &Replay, input: &Self::Input) -> Result<Self::Traced, String>;
    /// [`Workload::request`] through the replay.
    fn replay(
        ctx: &Ctx,
        r: &Replay,
        state: &mut Self::Traced,
        input: &Self::Input,
        i: usize,
    ) -> Result<Self::Raw, String>;
    /// Requests per pass. The timed loop runs whole passes, so every run
    /// serves the same mix whatever the seed did to its order.
    fn pass_len(input: &Self::Input) -> usize;
    /// Resets the program state between passes, off the clock.
    fn next_pass(_ctx: &Ctx, _real: &mut Self::Real, _input: &Self::Input) -> Result<(), String> {
        Ok(())
    }
    /// [`Workload::next_pass`] for the replay.
    fn next_pass_traced(
        _ctx: &Ctx,
        _r: &Replay,
        _state: &mut Self::Traced,
        _input: &Self::Input,
    ) -> Result<(), String> {
        Ok(())
    }
    /// What request `i` asks for: requests with one key must return
    /// identical bits.
    fn key(input: &Self::Input, i: usize) -> usize;
    /// Reduces the result of request `i`, for `key`, to what the checks
    /// keep, off the clock; `first` marks the run's first request of
    /// that key.
    fn digest(raw: Self::Raw, i: usize, key: usize, first: bool) -> Self::Out;
    /// Frequency points the request returned.
    fn points(out: &Self::Out) -> u64;
    /// Fingerprint of everything the request returned.
    fn bits(out: &Self::Out) -> u64;
    /// Checks the outputs of a run against exact references.
    fn check(ctx: &Ctx, input: &Self::Input, outs: &[Self::Out]) -> Check;
}

/// The result of one run: what the last output line reports, and the
/// details the report files keep.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every request succeeded and every check passed (and, traced,
    /// every replay was bit-identical). `bench` exits non-zero
    /// otherwise.
    pub correct: bool,
    /// Requests attempted in the timed loop.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Everything else, for the report file.
    pub details: Value,
}

struct Timed<O> {
    outs: Vec<O>,
    latencies: Vec<f64>,
    attempted: usize,
    failures: Vec<String>,
    wall: Duration,
}

/// Requests `0, 1, …` one after another — a closed loop with one
/// client — in whole passes of `pass_len`, until `seconds` have passed
/// (at least one pass). Only `request` is timed; `digest` reduces each
/// result and `between` resets state between passes, off the clock.
fn timed_loop<R, O>(
    seconds: f64,
    pass_len: usize,
    mut request: impl FnMut(usize) -> Result<R, String>,
    mut digest: impl FnMut(usize, R) -> O,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Timed<O>, String> {
    let mut t = Timed {
        outs: Vec::new(),
        latencies: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        wall: Duration::ZERO,
    };
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    loop {
        for _ in 0..pass_len.max(1) {
            let i = t.attempted;
            t.attempted += 1;
            let begin = Instant::now();
            let result = request(i);
            let done = Instant::now();
            match result {
                Ok(raw) => {
                    t.latencies.push((done - begin).as_secs_f64());
                    t.outs.push(digest(i, raw));
                }
                Err(e) => t.failures.push(format!("request {i}: {e}")),
            }
            paused += done.elapsed();
        }
        if (start.elapsed() - paused).as_secs_f64() >= seconds {
            break;
        }
        let off = Instant::now();
        between()?;
        paused += off.elapsed();
    }
    t.wall = start.elapsed() - paused;
    Ok(t)
}

/// Digests results in request order, marking each key's first request,
/// keeping every request's fingerprint (`None` where it failed), and
/// checking that requests with one key returned identical bits.
struct Digester<W: Workload> {
    first_bits: BTreeMap<usize, u64>,
    bits: Vec<Option<u64>>,
    problems: Vec<String>,
    _w: std::marker::PhantomData<W>,
}

impl<W: Workload> Digester<W> {
    fn new() -> Self {
        Digester {
            first_bits: BTreeMap::new(),
            bits: Vec::new(),
            problems: Vec::new(),
            _w: std::marker::PhantomData,
        }
    }

    fn digest(&mut self, input: &W::Input, i: usize, raw: W::Raw) -> W::Out {
        let key = W::key(input, i);
        let first = !self.first_bits.contains_key(&key);
        let out = W::digest(raw, i, key, first);
        let bits = W::bits(&out);
        if *self.first_bits.entry(key).or_insert(bits) != bits {
            self.problems.push(format!(
                "request {i} returned other bits than the first request of key {key}"
            ));
        }
        self.bits.resize(i + 1, None);
        self.bits[i] = Some(bits);
        out
    }
}

/// The timed loop over the program.
struct Served<O> {
    timed: Timed<O>,
    bits: Vec<Option<u64>>,
    peak_rss_mb: f64,
    /// Requests of one key that returned different bits.
    problems: Vec<String>,
}

/// The workload's checks on the served outputs, off every clock and
/// outside every capture; clears the scratch directory after.
fn check<W: Workload>(
    ctx: &Ctx,
    input: &W::Input,
    served: &mut Served<W::Out>,
) -> Result<Check, String> {
    let mut check = W::check(ctx, input, &served.timed.outs);
    check.problems.append(&mut served.problems);
    ctx.reset_scratch()?;
    Ok(check)
}

fn serve<W: Workload>(
    ctx: &Ctx,
    input: &W::Input,
    real: W::Real,
) -> Result<Served<W::Out>, String> {
    let real = std::cell::RefCell::new(real);
    let mut digester = Digester::<W>::new();
    let timed = timed_loop(
        ctx.seconds,
        W::pass_len(input),
        |i| W::request(ctx, &mut real.borrow_mut(), input, i),
        |i, raw| digester.digest(input, i, raw),
        || W::next_pass(ctx, &mut real.borrow_mut(), input),
    )?;
    let peak_rss_mb = peak_rss_mb()?;
    let mut bits = digester.bits;
    bits.resize(timed.attempted, None);
    Ok(Served {
        timed,
        bits,
        peak_rss_mb,
        problems: digester.problems,
    })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// An untraced run: the end-to-end metrics.
///
/// # Errors
///
/// When set-up fails or the platform cannot report memory.
pub fn run_untraced<W: Workload>(ctx: &Ctx) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        ctx.reset_scratch()?;
        let begin = Instant::now();
        let input = W::generate(ctx)?;
        let real = W::start(ctx, &input)?;
        setup_s.push(begin.elapsed().as_secs_f64());
        state = Some((input, real));
    }
    let (input, real) = state.expect("set-up ran");
    let mut served = serve::<W>(ctx, &input, real)?;
    let check = check::<W>(ctx, &input, &mut served)?;
    let Served {
        timed, peak_rss_mb, ..
    } = served;

    let wall = timed.wall.as_secs_f64();
    let points: u64 = timed.outs.iter().map(W::points).sum();
    let p50 = median(&timed.latencies).unwrap_or(f64::NAN);
    // Below 11 samples no percentile has ten beyond it; the slowest
    // request stands in.
    let (tail_pct, tail_s) = tail(&timed.latencies).unwrap_or_else(|| {
        let max = timed.latencies.iter().copied().fold(f64::NAN, f64::max);
        (100.0, max)
    });
    // The tail and the peak memory go to the report file, not into the
    // bounded metrics: on the shared reference machine the tail of a
    // handful of samples moved by ~20 % between seeds, and `VmHWM`
    // jumped between two allocator layouts (~65 vs ~97 MB) for one
    // workload. Points per second would be a fixed multiple of the
    // throughput, since every workload returns a fixed number of points
    // per request; that number goes to the report file.
    let metrics = vec![
        (
            "setup_s".to_string(),
            median(&setup_s).unwrap_or(f64::NAN),
            "s",
        ),
        ("request_p50_s".to_string(), p50, "s"),
        (
            "throughput_rps".to_string(),
            timed.outs.len() as f64 / wall,
            "1/s",
        ),
    ];
    let details = obj([
        ("samples", Value::Num(timed.latencies.len() as f64)),
        ("tail_percentile", Value::Num(tail_pct)),
        ("request_tail_s", Value::Num(tail_s)),
        ("peak_rss_mb", Value::Num(peak_rss_mb)),
        ("timed_wall_s", Value::Num(wall)),
        ("eval_points", Value::Num(points as f64)),
        (
            "eval_points_per_request",
            Value::Num(points as f64 / timed.outs.len().max(1) as f64),
        ),
        ("setup_samples_s", nums(&setup_s)),
        (
            "error_frac",
            Value::Num(ratio(timed.failures.len() as u64, timed.attempted as u64)),
        ),
        ("check", check_json(&check)),
        ("failures", strs(&timed.failures)),
    ]);
    Ok(Report {
        workload: W::NAME,
        correct: check.passed() && timed.failures.is_empty(),
        attempted: timed.attempted as u64,
        failed: timed.failures.len() as u64,
        metrics,
        details,
    })
}

/// A traced run: the program's set-up and loop once more, capturing the
/// counters the program records, the outputs and the latency to compare
/// against; then the set-up and every request replayed through the
/// layered calls. The per-layer metrics: times from the replay, counts
/// from the program. Every replayed result must be bit-identical to the
/// program's and every counter equal, or the run is not correct.
///
/// # Errors
///
/// When set-up fails.
pub fn run_traced<W: Workload>(ctx: &Ctx) -> Result<Report, String> {
    ctx.reset_scratch()?;
    let input = W::generate(ctx)?;
    let (served, program) = mpvl_obs::capture(|| -> Result<_, String> {
        let real = W::start(ctx, &input)?;
        serve::<W>(ctx, &input, real)
    });
    let mut served = served?;
    let mut check = check::<W>(ctx, &input, &mut served)?;
    let Served {
        timed, bits: plain, ..
    } = served;

    let (traced, capture) = mpvl_obs::capture(|| -> Result<_, String> {
        let r = Replay::new();
        let mut state = r.tracer.span(SETUP, || W::start_traced(ctx, &r, &input))?;
        r.settle();
        let mut digester = Digester::<W>::new();
        let pass_len = W::pass_len(&input).max(1);
        for i in 0..plain.len() {
            if i > 0 && i % pass_len == 0 {
                W::next_pass_traced(ctx, &r, &mut state, &input)?;
            }
            let raw = r
                .tracer
                .span(REQUEST, || W::replay(ctx, &r, &mut state, &input, i));
            r.settle();
            if let Ok(raw) = raw {
                digester.digest(&input, i, raw);
            }
        }
        let mut bits = digester.bits;
        bits.resize(plain.len(), None);
        Ok((r, bits))
    });
    let (replay, replayed) = traced?;
    ctx.reset_scratch()?;
    for (i, (a, b)) in plain.iter().zip(&replayed).enumerate() {
        if a != b {
            check.fail(format!("request {i}: the replay differs from the program"));
        }
    }
    for problem in counter_mismatches(&program, &capture) {
        check.fail(problem);
    }

    apply_program_splits(&replay, &capture);
    let spans = replay.tracer.spans();
    let req = breakdown(&spans, REQUEST);
    let setup = breakdown(&spans, SETUP);
    let untraced_p50 = median(&timed.latencies).unwrap_or(f64::NAN);
    let traced_p50 = median(&req.root_durations_s).unwrap_or(f64::NAN);
    let metrics = layer_metrics(
        &[&req, &setup],
        &capture,
        &program,
        &replay.counts(),
        req.coverage(),
        traced_p50 / untraced_p50 - 1.0,
    );
    let details = obj([
        ("requests", Value::Num(plain.len() as f64)),
        ("untraced_p50_s", Value::Num(untraced_p50)),
        ("traced_p50_s", Value::Num(traced_p50)),
        (
            "program_counters",
            obj(program.counters.iter().map(|c| {
                (
                    format!("{}/{}", c.stage, c.name),
                    Value::Num(c.value as f64),
                )
            })),
        ),
        ("requests_breakdown", breakdown_json(&req)),
        ("setup_breakdown", breakdown_json(&setup)),
        ("check", check_json(&check)),
        ("failures", strs(&timed.failures)),
    ]);
    Ok(Report {
        workload: W::NAME,
        correct: check.passed() && timed.failures.is_empty(),
        attempted: timed.attempted as u64,
        failed: timed.failures.len() as u64,
        metrics,
        details,
    })
}

/// Program spans moved out of the bench span around them: the Lanczos
/// runs inside the adaptive and multi-point reductions, the Lyapunov
/// solves inside balanced truncation, the evaluation kernel inside a
/// session eval.
const PROGRAM_SPLITS: &[(&str, &str, &str, &str)] = &[
    ("core.adaptive", "lanczos", "block_lanczos", "core.lanczos"),
    ("core.merge", "lanczos", "block_lanczos", "core.lanczos"),
    ("core.balanced", "balanced", "lyapunov", "core.lyapunov"),
    ("engine.eval", "engine", "eval_points", "core.eval"),
];

fn apply_program_splits(replay: &Replay, capture: &Capture) {
    let spans = replay.tracer.spans();
    for t in &capture.timings {
        let Some(id) = span_of_scope(t.worker) else {
            continue;
        };
        let Some(span) = spans.get(id) else {
            continue;
        };
        for &(layer, stage, name, to) in PROGRAM_SPLITS {
            if span.layer == layer && t.stage == stage && t.name == name {
                replay.tracer.add_split(id, to, t.sum_ns);
            }
        }
    }
}

fn program_busy_s(capture: &Capture, stage: &str, name: &str) -> f64 {
    capture
        .timings
        .iter()
        .filter(|t| t.stage == stage && t.name == name)
        .map(|t| t.sum_ns as f64 * 1e-9)
        .sum()
}

/// Every counter on which the program and the replay of the same
/// requests disagree, one line each. A difference means the replay no
/// longer makes the program's decisions, so its spans would describe
/// another program.
fn counter_mismatches(program: &Capture, replay: &Capture) -> Vec<String> {
    let names: BTreeSet<(&str, &str)> = program
        .counters
        .iter()
        .chain(&replay.counters)
        .map(|c| (c.stage, c.name))
        .collect();
    names
        .into_iter()
        .filter_map(|(stage, name)| {
            let (p, r) = (program.counter(stage, name), replay.counter(stage, name));
            (p != r).then(|| format!("counter {stage}/{name}: program {p}, replay {r}"))
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics, summed over the set-up and the requests:
/// times from the replay's spans and `capture`, counts from the
/// `program`'s own counters.
fn layer_metrics(
    parts: &[&Breakdown],
    capture: &Capture,
    program: &Capture,
    counts: &Counts,
    coverage: f64,
    overhead: f64,
) -> Vec<(String, f64, &'static str)> {
    let wall = |layers: &[&str]| -> f64 {
        parts
            .iter()
            .map(|b| layers.iter().map(|l| b.wall(l)).sum::<f64>())
            .sum()
    };
    let inclusive = |layer: &str| -> f64 {
        parts
            .iter()
            .filter_map(|b| b.layers.get(layer))
            .map(|l| l.inclusive_s)
            .sum()
    };
    let n = |stage: &str, name: &str| program.counter(stage, name);
    let c = |stage: &str, name: &str| n(stage, name) as f64;
    let ingest_s = inclusive("service.ingest");
    let plan_hits = n("engine", "eval_plan_hits");
    let plan_compiles = n("engine", "eval_plan_compiles");
    let m: Vec<(String, f64, &'static str)> = vec![
        ("service.ingest_s".into(), ingest_s, "s"),
        (
            "service.ingest_mb_per_s".into(),
            counts.ingested_bytes as f64 / 1e6 / ingest_s,
            "MB/s",
        ),
        ("circuit.parse_s".into(), wall(&["circuit.parse"]), "s"),
        (
            "circuit.canonicalize_s".into(),
            wall(&["circuit.canonicalize"]),
            "s",
        ),
        ("service.hash_s".into(), wall(&["service.hash"]), "s"),
        (
            "circuit.assemble_s".into(),
            wall(&["circuit.assemble"]),
            "s",
        ),
        (
            "service.sessions_created".into(),
            c("service", "sessions_created"),
            "count",
        ),
        (
            "service.registry_hit_ratio".into(),
            ratio(
                n("service", "registry_hits"),
                n("service", "registry_hits") + n("service", "registry_misses"),
            ),
            "1",
        ),
        (
            "service.registry_io_s".into(),
            wall(&["service.registry_io"]),
            "s",
        ),
        (
            "service.self_s".into(),
            wall(&[
                "service.ingest",
                "service.session",
                "service.registry",
                "service.finish",
            ]),
            "s",
        ),
        ("core.factor_s".into(), inclusive("core.factor"), "s"),
        ("sparse.order_s".into(), wall(&["sparse.order"]), "s"),
        ("sparse.symbolic_s".into(), wall(&["sparse.symbolic"]), "s"),
        ("sparse.numeric_s".into(), wall(&["sparse.numeric"]), "s"),
        ("sparse.l_nnz".into(), counts.l_nnz as f64, "count"),
        (
            "sparse.numeric_refactors".into(),
            c("ldlt", "numeric_refactor"),
            "count",
        ),
        (
            "engine.factor_cache_hit_ratio".into(),
            ratio(
                n("engine", "factor_cache_hits"),
                n("engine", "factor_cache_hits") + n("engine", "factor_cache_misses"),
            ),
            "1",
        ),
        ("core.lanczos_s".into(), wall(&["core.lanczos"]), "s"),
        (
            "core.lanczos_operator_apply_s".into(),
            program_busy_s(capture, "lanczos", "operator_apply"),
            "s",
        ),
        (
            "core.lanczos_orthogonalize_s".into(),
            program_busy_s(capture, "lanczos", "orthogonalize"),
            "s",
        ),
        (
            "core.lanczos_iterations".into(),
            c("lanczos", "iterations"),
            "count",
        ),
        (
            "core.deflations".into(),
            c("lanczos", "deflations"),
            "count",
        ),
        (
            "engine.run_resumes".into(),
            c("sympvl_run", "lanczos_resumes"),
            "count",
        ),
        (
            "core.lyapunov_solves".into(),
            c("balanced", "lyapunov_solves"),
            "count",
        ),
        (
            "core.multipoint_points".into(),
            c("multipoint", "points"),
            "count",
        ),
        (
            "core.plan_compile_s".into(),
            wall(&["core.plan_compile"]),
            "s",
        ),
        ("core.plan_compiles".into(), plan_compiles as f64, "count"),
        (
            "engine.plan_hit_ratio".into(),
            ratio(plan_hits, plan_hits + plan_compiles),
            "1",
        ),
        ("core.eval_s".into(), wall(&["core.eval"]), "s"),
        (
            "core.eval_points".into(),
            c("engine", "eval_points"),
            "count",
        ),
        (
            "engine.self_s".into(),
            wall(&[
                "engine.reduce",
                "engine.reduce_batch",
                "engine.adopt",
                "engine.eval",
            ]),
            "s",
        ),
        ("trace.coverage".into(), coverage, "1"),
        ("trace.overhead".into(), overhead, "1"),
    ];
    m
}

fn nums(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|&x| Value::Num(x)).collect())
}

fn strs(v: &[String]) -> Value {
    Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect())
}

fn check_json(c: &Check) -> Value {
    obj([
        ("passed", Value::Bool(c.passed())),
        ("max_rel_err", Value::Num(c.max_rel_err)),
        ("tolerance", Value::Num(c.tolerance)),
        ("problems", strs(&c.problems)),
    ])
}

/// Per layer: wall share, share of the roots' time, inclusive time, calls.
fn breakdown_json(b: &Breakdown) -> Value {
    let layers = b.layers.iter().map(|(name, l)| {
        (
            name.to_string(),
            obj([
                ("wall_s", Value::Num(l.wall_s)),
                (
                    "share",
                    Value::Num(if b.root_s > 0.0 {
                        l.wall_s / b.root_s
                    } else {
                        0.0
                    }),
                ),
                ("inclusive_s", Value::Num(l.inclusive_s)),
                ("calls", Value::Num(l.calls as f64)),
            ]),
        )
    });
    obj([
        ("roots", Value::Num(b.root_durations_s.len() as f64)),
        ("root_s", Value::Num(b.root_s)),
        ("unattributed_s", Value::Num(b.unattributed_s)),
        ("coverage", Value::Num(b.coverage())),
        ("layers", obj(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_obs::Counter;

    fn capture(counters: &[(&'static str, &'static str, u64)]) -> Capture {
        Capture {
            events: Vec::new(),
            counters: counters
                .iter()
                .map(|&(stage, name, value)| Counter { stage, name, value })
                .collect(),
            timings: Vec::new(),
        }
    }

    #[test]
    fn counter_mismatches_name_every_differing_counter() {
        let program = capture(&[
            ("engine", "eval_plan_compiles", 3),
            ("service", "registry_hits", 2),
        ]);
        assert!(counter_mismatches(&program, &program.clone()).is_empty());
        let replay = capture(&[
            ("engine", "eval_plan_compiles", 3),
            ("engine", "eval_plan_hits", 3),
        ]);
        assert_eq!(
            counter_mismatches(&program, &replay),
            [
                "counter engine/eval_plan_hits: program 0, replay 3",
                "counter service/registry_hits: program 2, replay 0",
            ]
        );
    }
}
