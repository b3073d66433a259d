//! AC (frequency-domain) analysis — the "exact analysis" reference curves
//! of the paper's Figures 2–4.
//!
//! For each frequency the full system `(G + σ(s)C) X = B` is solved by a
//! sparse complex-symmetric LDLᵀ factorization (with a dense LU fallback
//! for the rare near-resonance breakdowns), and the exact multi-port
//! transfer matrix `Z(s) = s^{osf}·BᵀX` is assembled.
//!
//! The sweep exploits that the pattern of `G + σ(s)C` is frequency-
//! independent: one [`SymbolicLdlt`] analysis (ordering, elimination tree,
//! `L` pattern) and one [`AddScaledPlan`] union merge are shared by every
//! point, and each point pays only an in-place `K` refill, a numeric
//! [`NumericLdlt::refactor`] and a blocked multi-RHS solve. Frequency
//! points are independent, so the sweep splits them into one contiguous
//! chunk per `mpvl-par` worker — each worker builds its numeric
//! workspace, `K` template and solve buffers once, then loops over its
//! chunk allocation-free on the sparse path. Chunk boundaries depend only
//! on the point count and thread count, so the output (and the per-point
//! numeric work) is bit-identical to the single-threaded sweep.

use mpvl_circuit::MnaSystem;
use mpvl_la::{Complex64, Lu, Mat};
use mpvl_par::parallel_for_chunks_with_init;
use mpvl_sparse::{AddScaledPlan, CscMat, NumericLdlt, Ordering, SymbolicLdlt};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error from an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum AcError {
    /// `G + σC` was singular at the given frequency (an exact pole).
    SingularAtFrequency {
        /// The offending frequency in hertz.
        freq_hz: f64,
    },
}

impl fmt::Display for AcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcError::SingularAtFrequency { freq_hz } => {
                write!(f, "system matrix singular at {freq_hz:.6e} Hz (exact pole)")
            }
        }
    }
}

impl Error for AcError {}

/// One point of an AC sweep: the frequency and the exact `p×p` Z-matrix.
#[derive(Debug, Clone)]
pub struct AcPoint {
    /// Frequency in hertz.
    pub freq_hz: f64,
    /// The multi-port transfer matrix `Z(j2πf)`.
    pub z: Mat<Complex64>,
}

/// Exact AC sweep of an assembled [`MnaSystem`].
///
/// One symbolic analysis (fill-reducing ordering, elimination tree, `L`
/// pattern) is shared by every frequency point; each point costs one
/// numeric refactorization plus a blocked `p`-column solve. Points run in
/// parallel on [`mpvl_par::thread_count`] workers (`MPVL_THREADS`
/// overrides; `1` forces the inline serial path) and the result is
/// bit-identical at every thread count.
///
/// # Errors
///
/// Returns [`AcError::SingularAtFrequency`] only if both the sparse and the
/// dense fallback factorization fail (the sweep hit a pole exactly). With
/// several offending points, the error reports the earliest one in
/// `freqs_hz` order.
///
/// # Examples
///
/// ```
/// use mpvl_circuit::generators::rc_ladder;
/// use mpvl_circuit::MnaSystem;
/// use mpvl_sim::ac_sweep;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MnaSystem::assemble(&rc_ladder(10, 100.0, 1e-12))?;
/// let pts = ac_sweep(&sys, &[1e6, 1e9])?;
/// // A driven RC ladder has higher impedance at low frequency.
/// assert!(pts[0].z[(0, 0)].abs() > pts[1].z[(0, 0)].abs());
/// # Ok(())
/// # }
/// ```
pub fn ac_sweep(sys: &MnaSystem, freqs_hz: &[f64]) -> Result<Vec<AcPoint>, AcError> {
    AcSweeper::new(sys).sweep(freqs_hz)
}

/// Reusable AC-sweep state: the complexified system matrices and the
/// one-time [`SymbolicLdlt`] analysis, ready to serve any number of
/// [`AcSweeper::sweep`] calls.
///
/// The free function [`ac_sweep`] constructs one per call; a caller
/// that sweeps one system repeatedly keeps one and amortizes the
/// symbolic analysis (and the `f64 → Complex64` matrix copies) across
/// every sweep. Sweeps through a retained sweeper are bit-identical to the
/// free function: the symbolic analysis is deterministic, and each
/// point's numeric work is unchanged.
pub struct AcSweeper {
    g: CscMat<Complex64>,
    c: CscMat<Complex64>,
    bz: Mat<Complex64>,
    /// `None` for nonsymmetric (active) systems, which take the dense
    /// pivoted route at every point.
    symbolic: Option<Arc<SymbolicLdlt>>,
    /// The precomputed `G`/`C` pattern-union merge: per point, `K` is
    /// refilled in place instead of re-merged and reallocated.
    plan: AddScaledPlan,
    /// The union matrix `G + C` — the `K` template each worker clones
    /// once and refills per point via [`AddScaledPlan::apply_into`].
    k_union: CscMat<Complex64>,
    s_power: u32,
    output_s_factor: u32,
}

impl AcSweeper {
    /// Complexifies the system, merges the `G`/`C` union pattern once
    /// (the pattern of `G + σ(s)C` at every frequency) and performs the
    /// one-time symbolic analysis on it.
    pub fn new(sys: &MnaSystem) -> Self {
        let g: CscMat<Complex64> = sys.g.map(Complex64::from_real);
        let c: CscMat<Complex64> = sys.c.map(Complex64::from_real);
        let bz = sys.b.map(Complex64::from_real);
        let plan = AddScaledPlan::new(&g, &c);
        let k_union = plan.build(Complex64::ONE, &g, Complex64::ONE, &c);

        // The unpivoted symmetric sparse path is only valid for symmetric
        // matrices; active circuits (VCCS) take the dense pivoted route.
        let symbolic: Option<Arc<SymbolicLdlt>> = if sys.is_symmetric() {
            SymbolicLdlt::analyze(&k_union, Ordering::MinDegree)
                .ok()
                .map(Arc::new)
        } else {
            None
        };
        AcSweeper {
            g,
            c,
            bz,
            symbolic,
            plan,
            k_union,
            s_power: sys.s_power,
            output_s_factor: sys.output_s_factor,
        }
    }

    /// Sweeps on [`mpvl_par::thread_count`] workers; the result is
    /// bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// See [`ac_sweep`].
    pub fn sweep(&self, freqs_hz: &[f64]) -> Result<Vec<AcPoint>, AcError> {
        let _sweep_span = mpvl_obs::span("ac", "sweep");
        // One contiguous chunk of points per worker: the numeric
        // workspace, the `K` template and the solve buffers are built
        // once per worker, outside the per-point loop, and every point
        // of the chunk reuses them allocation-free on the sparse path.
        // Chunk boundaries are a pure function of (len, threads), and a
        // point's work never depends on which worker runs it, so the
        // output is bit-identical at every thread count.
        let mut slots: Vec<Option<Result<AcPoint, AcError>>> = vec![None; freqs_hz.len()];
        parallel_for_chunks_with_init(
            mpvl_par::thread_count(),
            &mut slots,
            // Per-worker state: the obs worker tag its spans and events
            // are recorded under, the numeric workspace, the `K` matrix
            // refilled in place per point, and the solve output/scratch.
            |ci| {
                (
                    mpvl_obs::worker_scope(ci as u64),
                    self.symbolic
                        .as_ref()
                        .map(|s| NumericLdlt::new(Arc::clone(s))),
                    self.k_union.clone(),
                    Mat::zeros(self.bz.nrows(), self.bz.ncols()),
                    vec![Complex64::ZERO; self.bz.nrows()],
                )
            },
            |(_tag, num, k, x, work), offset, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let i = offset + j;
                    *slot = Some(self.solve_point(num, k, x, work, i, freqs_hz[i]));
                }
            },
        );
        // First failure in `freqs_hz` order wins, matching the serial
        // sweep; every point is attempted regardless (a later worker
        // does not stop because an earlier chunk hit a pole).
        let mut points = Vec::with_capacity(freqs_hz.len());
        for slot in slots {
            points.push(slot.expect("every slot filled")?);
        }
        Ok(points)
    }

    /// Solves one frequency point with the worker's reusable buffers:
    /// `K` is refilled in place, the sparse path solves into `x` with
    /// scratch `work`, and the dense (fallback) path replaces `x`.
    fn solve_point(
        &self,
        num: &mut Option<NumericLdlt<Complex64>>,
        k: &mut CscMat<Complex64>,
        x: &mut Mat<Complex64>,
        work: &mut [Complex64],
        index: usize,
        f: f64,
    ) -> Result<AcPoint, AcError> {
        // Tag nested events (e.g. an LDLᵀ zero pivot) with this
        // frequency point's index so the export is thread-count-
        // invariant; time the whole point per worker.
        let _item = mpvl_obs::index_scope(index as u64);
        let _span = mpvl_obs::span("ac", "point_solve");
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let sigma = s.powu(self.s_power);
        self.plan.apply_into(
            Complex64::ONE,
            self.g.values(),
            sigma,
            self.c.values(),
            k.values_mut(),
        );
        let solve = match num.as_mut() {
            Some(num) => match num.refactor(k) {
                Ok(()) => {
                    num.solve_mat_into(&self.bz, work, x);
                    "sparse_refactor"
                }
                // Dense LU fallback (pivoted): handles indefinite/near-
                // breakdown points the unpivoted sparse path rejects.
                Err(_) => {
                    *x = dense_solve(k, &self.bz, f)?;
                    "dense_lu_fallback"
                }
            },
            None => {
                *x = dense_solve(k, &self.bz, f)?;
                "dense_lu"
            }
        };
        if mpvl_obs::enabled() {
            mpvl_obs::counter_add("ac", "points", 1);
            if solve == "dense_lu_fallback" {
                mpvl_obs::counter_add("ac", "dense_lu_fallbacks", 1);
            }
            mpvl_obs::event(
                "ac",
                "point",
                vec![
                    ("freq_hz", mpvl_obs::Value::F64(f)),
                    ("solve", mpvl_obs::Value::Str(solve)),
                ],
            );
        }
        let z = self.bz.t_matmul(x).scale(s.powu(self.output_s_factor));
        Ok(AcPoint { freq_hz: f, z })
    }
}

/// Shared dense pivoted solve for the nonsymmetric path and the sparse
/// breakdown fallback; the only place the dense copy of `K` is built.
fn dense_solve(
    k: &CscMat<Complex64>,
    bz: &Mat<Complex64>,
    freq_hz: f64,
) -> Result<Mat<Complex64>, AcError> {
    let lu = Lu::new(k.to_dense()).map_err(|_| AcError::SingularAtFrequency { freq_hz })?;
    lu.solve_mat(bz)
        .map_err(|_| AcError::SingularAtFrequency { freq_hz })
}

/// Error returned by [`try_log_space`] / [`try_lin_space`] for an
/// invalid span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// What was wrong with the requested grid.
    pub reason: String,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid frequency grid: {}", self.reason)
    }
}

impl std::error::Error for GridError {}

/// Logarithmically spaced frequency grid (Hz) from `f_lo` to `f_hi`
/// (inclusive), strictly increasing and finite.
///
/// The fallible form of [`log_space`] (same formula): a bad span comes
/// back as a [`GridError`] instead of a panic, which is what
/// request-building code wants. Degenerate spans collapse instead of
/// duplicating: `points == 1` yields the single point `[f_lo]`, and
/// coincident endpoints (`f_lo == f_hi`) yield one point regardless of
/// `points` — callers that feed these grids programmatically (adaptive
/// multi-point placement) must never receive the same probe twice or a
/// probe outside `[f_lo, f_hi]`.
///
/// ```
/// use mpvl_sim::try_log_space;
/// let grid = try_log_space(1e6, 1e9, 4).unwrap();
/// assert_eq!(grid.len(), 4);
/// assert!((grid[0] - 1e6).abs() < 1e-6);
/// assert!(try_log_space(-1.0, 1e9, 4).is_err());
/// ```
///
/// # Errors
///
/// [`GridError`] unless `0 < f_lo <= f_hi` (finite) and `points >= 1`.
pub fn try_log_space(f_lo: f64, f_hi: f64, points: usize) -> Result<Vec<f64>, GridError> {
    grid(f_lo, f_hi, points, true)
}

/// Linearly spaced frequency grid (Hz) from `f_lo` to `f_hi`
/// (inclusive): the fallible form of [`lin_space`], collapsing
/// degenerate spans the same way as [`try_log_space`].
///
/// # Errors
///
/// [`GridError`] unless `f_lo <= f_hi` (finite) and `points >= 1`.
pub fn try_lin_space(f_lo: f64, f_hi: f64, points: usize) -> Result<Vec<f64>, GridError> {
    grid(f_lo, f_hi, points, false)
}

fn grid(f_lo: f64, f_hi: f64, points: usize, log: bool) -> Result<Vec<f64>, GridError> {
    let fail = |reason: String| Err(GridError { reason });
    if !(f_lo.is_finite() && f_hi.is_finite()) {
        return fail(format!("endpoints must be finite, got {f_lo} and {f_hi}"));
    }
    if log && f_lo <= 0.0 {
        return fail(format!("log grid needs a positive start, got {f_lo}"));
    }
    if f_hi < f_lo {
        return fail(format!("end {f_hi} must not be below start {f_lo}"));
    }
    if points == 0 {
        return fail("need at least 1 point".to_string());
    }
    if points == 1 || f_hi == f_lo {
        return Ok(vec![f_lo]);
    }
    let steps = (points - 1) as f64;
    Ok(if log {
        let l0 = f_lo.ln();
        let l1 = f_hi.ln();
        (0..points)
            .map(|i| (l0 + (l1 - l0) * i as f64 / steps).exp())
            .collect()
    } else {
        (0..points)
            .map(|i| f_lo + (f_hi - f_lo) * i as f64 / steps)
            .collect()
    })
}

/// Logarithmically spaced frequency grid from `f_lo` to `f_hi` (inclusive).
///
/// The panicking convenience form of [`try_log_space`].
///
/// # Panics
///
/// Panics unless `0 < f_lo <= f_hi` and `points >= 1`.
pub fn log_space(f_lo: f64, f_hi: f64, points: usize) -> Vec<f64> {
    try_log_space(f_lo, f_hi, points).unwrap_or_else(|e| panic!("{e}"))
}

/// Linearly spaced frequency grid from `f_lo` to `f_hi` (inclusive).
///
/// The panicking convenience form of [`try_lin_space`].
///
/// # Panics
///
/// Panics unless `f_lo <= f_hi` and `points >= 1`.
pub fn lin_space(f_lo: f64, f_hi: f64, points: usize) -> Vec<f64> {
    try_lin_space(f_lo, f_hi, points).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::{package, peec, rc_ladder, PackageParams, PeecParams};
    use mpvl_circuit::{Circuit, GROUND};

    #[test]
    fn freq_grid_matches_free_functions_bitwise() {
        // The fallible grids and their panicking forms evaluate the
        // closed-form spacing, bit for bit.
        let g = try_log_space(1e6, 1e10, 33).unwrap();
        let f = log_space(1e6, 1e10, 33);
        assert_eq!(g.len(), 33);
        let (l0, l1) = (1e6f64.ln(), 1e10f64.ln());
        for (i, (a, b)) in g.iter().zip(&f).enumerate() {
            let expect = (l0 + (l1 - l0) * i as f64 / 32.0).exp();
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), expect.to_bits());
        }
        let g = try_lin_space(2.5e8, 5e9, 17).unwrap();
        let f = lin_space(2.5e8, 5e9, 17);
        for (i, (a, b)) in g.iter().zip(&f).enumerate() {
            let expect = 2.5e8 + (5e9 - 2.5e8) * i as f64 / 16.0;
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn freq_grid_rejects_bad_spans() {
        assert!(try_log_space(0.0, 1e9, 4).is_err());
        assert!(try_log_space(-1.0, 1e9, 4).is_err());
        assert!(try_log_space(1e9, 1e6, 4).is_err());
        assert!(try_log_space(1e6, 1e9, 0).is_err());
        assert!(try_log_space(f64::NAN, 1e9, 4).is_err());
        assert!(try_log_space(1e6, f64::INFINITY, 4).is_err());
        assert!(try_lin_space(1e9, 1e6, 4).is_err());
        assert!(try_lin_space(1e6, 1e9, 0).is_err());
        assert!(try_lin_space(1e6, f64::NAN, 4).is_err());
        // Negative starts are fine for linear grids (e.g. sweep offsets).
        assert!(try_lin_space(-5.0, 5.0, 3).is_ok());
        let e = try_log_space(1e9, 1e6, 4).unwrap_err();
        assert!(e.to_string().contains("must not be below"));
    }

    #[test]
    fn freq_grid_degenerate_spans_collapse_without_duplicates() {
        // points == 1: exactly one probe, at the low endpoint.
        let g = try_log_space(1e6, 1e9, 1).unwrap();
        assert_eq!(g, [1e6]);
        let g = try_lin_space(2.5e8, 5e9, 1).unwrap();
        assert_eq!(g, [2.5e8]);

        // Coincident endpoints: one probe no matter how many were
        // requested (a repeated probe would double-count a frequency in
        // placement heuristics, and interpolating 0/0 spans would emit
        // NaN probes — both out of contract).
        for points in [1usize, 2, 7] {
            let g = try_log_space(3e8, 3e8, points).unwrap();
            assert_eq!(g, [3e8]);
            let g = try_lin_space(-2.0, -2.0, points).unwrap();
            assert_eq!(g, [-2.0]);
        }

        // Collapsed grids still honour the log-grid positivity rule.
        assert!(try_log_space(0.0, 0.0, 1).is_err());

        // Non-degenerate grids never contain duplicates or out-of-band
        // points, even for spans one ulp wide.
        let lo: f64 = 1e9;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let g = try_lin_space(lo, hi, 5).unwrap();
        for w in g.windows(2) {
            assert!(w[1] >= w[0]);
        }
        for &f in &g {
            assert!((lo..=hi).contains(&f));
        }
    }

    #[test]
    fn matches_dense_reference_on_rc() {
        let sys = MnaSystem::assemble(&rc_ladder(12, 75.0, 2e-12)).unwrap();
        let freqs = log_space(1e6, 1e10, 7);
        let pts = ac_sweep(&sys, &freqs).unwrap();
        for pt in &pts {
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * pt.freq_hz);
            let zref = sys.dense_z(s).unwrap();
            assert!(
                (pt.z[(0, 0)] - zref[(0, 0)]).abs() / zref[(0, 0)].abs() < 1e-10,
                "mismatch at {} Hz",
                pt.freq_hz
            );
        }
    }

    #[test]
    fn matches_dense_reference_on_rlc() {
        // Series RLC one-port.
        let mut ckt = Circuit::new();
        let n1 = ckt.add_node();
        let n2 = ckt.add_node();
        ckt.add_resistor("R1", n1, n2, 2.0);
        ckt.add_inductor("L1", n2, GROUND, 5e-9);
        ckt.add_capacitor("C1", n1, GROUND, 1e-12);
        ckt.add_port("p", n1, GROUND);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        for f in [1e7, 1e8, 3e9] {
            let pts = ac_sweep(&sys, &[f]).unwrap();
            let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
            let zref = sys.dense_z(s).unwrap();
            assert!((pts[0].z[(0, 0)] - zref[(0, 0)]).abs() / zref[(0, 0)].abs() < 1e-9);
        }
    }

    #[test]
    fn lc_sigma_form_sweeps() {
        let model = peec(&PeecParams {
            cells: 20,
            output_cell: 10,
            ..PeecParams::default()
        });
        let freqs = lin_space(1e8, 5e9, 9);
        let pts = ac_sweep(&model.system, &freqs).unwrap();
        for pt in &pts {
            assert!(pt.z[(0, 0)].is_finite());
            // Z of the sigma-form LC system is s * (real matrix), so the
            // entries are purely imaginary.
            assert!(
                pt.z[(0, 0)].re.abs() < 1e-9 * pt.z[(0, 0)].abs().max(1e-30),
                "LC impedance should be reactive"
            );
        }
    }

    #[test]
    fn package_sweep_runs_at_scale() {
        let ckt = package(&PackageParams {
            pins: 8,
            signal_pins: vec![0, 4],
            sections: 4,
            ..PackageParams::default()
        });
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        let pts = ac_sweep(&sys, &log_space(1e7, 2e10, 5)).unwrap();
        assert_eq!(pts.len(), 5);
        for pt in &pts {
            // Reciprocity: Z must be symmetric.
            let z = &pt.z;
            let mut worst = 0.0f64;
            for i in 0..z.nrows() {
                for j in 0..i {
                    worst = worst.max((z[(i, j)] - z[(j, i)]).abs() / z[(i, j)].abs().max(1e-30));
                }
            }
            assert!(worst < 1e-8, "asymmetry {worst} at {} Hz", pt.freq_hz);
        }
    }

    #[test]
    fn retained_sweeper_bit_identical_to_free_function() {
        let sys = MnaSystem::assemble(&rc_ladder(20, 50.0, 1e-12)).unwrap();
        let freqs = log_space(1e6, 1e10, 11);
        let free = mpvl_par::with_threads(1, || ac_sweep(&sys, &freqs)).unwrap();
        let sweeper = AcSweeper::new(&sys);
        // Two sweeps through the same sweeper: both must match the free
        // function exactly (the retained symbolic analysis changes no bits).
        for _ in 0..2 {
            let kept = mpvl_par::with_threads(1, || sweeper.sweep(&freqs)).unwrap();
            assert_eq!(kept.len(), free.len());
            for (a, b) in kept.iter().zip(&free) {
                assert_eq!(a.freq_hz.to_bits(), b.freq_hz.to_bits());
                for j in 0..a.z.ncols() {
                    for (x, y) in a.z.col(j).iter().zip(b.z.col(j)) {
                        assert_eq!(x.re.to_bits(), y.re.to_bits(), "re at {} Hz", a.freq_hz);
                        assert_eq!(x.im.to_bits(), y.im.to_bits(), "im at {} Hz", a.freq_hz);
                    }
                }
            }
        }
    }

    #[test]
    fn grids() {
        let l = log_space(1.0, 1000.0, 4);
        assert!((l[1] - 10.0).abs() < 1e-9 && (l[2] - 100.0).abs() < 1e-6);
        let n = lin_space(0.0, 3.0, 4);
        assert_eq!(n, vec![0.0, 1.0, 2.0, 3.0]);
    }
}
