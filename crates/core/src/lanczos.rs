//! The symmetric block-Lanczos process with deflation and look-ahead
//! (Algorithm 1 of the paper).
//!
//! Given the factorization `G + s₀C = M J Mᵀ` (eq. 15), the process runs on
//! the recurrence operator `Â = J A`, `A = M⁻¹ C M⁻ᵀ` (eq. 17), starting
//! from the block `J M⁻¹ B` (step 0). It produces
//!
//! * Lanczos vectors `v₁, …, vₙ` of unit 2-norm that are **J-orthogonal
//!   cluster-wise** (eq. 16): `Δₙ = VₙᵀJVₙ` is block diagonal,
//! * the banded recurrence matrix `Tₙ` with `Â Vₙ = Vₙ Tₙ + (remainder)`,
//! * the starting-block coefficients `ρ` with `J M⁻¹ B = Vₚ₁ ρ`,
//!
//! from which the matrix-Padé approximant is
//! `Zₙ(x) = ρₙᵀ (Δₙ⁻¹ + x Tₙ Δₙ⁻¹)⁻¹ ρₙ = ρₙᵀ Δₙ (I + x Tₙ)⁻¹ ρₙ`
//! (eq. 19), where `x = σ − s₀`.
//!
//! **Deflation** (steps 1c–1g): a candidate whose norm collapses after
//! orthogonalization is linearly dependent on the current space; it is
//! dropped and the block size `p_c` shrinks. **Look-ahead** (steps 1i–2d):
//! with indefinite `J` the cluster Gram matrix `Δ^{(γ)}` can be singular;
//! vectors accumulate in the open cluster (kept orthonormal in the plain
//! inner product) until `Δ^{(γ)}` becomes well-conditioned and the cluster
//! closes. For `J = I` every cluster is a singleton and the process is the
//! classical symmetric block Lanczos iteration.
//!
//! This implementation optionally performs **full re-J-orthogonalization**
//! against all closed clusters (default), trading the paper's banded-cost
//! recurrence for robustness; the exact-arithmetic output is identical,
//! and the banded mode is available for the cost ablation.
//!
//! ## Hot-path structure
//!
//! The operator is a [`LinearOperator`], not a boxed closure, so the
//! process can apply it to a *block* of vectors at once: successor
//! candidates `Â v` are generated lazily, in two places only — whenever
//! the candidate queue runs dry (every accepted-but-ungenerated vector
//! at once), and once at the end of [`BlockLanczos::run`], so that
//! [`BlockLanczos::outcome`] and a resumed `run` never apply the
//! operator to a vector twice. Each generation applies the operator in
//! [`ROW_SOLVE_WIDTH`]-column [`LinearOperator::apply_block`] calls;
//! with `J = I` and `p` ports that is `p` columns per generation, where
//! generating at every (singleton) cluster close gave one. Because
//! successors always enter the queue in acceptance order under any
//! schedule, the FIFO pop sequence (and hence every FP operation,
//! coefficient, and obs counter) is identical to eager per-acceptance
//! generation. All per-candidate scratch — the `J∘w` vector, the
//! cluster-projection right-hand side, the candidate buffers themselves,
//! and one `N × ROW_SOLVE_WIDTH` block-apply staging pair — lives in a
//! [`Workspace`] reused across the whole run; the steady-state inner
//! loop performs no `Vec` allocation. With `J = I` (RC, RL and LC
//! circuits) the projections read the candidate directly instead of
//! staging `J∘w`: `x * 1.0 == x` exactly, so the bits are the same
//! without an N-long copy per closed cluster and pass.
//!
//! ## Resumability
//!
//! The process is a state machine, [`BlockLanczos`]: `run(op, n)` accepts
//! vectors until `n` are held (or the space is exhausted), and
//! `outcome()` assembles a [`LanczosOutcome`] at the current order
//! without consuming the state, so a later `run(op, n₂)` continues where
//! the first left off. This is bit-identical to a from-scratch run at the
//! larger order because the target order never enters the arithmetic: it
//! only decides *when to stop accepting* (and when the trailing-column
//! coefficient flush begins). `outcome` therefore performs the flush on a
//! *clone* of the coefficient state — the retained state never observes
//! it. The free function [`block_lanczos`] is `new` + `run` + `outcome`.

use mpvl_la::{sym_eigen, Lu, Mat};
use mpvl_sparse::ROW_SOLVE_WIDTH;
use std::collections::VecDeque;

/// A symmetric linear operator `x ↦ A x` applied into caller-owned
/// storage — the interface the Lanczos process drives.
///
/// Implementations must be pure (the same `x` always produces the same
/// `y`, bit for bit) and must write every element of `y`. Internal
/// scratch, if any, is owned by the operator (interior mutability
/// behind `&self`); callers never pass workspaces through this trait.
pub trait LinearOperator {
    /// The dimension `N` of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`. Both slices are `dim()` long.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);

    /// Computes `Y = A X` column by column.
    ///
    /// The default loops [`LinearOperator::apply_into`] over the
    /// columns; implementations with a cheaper multi-RHS path (e.g. a
    /// single sparse traversal serving every column) may override it,
    /// **provided each output column stays bit-identical to a
    /// columnwise `apply_into`** — the Lanczos process relies on block
    /// and scalar application being interchangeable.
    fn apply_block(&self, x: &Mat<f64>, y: &mut Mat<f64>) {
        assert_eq!(x.ncols(), y.ncols(), "column count mismatch");
        for j in 0..x.ncols() {
            self.apply_into(x.col(j), y.col_mut(j));
        }
    }
}

/// Dense matrices are operators (used by tests and the dense baselines).
impl LinearOperator for Mat<f64> {
    fn dim(&self) -> usize {
        self.nrows()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// Tuning knobs for [`block_lanczos`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Relative deflation tolerance `dtol` (step 1c): a candidate is
    /// deflated when orthogonalization reduces its norm below
    /// `dtol × (norm at creation)`.
    pub dtol: f64,
    /// A cluster closes when `min|eig(Δ^{(γ)})| > cluster_tol`.
    pub cluster_tol: f64,
    /// Orthogonalize new candidates against *all* closed clusters (true)
    /// or only the paper's banded window (false).
    pub full_reorth: bool,
    /// Hard cap on cluster size; a cluster is force-closed beyond this
    /// (guards against pathological non-terminating look-ahead).
    pub max_cluster: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            dtol: 1e-8,
            cluster_tol: 1e-10,
            full_reorth: true,
            max_cluster: 6,
        }
    }
}

/// Where a candidate vector came from (decides which coefficient matrix a
/// subtraction is recorded in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Column `j` of the starting block → coefficients go to `ρ[·, j]`.
    Init(usize),
    /// Operator applied to Lanczos vector `i` → coefficients go to `T[·, i]`.
    Vector(usize),
}

#[derive(Clone)]
struct Candidate {
    w: Vec<f64>,
    src: Src,
    /// Norm at creation time; the deflation test is relative to it.
    orig_norm: f64,
}

/// Reusable scratch for the Lanczos inner loop. Everything sized `N` or
/// `max_cluster` is allocated once (or recycled) and reused for every
/// candidate, so the steady-state per-candidate path is allocation-free.
/// Every buffer is fully overwritten before each read, so a fresh
/// workspace and a long-lived one produce identical bits.
struct Workspace {
    /// `J ∘ w` staging for the cluster projections (unused when J = I).
    jw: Vec<f64>,
    /// Cluster-projection right-hand side, solved to coefficients in
    /// place via [`Lu::solve_in_place`] (capacity `max_cluster`).
    coef: Vec<f64>,
    /// Recycled candidate buffers (from deflated / flushed candidates).
    pool: Vec<Vec<f64>>,
    /// Block-apply staging `(V_chunk, A·V_chunk)`, at most
    /// `N × ROW_SOLVE_WIDTH` each, resized in place per chunk.
    batch: (Mat<f64>, Mat<f64>),
}

impl Workspace {
    fn new(big_n: usize, max_cluster: usize) -> Self {
        Workspace {
            jw: vec![0.0; big_n],
            coef: Vec::with_capacity(max_cluster.max(1)),
            pool: Vec::new(),
            batch: (Mat::zeros(big_n, 0), Mat::zeros(big_n, 0)),
        }
    }
}

/// Output of [`block_lanczos`].
#[derive(Debug, Clone)]
pub struct LanczosOutcome {
    /// Accepted Lanczos vectors (unit 2-norm), as columns.
    pub v: Mat<f64>,
    /// The `n × n` recurrence matrix `Tₙ`.
    pub t: Mat<f64>,
    /// The block-diagonal `Δₙ = VₙᵀJVₙ`.
    pub delta: Mat<f64>,
    /// Starting-block coefficients, `n × p` (only leading rows nonzero).
    pub rho: Mat<f64>,
    /// `p₁`: starting-block columns that survived deflation.
    pub p1: usize,
    /// Iteration indices at which deflations occurred.
    pub deflation_steps: Vec<usize>,
    /// Closed-cluster index sets, in order.
    pub clusters: Vec<Vec<usize>>,
    /// `true` when the block size hit zero: the Krylov space is exhausted
    /// and the reduced model is exact (step 1d).
    pub exhausted: bool,
    /// Number of clusters that had to be force-closed (see
    /// [`LanczosOptions::max_cluster`]); nonzero values flag a
    /// near-breakdown that look-ahead could not fully resolve.
    pub forced_cluster_closes: usize,
}

impl LanczosOutcome {
    /// The achieved order `n` (may be less than requested after deflation
    /// or exhaustion).
    pub fn order(&self) -> usize {
        self.t.nrows()
    }
}

/// Generates queue candidates `J·A·vᵢ` for the accepted vectors
/// `vectors[*gen_upto..upto]`, in blocked operator applications of at
/// most [`ROW_SOLVE_WIDTH`] columns, and advances the generation frontier.
///
/// Generation is deferred (to queue underruns and the end of a run)
/// rather than eager (per acceptance), but candidates are pure
/// functions of frozen accepted vectors and always enqueue in index
/// order, so the FIFO pop sequence — and with it every downstream FP
/// operation — is identical to the eager schedule.
fn generate_successors<O: LinearOperator + ?Sized>(
    op: &O,
    j_diag: &[f64],
    vectors: &[Vec<f64>],
    gen_upto: &mut usize,
    upto: usize,
    queue: &mut VecDeque<Candidate>,
    ws: &mut Workspace,
) {
    let big_n = j_diag.len();
    for lo in (*gen_upto..upto).step_by(ROW_SOLVE_WIDTH) {
        let m = ROW_SOLVE_WIDTH.min(upto - lo);
        let (vb, avb) = &mut ws.batch;
        {
            let _span = mpvl_obs::span("lanczos", "operator_apply");
            vb.resize_cols(m);
            avb.resize_cols(m);
            for c in 0..m {
                vb.col_mut(c).copy_from_slice(&vectors[lo + c]);
            }
            op.apply_block(vb, avb);
        }
        for c in 0..m {
            let mut w = ws.pool.pop().unwrap_or_else(|| vec![0.0; big_n]);
            for (wi, (&x, &s)) in w.iter_mut().zip(avb.col(c).iter().zip(j_diag)) {
                *wi = x * s;
            }
            let orig_norm = mpvl_la::norm2(&w);
            queue.push_back(Candidate {
                w,
                src: Src::Vector(lo + c),
                orig_norm,
            });
        }
    }
    *gen_upto = upto;
}

/// Record a subtraction coefficient into T or rho.
fn record(t_coef: &mut Mat<f64>, rho: &mut Mat<f64>, row: usize, src: Src, val: f64) {
    match src {
        Src::Init(col) => rho[(row, col)] += val,
        Src::Vector(col) => t_coef[(row, col)] += val,
    }
}

/// The candidate-processing kernel shared by the accepting phase
/// ([`BlockLanczos::run`]) and the coefficient flush
/// ([`BlockLanczos::outcome`]): J-orthogonalize against the closed
/// clusters (twice for hygiene), plain-orthonormalize against the open
/// cluster, and record every subtraction coefficient into `t_coef`/`rho`.
///
/// In banded mode, the closed-cluster sweep is restricted to the trailing
/// window of clusters that the three-term structure actually couples to
/// (those covering indices >= first index of the source's own window).
#[allow(clippy::too_many_arguments)]
fn orthogonalize_candidate(
    opts: &LanczosOptions,
    j_diag: &[f64],
    identity_j: bool,
    p: usize,
    vectors: &[Vec<f64>],
    closed: &[Vec<usize>],
    closed_delta_lu: &[Lu<f64>],
    open: &[usize],
    ws: &mut Workspace,
    cand: &mut Candidate,
    t_coef: &mut Mat<f64>,
    rho: &mut Mat<f64>,
) {
    let window_start = if opts.full_reorth {
        0
    } else {
        let anchor = match cand.src {
            Src::Init(_) => 0,
            Src::Vector(i) => i.saturating_sub(2 * p + 2),
        };
        closed
            .iter()
            .position(|c| c.iter().any(|&idx| idx >= anchor))
            .unwrap_or(closed.len())
    };
    let _ortho_span = mpvl_obs::span("lanczos", "orthogonalize");
    for _pass in 0..2 {
        for (k, cluster) in closed.iter().enumerate().skip(window_start) {
            // rhs = V_k^T (J ∘ w), solved in place against Δ^{(k)}. With
            // J = I, `x * 1.0 == x` bit for bit, so w itself is J ∘ w.
            let jw = if identity_j {
                &cand.w
            } else {
                for (ji, (&x, &s)) in ws.jw.iter_mut().zip(cand.w.iter().zip(j_diag)) {
                    *ji = x * s;
                }
                &ws.jw
            };
            ws.coef.clear();
            ws.coef
                .extend(cluster.iter().map(|&i| mpvl_la::dot(&vectors[i], jw)));
            closed_delta_lu[k]
                .solve_in_place(&mut ws.coef)
                .expect("closed cluster Delta is invertible");
            for (ci, &i) in cluster.iter().enumerate() {
                if ws.coef[ci] != 0.0 {
                    mpvl_la::axpy(-ws.coef[ci], &vectors[i], &mut cand.w);
                    record(t_coef, rho, i, cand.src, ws.coef[ci]);
                }
            }
        }
        // --- Plain orthonormalization against the open cluster
        // (step 1b: the open cluster's J-Gram is singular, so plain
        // projections keep its raw vectors independent).
        for &i in open {
            let tau = mpvl_la::dot(&vectors[i], &cand.w);
            if tau != 0.0 {
                mpvl_la::axpy(-tau, &vectors[i], &mut cand.w);
                record(t_coef, rho, i, cand.src, tau);
            }
        }
        if identity_j && !opts.full_reorth {
            break; // single pass suffices for the cheap banded mode
        }
    }
}

/// The block-Lanczos process as a resumable state machine.
///
/// Construct with [`BlockLanczos::new`], advance with
/// [`BlockLanczos::run`], and read results with
/// [`BlockLanczos::outcome`] — which does not consume the state, so the
/// same instance can be escalated to a higher order later (the
/// session engine's incremental adaptive path). Pausing and resuming is
/// **bit-identical** to a single from-scratch run at the final order:
/// the target order only gates when acceptance stops, never what is
/// computed (see the module docs).
///
/// The operator is passed to `run` rather than stored, so the
/// state itself is `'static` and can outlive borrowed operators (e.g.
/// live in a cache next to the factorization it was built from). Every
/// `run` must pass an operator that computes the same map bit-for-bit.
pub struct BlockLanczos {
    opts: LanczosOptions,
    j_diag: Vec<f64>,
    identity_j: bool,
    big_n: usize,
    p: usize,
    /// Coefficient storage; grown by [`BlockLanczos::run`] to
    /// `target.min(N) + 1` rows (growth copies bits, never values).
    t_coef: Mat<f64>,
    rho: Mat<f64>,
    vectors: Vec<Vec<f64>>,
    // Cluster bookkeeping.
    closed: Vec<Vec<usize>>,
    closed_delta: Vec<Mat<f64>>,
    closed_delta_lu: Vec<Lu<f64>>,
    open: Vec<usize>,
    forced_cluster_closes: usize,
    ws: Workspace,
    /// Successors exist for `vectors[..gen_upto]`; the frontier advances
    /// monotonically at queue underruns and at the end of each `run`.
    gen_upto: usize,
    /// Candidate queue; block size p_c = queue length.
    queue: VecDeque<Candidate>,
    p1: usize,
    deflation_steps: Vec<usize>,
    exhausted: bool,
    iter_count: usize,
}

impl BlockLanczos {
    /// Seeds the process from the starting block `M⁻¹B` (`N × p`); no
    /// operator application happens yet.
    ///
    /// # Panics
    ///
    /// Panics if `start` is empty or its row count disagrees with
    /// `j_diag`.
    pub fn new(j_diag: &[f64], start: &Mat<f64>, opts: &LanczosOptions) -> Self {
        let big_n = start.nrows();
        let p = start.ncols();
        assert!(p > 0, "starting block must have at least one column");
        assert_eq!(big_n, j_diag.len(), "dimension mismatch");
        let identity_j = j_diag.iter().all(|&s| s == 1.0);

        let mut queue: VecDeque<Candidate> = VecDeque::with_capacity(p);
        for jcol in 0..p {
            let col = start.col(jcol);
            let w: Vec<f64> = col.iter().zip(j_diag).map(|(&x, &s)| x * s).collect();
            let orig_norm = mpvl_la::norm2(&w);
            queue.push_back(Candidate {
                w,
                src: Src::Init(jcol),
                orig_norm,
            });
        }

        BlockLanczos {
            opts: opts.clone(),
            j_diag: j_diag.to_vec(),
            identity_j,
            big_n,
            p,
            t_coef: Mat::zeros(0, 0),
            rho: Mat::zeros(0, p),
            vectors: Vec::new(),
            closed: Vec::new(),
            closed_delta: Vec::new(),
            closed_delta_lu: Vec::new(),
            open: Vec::new(),
            forced_cluster_closes: 0,
            ws: Workspace::new(big_n, opts.max_cluster),
            gen_upto: 0,
            queue,
            p1: p,
            deflation_steps: Vec::new(),
            exhausted: false,
            iter_count: 0,
        }
    }

    /// Number of Lanczos vectors accepted so far (closed + open clusters).
    pub fn accepted(&self) -> usize {
        self.vectors.len()
    }

    /// Number of accepted vectors inside *closed* clusters — the order an
    /// [`BlockLanczos::outcome`] taken now would have.
    pub fn closed_count(&self) -> usize {
        self.closed.iter().map(|c| c.len()).sum()
    }

    /// `true` once the Krylov space is exhausted: further `run` calls
    /// cannot accept more vectors and the model is exact.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Grows the coefficient storage to hold `target` accepted vectors
    /// (plus the trailing flush row). A pure bit-copy: existing
    /// coefficients are untouched, new cells are the zeros they would
    /// have been allocated as up front.
    fn ensure_capacity(&mut self, target: usize) {
        let cap = target.min(self.big_n) + 1;
        if self.t_coef.nrows() >= cap {
            return;
        }
        let mut t = Mat::zeros(cap, cap);
        for i in 0..self.t_coef.nrows() {
            for j in 0..self.t_coef.ncols() {
                t[(i, j)] = self.t_coef[(i, j)];
            }
        }
        self.t_coef = t;
        let mut r = Mat::zeros(cap, self.p);
        for i in 0..self.rho.nrows() {
            for j in 0..self.p {
                r[(i, j)] = self.rho[(i, j)];
            }
        }
        self.rho = r;
    }

    /// Accepts vectors until `target_order` are held (or the space is
    /// exhausted). Calling with a target at or below the current
    /// [`BlockLanczos::accepted`] count is a no-op; calling again with a
    /// larger target continues the same process, bit-identically to
    /// having asked for the larger order up front.
    ///
    /// # Panics
    ///
    /// Panics if `op.dim()` disagrees with the starting block.
    pub fn run<O: LinearOperator + ?Sized>(&mut self, op: &O, target_order: usize) {
        assert_eq!(self.big_n, op.dim(), "operator dimension mismatch");
        let target = target_order.min(self.big_n);
        self.ensure_capacity(target);
        loop {
            if self.exhausted || self.vectors.len() >= target {
                break;
            }
            let mut cand = match self.queue.pop_front() {
                Some(cand) => cand,
                None if self.gen_upto < self.vectors.len() => {
                    // Deferred successors remain; materialize them (this is
                    // exactly where the eager schedule would have had them
                    // queued already) and re-pop.
                    generate_successors(
                        op,
                        &self.j_diag,
                        &self.vectors,
                        &mut self.gen_upto,
                        self.vectors.len(),
                        &mut self.queue,
                        &mut self.ws,
                    );
                    self.queue
                        .pop_front()
                        .expect("successors were just generated")
                }
                None => {
                    self.exhausted = true;
                    break;
                }
            };
            self.iter_count += 1;

            orthogonalize_candidate(
                &self.opts,
                &self.j_diag,
                self.identity_j,
                self.p,
                &self.vectors,
                &self.closed,
                &self.closed_delta_lu,
                &self.open,
                &mut self.ws,
                &mut cand,
                &mut self.t_coef,
                &mut self.rho,
            );

            // --- Deflation test (step 1c).
            let nrm = mpvl_la::norm2(&cand.w);
            if nrm <= self.opts.dtol * cand.orig_norm.max(f64::MIN_POSITIVE) {
                self.deflation_steps.push(self.iter_count);
                if mpvl_obs::enabled() {
                    mpvl_obs::counter_add("lanczos", "deflations", 1);
                    mpvl_obs::event_at(
                        "lanczos",
                        "deflation",
                        self.iter_count as u64,
                        vec![
                            (
                                "src",
                                mpvl_obs::Value::Str(match cand.src {
                                    Src::Init(_) => "init",
                                    Src::Vector(_) => "vector",
                                }),
                            ),
                            (
                                "rel_norm",
                                mpvl_obs::Value::F64(nrm / cand.orig_norm.max(f64::MIN_POSITIVE)),
                            ),
                        ],
                    );
                }
                if matches!(cand.src, Src::Init(_)) {
                    self.p1 -= 1;
                }
                self.ws.pool.push(cand.w);
                if self.queue.is_empty() && self.gen_upto == self.vectors.len() {
                    self.exhausted = true;
                    break;
                }
                continue;
            }

            // --- Accept (step 1h).
            let idx = self.vectors.len();
            record(&mut self.t_coef, &mut self.rho, idx, cand.src, nrm);
            let mut v = cand.w;
            mpvl_la::scal(1.0 / nrm, &mut v);
            self.vectors.push(v);
            self.open.push(idx);

            // --- Cluster-completion check (step 2).
            let m = self.open.len();
            let mut dmat = Mat::zeros(m, m);
            for (a, &ia) in self.open.iter().enumerate() {
                for (b, &ib) in self.open.iter().enumerate() {
                    let jw: f64 = self.vectors[ia]
                        .iter()
                        .zip(&self.vectors[ib])
                        .zip(&self.j_diag)
                        .map(|((&x, &y), &s)| x * s * y)
                        .sum();
                    dmat[(a, b)] = jw;
                }
            }
            // `forced` flags a cluster that hit `max_cluster` while its Gram
            // matrix was still ill-conditioned — the near-breakdown that
            // look-ahead could not fully resolve.
            let (close_now, forced) = if self.identity_j {
                (true, false)
            } else {
                let eig = sym_eigen(&dmat).expect("tiny symmetric eigenproblem");
                let min_abs = eig
                    .values
                    .iter()
                    .map(|v| v.abs())
                    .fold(f64::INFINITY, f64::min);
                let well_conditioned = min_abs > self.opts.cluster_tol;
                (
                    well_conditioned || m >= self.opts.max_cluster,
                    !well_conditioned && m >= self.opts.max_cluster,
                )
            };
            if close_now {
                if forced {
                    self.forced_cluster_closes += 1;
                }
                if mpvl_obs::enabled() {
                    mpvl_obs::counter_add("lanczos", "clusters_closed", 1);
                    if forced {
                        mpvl_obs::counter_add("lanczos", "forced_cluster_closes", 1);
                    }
                    mpvl_obs::event_at(
                        "lanczos",
                        "cluster_close",
                        self.iter_count as u64,
                        vec![
                            ("size", mpvl_obs::Value::U64(m as u64)),
                            ("forced", mpvl_obs::Value::Bool(forced)),
                        ],
                    );
                }
                self.closed_delta_lu
                    .push(Lu::new(dmat.clone()).expect("cluster Gram invertible"));
                self.closed_delta.push(dmat);
                self.closed.push(std::mem::take(&mut self.open));
            }
        }
        // --- New candidates (step 3a): w = J · A vᵢ for every accepted
        // vector whose successor is still pending, so `outcome` and a
        // resumed `run` find them queued and never apply the operator.
        generate_successors(
            op,
            &self.j_diag,
            &self.vectors,
            &mut self.gen_upto,
            self.vectors.len(),
            &mut self.queue,
            &mut self.ws,
        );
    }

    /// Assembles the [`LanczosOutcome`] at the current state, truncated
    /// to the last *closed* cluster so `Δₙ` is always invertible.
    ///
    /// The candidates still in flight carry the trailing columns of `Tₙ`
    /// (the paper computes `t_{·,n−p_c+1..n}` during iterations
    /// `n+1..n+p_c`); this flush runs on a **clone** of the coefficient
    /// state and queue, so the retained state is untouched and a later
    /// [`BlockLanczos::run`] continues exactly as if no outcome had been
    /// taken. `run` leaves every successor generated, so the flush needs
    /// no operator.
    pub fn outcome(&self) -> LanczosOutcome {
        let mut t_coef = self.t_coef.clone();
        let mut rho = self.rho.clone();
        let mut queue = self.queue.clone();
        let mut iter_count = self.iter_count;
        let mut ws = Workspace::new(self.big_n, self.opts.max_cluster);
        debug_assert_eq!(self.gen_upto, self.vectors.len());

        // --- Flush: only the coefficients matter; each remainder is the
        // Lanczos truncation residual and is dropped.
        while let Some(mut cand) = queue.pop_front() {
            iter_count += 1;
            orthogonalize_candidate(
                &self.opts,
                &self.j_diag,
                self.identity_j,
                self.p,
                &self.vectors,
                &self.closed,
                &self.closed_delta_lu,
                &self.open,
                &mut ws,
                &mut cand,
                &mut t_coef,
                &mut rho,
            );
            ws.pool.push(cand.w);
        }

        // --- Truncate to the last closed cluster so Δ is invertible.
        let n: usize = self.closed.iter().map(|c| c.len()).sum();
        if mpvl_obs::enabled() {
            mpvl_obs::counter_add("lanczos", "iterations", iter_count as u64);
            mpvl_obs::counter_add("lanczos", "accepted_vectors", n as u64);
            if self.exhausted {
                mpvl_obs::counter_add("lanczos", "exhausted", 1);
            }
        }
        let mut v = Mat::zeros(self.big_n, n);
        for (k, vec) in self.vectors.iter().take(n).enumerate() {
            v.col_mut(k).copy_from_slice(vec);
        }
        let t = t_coef.submatrix(0, n, 0, n);
        let rho_out = rho.submatrix(0, n, 0, self.p);
        let mut delta = Mat::zeros(n, n);
        for (k, cluster) in self.closed.iter().enumerate() {
            let d = &self.closed_delta[k];
            for (a, &ia) in cluster.iter().enumerate() {
                for (b, &ib) in cluster.iter().enumerate() {
                    if ia < n && ib < n {
                        delta[(ia, ib)] = d[(a, b)];
                    }
                }
            }
        }
        LanczosOutcome {
            v,
            t,
            delta,
            rho: rho_out,
            p1: self.p1,
            deflation_steps: self.deflation_steps.clone(),
            clusters: self.closed.clone(),
            exhausted: self.exhausted,
            forced_cluster_closes: self.forced_cluster_closes,
        }
    }
}

/// Runs the symmetric block-Lanczos process.
///
/// * `op` — applies `A = M⁻¹ C M⁻ᵀ` (see [`LinearOperator`]).
/// * `j_diag` — the signature `J = diag(±1)` from the `G = M J Mᵀ`
///   factorization.
/// * `start` — the block `M⁻¹B` (`N × p`).
/// * `max_order` — iterate until `n = max_order` vectors are accepted (or
///   the space is exhausted).
///
/// The returned outcome is truncated to the last *closed* cluster so that
/// `Δₙ` is always invertible.
///
/// This is the one-shot convenience wrapper over [`BlockLanczos`]:
/// `new` + `run(max_order)` + `outcome`.
///
/// # Panics
///
/// Panics if `start` is empty or dimensions disagree with `j_diag` or
/// `op.dim()`.
pub fn block_lanczos<O: LinearOperator + ?Sized>(
    op: &O,
    j_diag: &[f64],
    start: &Mat<f64>,
    max_order: usize,
    opts: &LanczosOptions,
) -> LanczosOutcome {
    let _span = mpvl_obs::span("lanczos", "block_lanczos");
    assert_eq!(start.nrows(), op.dim(), "operator dimension mismatch");
    let mut state = BlockLanczos::new(j_diag, start, opts);
    state.run(op, max_order);
    state.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_la::Mat;

    fn spd_test_matrix(n: usize) -> Mat<f64> {
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + (i as f64) * 0.13
            } else if i.abs_diff(j) == 1 {
                -0.6
            } else if i.abs_diff(j) == 3 {
                0.2
            } else {
                0.0
            }
        })
    }

    /// Exact bitwise equality (distinguishes -0.0/0.0, total on NaN).
    fn assert_bits_eq(a: &Mat<f64>, b: &Mat<f64>, what: &str) {
        assert_eq!(a.nrows(), b.nrows(), "{what}: row count");
        assert_eq!(a.ncols(), b.ncols(), "{what}: col count");
        for j in 0..a.ncols() {
            for (i, (x, y)) in a.col(j).iter().zip(b.col(j)).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: bit mismatch at ({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn default_apply_block_matches_columnwise_apply_into() {
        let a = spd_test_matrix(9);
        let x = Mat::from_fn(9, 4, |i, j| ((i * 7 + j * 3) as f64 * 0.31).sin());
        let mut blocked = Mat::zeros(9, 4);
        a.apply_block(&x, &mut blocked);
        let mut col = vec![0.0; 9];
        for j in 0..4 {
            a.apply_into(x.col(j), &mut col);
            assert_eq!(blocked.col(j), &col[..], "column {j}");
        }
    }

    #[test]
    fn identity_j_produces_orthonormal_vectors() {
        let n = 12;
        let a = spd_test_matrix(n);
        let j = vec![1.0; n];
        let start = Mat::from_fn(n, 2, |i, jc| ((i + jc * 3) as f64 * 0.7).sin() + 0.1);
        let out = block_lanczos(&a, &j, &start, 8, &LanczosOptions::default());
        assert_eq!(out.order(), 8);
        let vtv = out.v.t_matmul(&out.v);
        assert!(
            (&vtv - &Mat::identity(8)).max_abs() < 1e-12,
            "V not orthonormal"
        );
        assert!((&out.delta - &Mat::identity(8)).max_abs() < 1e-12);
        assert!(out.clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn recurrence_residual_av_equals_vt() {
        // A V_n = V_n T_n must hold on all but the trailing block columns.
        let n = 14;
        let a = spd_test_matrix(n);
        let j = vec![1.0; n];
        let p = 2;
        let start = Mat::from_fn(n, p, |i, jc| {
            if i == jc {
                1.0
            } else {
                0.1 * (i as f64 + 1.0).recip()
            }
        });
        let out = block_lanczos(&a, &j, &start, 8, &LanczosOptions::default());
        let av = a.matmul(&out.v);
        let vt = out.v.matmul(&out.t);
        // Columns 0..n-p are fully expanded; trailing p columns carry the
        // not-yet-accepted remainder.
        for col in 0..out.order() - p {
            for row in 0..n {
                assert!(
                    (av[(row, col)] - vt[(row, col)]).abs() < 1e-10,
                    "residual at ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn start_block_reproduced_by_rho() {
        let n = 10;
        let a = spd_test_matrix(n);
        let j = vec![1.0; n];
        // LCG fill: three genuinely independent columns (a phase-shifted
        // cosine fill would be rank 2 by the angle-sum identity).
        let mut seed = 99u64;
        let mut rng = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let start = Mat::from_fn(n, 3, |_, _| rng());
        let out = block_lanczos(&a, &j, &start, 9, &LanczosOptions::default());
        // J M^{-1} B = V rho; here J = I and "M^{-1}B" is `start`.
        let rec = out.v.matmul(&out.rho);
        assert!(
            (&rec - &start).max_abs() < 1e-11,
            "start block not reproduced: {}",
            (&rec - &start).max_abs()
        );
        assert_eq!(out.p1, 3);
    }

    #[test]
    fn deflation_detects_dependent_start_columns() {
        let n = 10;
        let a = spd_test_matrix(n);
        let j = vec![1.0; n];
        // Third column = sum of the first two: must deflate, p1 = 2.
        let mut start = Mat::from_fn(n, 3, |i, jc| ((i + 2 * jc) as f64).sin() + 0.2);
        for i in 0..n {
            let s = start[(i, 0)] + start[(i, 1)];
            start[(i, 2)] = s;
        }
        let out = block_lanczos(&a, &j, &start, 6, &LanczosOptions::default());
        assert_eq!(out.p1, 2);
        assert_eq!(out.deflation_steps.len(), 1);
    }

    #[test]
    fn exhaustion_on_small_invariant_subspace() {
        // Diagonal A with starting vector touching only 3 coordinates:
        // the Krylov space has dimension 3 and the process must stop there.
        let n = 8;
        let a = Mat::from_diag(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let j = vec![1.0; n];
        let mut start = Mat::zeros(n, 1);
        start[(0, 0)] = 1.0;
        start[(3, 0)] = 1.0;
        start[(5, 0)] = 1.0;
        let out = block_lanczos(&a, &j, &start, 8, &LanczosOptions::default());
        assert!(out.exhausted);
        assert_eq!(out.order(), 3);
    }

    #[test]
    fn indefinite_j_clusters_and_block_delta() {
        // Signature J with mixed signs forces the look-ahead machinery.
        let n = 12;
        let a = spd_test_matrix(n);
        let j: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let start = Mat::from_fn(n, 2, |i, jc| ((i * 3 + jc * 5) as f64 * 0.17).sin() + 0.05);
        let out = block_lanczos(&a, &j, &start, 8, &LanczosOptions::default());
        let order = out.order();
        assert!(order >= 4, "made progress despite indefinite J");
        // Check block J-orthogonality: V^T J V = Delta (block diagonal),
        // and cross-cluster entries vanish.
        let jv = Mat::from_fn(n, order, |i, k| j[i] * out.v[(i, k)]);
        let vjv = out.v.t_matmul(&jv);
        assert!(
            (&vjv - &out.delta).max_abs() < 1e-10,
            "Delta mismatch: {}",
            (&vjv - &out.delta).max_abs()
        );
        // Delta invertible.
        assert!(Lu::new(out.delta.clone()).is_ok());
    }

    #[test]
    fn look_ahead_cluster_forms_on_j_neutral_start() {
        // Construct a start vector with v^T J v = 0 exactly: the first
        // cluster Gram matrix is singular and the cluster MUST grow
        // (look-ahead) until it becomes invertible.
        let n = 8;
        let j: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { -1.0 }).collect();
        // A symmetric operator that mixes the +/- blocks.
        let a = Mat::from_fn(n, n, |i, k| {
            if i == k {
                1.0 + 0.2 * i as f64
            } else if i.abs_diff(k) == n / 2 {
                0.9
            } else if i.abs_diff(k) == 1 {
                0.15
            } else {
                0.0
            }
        });
        // Start: equal weight on a +1 and a -1 coordinate => J-neutral.
        let mut start = Mat::zeros(n, 1);
        start[(0, 0)] = 1.0;
        start[(n / 2, 0)] = 1.0;
        // v^T J v = 1 - 1 = 0 for the normalized start vector.
        let out = block_lanczos(&a, &j, &start, 6, &LanczosOptions::default());
        assert!(
            out.clusters.iter().any(|c| c.len() >= 2),
            "expected a look-ahead cluster, got {:?}",
            out.clusters
        );
        // Delta must still be invertible (blockwise) and consistent.
        let order = out.order();
        assert!(order >= 2);
        let jv = Mat::from_fn(n, order, |i, k| j[i] * out.v[(i, k)]);
        let vjv = out.v.t_matmul(&jv);
        assert!((&vjv - &out.delta).max_abs() < 1e-10);
        assert!(Lu::new(out.delta.clone()).is_ok(), "Delta invertible");
        // And the recurrence relation J·A·V = V·T holds on settled columns.
        let ja_v = {
            let av = a.matmul(&out.v);
            Mat::from_fn(n, order, |i, k| j[i] * av[(i, k)])
        };
        let vt = out.v.matmul(&out.t);
        for col in 0..order.saturating_sub(2) {
            for row in 0..n {
                assert!(
                    (ja_v[(row, col)] - vt[(row, col)]).abs() < 1e-9,
                    "recurrence residual at ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn banded_mode_matches_full_mode_on_easy_problems() {
        let n = 16;
        let a = spd_test_matrix(n);
        let j = vec![1.0; n];
        let start = Mat::from_fn(n, 2, |i, jc| ((i + jc) as f64 * 0.41).cos() + 0.3);
        let full = block_lanczos(&a, &j, &start, 10, &LanczosOptions::default());
        let banded = block_lanczos(
            &a,
            &j,
            &start,
            10,
            &LanczosOptions {
                full_reorth: false,
                ..LanczosOptions::default()
            },
        );
        assert_eq!(full.order(), banded.order());
        // The T matrices agree where the band covers (short run: everywhere).
        assert!(
            (&full.t - &banded.t).max_abs() < 1e-8,
            "T mismatch {}",
            (&full.t - &banded.t).max_abs()
        );
    }

    #[test]
    fn incremental_run_is_bit_identical_to_scratch() {
        // Pause-and-resume must match a single from-scratch run exactly,
        // including with indefinite J (look-ahead clusters).
        let n = 14;
        let a = spd_test_matrix(n);
        for j in [
            vec![1.0; n],
            (0..n)
                .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
                .collect::<Vec<_>>(),
        ] {
            let start = Mat::from_fn(n, 2, |i, jc| ((i * 5 + jc * 7) as f64 * 0.19).sin() + 0.07);
            let scratch = block_lanczos(&a, &j, &start, 10, &LanczosOptions::default());

            let mut state = BlockLanczos::new(&j, &start, &LanczosOptions::default());
            state.run(&a, 4);
            let mid = state.outcome();
            state.run(&a, 10);
            let resumed = state.outcome();

            assert_bits_eq(&resumed.t, &scratch.t, "T resumed vs scratch");
            assert_bits_eq(&resumed.delta, &scratch.delta, "Delta resumed vs scratch");
            assert_bits_eq(&resumed.rho, &scratch.rho, "rho resumed vs scratch");
            assert_bits_eq(&resumed.v, &scratch.v, "V resumed vs scratch");
            assert_eq!(resumed.p1, scratch.p1);
            assert_eq!(resumed.clusters, scratch.clusters);
            assert_eq!(resumed.exhausted, scratch.exhausted);

            // The mid-run outcome equals a scratch run at the smaller order.
            let scratch_mid = block_lanczos(&a, &j, &start, 4, &LanczosOptions::default());
            assert_bits_eq(&mid.t, &scratch_mid.t, "T mid vs scratch@4");
            assert_bits_eq(&mid.delta, &scratch_mid.delta, "Delta mid vs scratch@4");
            assert_bits_eq(&mid.rho, &scratch_mid.rho, "rho mid vs scratch@4");
        }
    }

    #[test]
    fn outcome_is_nondestructive_and_repeatable() {
        let n = 12;
        let a = spd_test_matrix(n);
        let j = vec![1.0; n];
        let start = Mat::from_fn(n, 2, |i, jc| ((i + jc * 3) as f64 * 0.7).sin() + 0.1);
        let mut state = BlockLanczos::new(&j, &start, &LanczosOptions::default());
        state.run(&a, 6);
        let first = state.outcome();
        let second = state.outcome();
        assert_bits_eq(&first.t, &second.t, "repeat outcome T");
        assert_bits_eq(&first.rho, &second.rho, "repeat outcome rho");
        // State still continuable after two outcomes.
        state.run(&a, 8);
        let grown = state.outcome();
        let scratch = block_lanczos(&a, &j, &start, 8, &LanczosOptions::default());
        assert_bits_eq(&grown.t, &scratch.t, "grown T vs scratch@8");
        assert_bits_eq(&grown.delta, &scratch.delta, "grown Delta vs scratch@8");
    }

    #[test]
    fn incremental_exhaustion_matches_scratch() {
        // Invariant subspace of dimension 3: escalating past it must
        // report exhaustion exactly like the one-shot run.
        let n = 8;
        let a = Mat::from_diag(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let j = vec![1.0; n];
        let mut start = Mat::zeros(n, 1);
        start[(0, 0)] = 1.0;
        start[(3, 0)] = 1.0;
        start[(5, 0)] = 1.0;
        let scratch = block_lanczos(&a, &j, &start, 8, &LanczosOptions::default());
        let mut state = BlockLanczos::new(&j, &start, &LanczosOptions::default());
        state.run(&a, 2);
        assert!(!state.is_exhausted());
        state.run(&a, 8);
        assert!(state.is_exhausted());
        let out = state.outcome();
        assert_eq!(out.order(), 3);
        assert_bits_eq(&out.t, &scratch.t, "exhausted T");
        assert_bits_eq(&out.v, &scratch.v, "exhausted V");
        assert!(out.exhausted);
    }
}
