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
//! process can apply it to a *block* of vectors at once. Candidates are
//! processed in **blocks**: a block starts whenever the next candidate
//! has not been projected yet. At that point the successors `Â vᵢ` of
//! every accepted vector are generated (in [`ROW_SOLVE_WIDTH`]-column
//! [`LinearOperator::apply_block`] calls, `p` columns per block with
//! `J = I` and `p` ports), and the block is the whole queue. Successors
//! are also generated once at the end of [`BlockLanczos::run`], so
//! [`BlockLanczos::outcome`] and a resumed `run` never apply the
//! operator to a vector twice.
//!
//! Full re-J-orthogonalization is block classical Gram–Schmidt, run
//! twice (BCGS2), on the `mpvl-la` kernels [`block_dot`] and
//! [`block_sub`], which stream the basis once per pass for a whole
//! block instead of once per candidate:
//!
//! 1. at block start, the block is projected twice against the clusters
//!    closed so far: `C = Δ⁻¹·Vᵀ(J∘W)` (one `Δ⁻¹` solve per cluster),
//!    `W −= V·C`, with `C` recorded into `T`/`ρ`;
//! 2. the block is then consumed in sub-blocks of [`SUB_BLOCK`]
//!    candidates; each sub-block gets the same two projections against
//!    the clusters closed since the block began;
//! 3. each candidate finishes with a per-candidate modified Gram–Schmidt
//!    leaf, twice: cluster by cluster against the clusters closed since
//!    its sub-block began, then vector by vector (plain inner product)
//!    against the open look-ahead cluster.
//!
//! The deflation test then sees the explicitly orthogonalized norm. The
//! kernels fix each entry's summation order independently of the batch
//! width and column position, so a block's split never changes a bit;
//! block and sub-block boundaries depend only on the pop sequence, which
//! the target order does not enter (see *Resumability*). Banded mode
//! (`full_reorth: false`) skips steps 1–2 and runs the leaf from its
//! coupling window. With `J = I` the projections read the candidates
//! directly instead of staging `J∘w` (`x * 1.0 == x` exactly).
//!
//! The process's own scratch — the `J∘w` staging, the coefficient
//! block, recycled candidate buffers and one `N × ROW_SOLVE_WIDTH`
//! block-apply staging pair — lives in a [`Workspace`] reused across
//! the whole run.
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
//! *clone* of the in-flight state ([`Pending`]) — the retained state never
//! observes it. The free function [`block_lanczos`] is `new` + `run` +
//! `outcome`.

use mpvl_la::{block_dot, block_sub, sym_eigen, Lu, Mat};
use mpvl_sparse::ROW_SOLVE_WIDTH;
use std::collections::VecDeque;
use std::ops::Range;

/// Candidates per sub-block of a BCGS2 block (see the module docs). On
/// the 100,489-unknown, 64-port RC grid, sub-blocks of 8 kept the
/// per-candidate leaf small while the sub-block kernels stayed wide
/// enough to stream the basis efficiently.
const SUB_BLOCK: usize = 8;

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
    /// Closed clusters `0..projected` are already projected out by the
    /// block kernels; the leaf starts after them.
    projected: usize,
}

/// The kernels read and update a candidate's vector in place.
impl AsRef<[f64]> for Candidate {
    fn as_ref(&self) -> &[f64] {
        &self.w
    }
}

impl AsMut<[f64]> for Candidate {
    fn as_mut(&mut self) -> &mut [f64] {
        &mut self.w
    }
}

impl Candidate {
    fn new(w: Vec<f64>, src: Src) -> Self {
        let orig_norm = mpvl_la::norm2(&w);
        Candidate {
            w,
            src,
            orig_norm,
            projected: 0,
        }
    }
}

/// Reusable scratch for the Lanczos inner loop, allocated once (or
/// recycled) and reused for every block and candidate. Every buffer is
/// fully overwritten before each read, so a fresh workspace and a
/// long-lived one produce identical bits.
struct Workspace {
    /// `J ∘ w` staging, one column per projected candidate (unused when
    /// J = I).
    jw: Vec<Vec<f64>>,
    /// The `k × m` coefficient block of one projection, column-major.
    coef: Vec<f64>,
    /// Recycled candidate buffers (from deflated / flushed candidates).
    pool: Vec<Vec<f64>>,
    /// Block-apply staging `(V_chunk, A·V_chunk)`, at most
    /// `N × ROW_SOLVE_WIDTH` each, resized in place per chunk.
    batch: (Mat<f64>, Mat<f64>),
}

impl Workspace {
    fn new(big_n: usize) -> Self {
        Workspace {
            jw: Vec::new(),
            coef: Vec::new(),
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
/// Generation is deferred (to block starts and the end of a run) rather
/// than eager (per acceptance), but candidates are pure functions of
/// frozen accepted vectors and always enqueue in index order, so the
/// FIFO pop sequence — and with it every downstream FP operation — is
/// identical to the eager schedule.
fn generate_successors<O: LinearOperator + ?Sized>(
    op: &O,
    j_diag: &[f64],
    vectors: &[Vec<f64>],
    gen_upto: &mut usize,
    queue: &mut VecDeque<Candidate>,
    ws: &mut Workspace,
) {
    let big_n = j_diag.len();
    let upto = vectors.len();
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
            queue.push_back(Candidate::new(w, Src::Vector(lo + c)));
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

/// The accepted basis and its cluster bookkeeping: read-only while
/// candidates are orthogonalized against it.
struct Basis {
    opts: LanczosOptions,
    j_diag: Vec<f64>,
    identity_j: bool,
    p: usize,
    vectors: Vec<Vec<f64>>,
    closed: Vec<Vec<usize>>,
    closed_delta: Vec<Mat<f64>>,
    closed_delta_lu: Vec<Lu<f64>>,
    open: Vec<usize>,
}

impl Basis {
    /// The vector indices of closed cluster `c` (clusters hold
    /// consecutive indices).
    fn cluster_span(&self, c: usize) -> Range<usize> {
        let cluster = &self.closed[c];
        cluster[0]..cluster[cluster.len() - 1] + 1
    }

    /// One classical Gram–Schmidt step of `cands` against the closed
    /// clusters `clusters`: `C = Δ⁻¹·Vᵀ(J∘W)` with one `Δ⁻¹` solve per
    /// cluster, recording `C` into `t_coef`/`rho`, then `W −= V·C` unless
    /// `update` is false (the caller will not read `W` again).
    fn project_closed(
        &self,
        clusters: Range<usize>,
        cands: &mut [&mut Candidate],
        ws: &mut Workspace,
        t_coef: &mut Mat<f64>,
        rho: &mut Mat<f64>,
        update: bool,
    ) {
        if clusters.is_empty() || cands.is_empty() {
            return;
        }
        let lo = self.cluster_span(clusters.start).start;
        let hi = self.cluster_span(clusters.end - 1).end;
        let v = &self.vectors[lo..hi];
        let (k, m) = (hi - lo, cands.len());
        ws.coef.resize(k * m, 0.0);
        if self.identity_j {
            block_dot(v, cands, &mut ws.coef);
        } else {
            ws.jw.resize_with(m, Vec::new);
            for (jw, cand) in ws.jw.iter_mut().zip(cands.iter()) {
                jw.clear();
                jw.extend(cand.w.iter().zip(&self.j_diag).map(|(&x, &s)| x * s));
            }
            block_dot(v, &ws.jw[..m], &mut ws.coef);
        }
        for (coef, cand) in ws.coef.chunks_exact_mut(k).zip(cands.iter()) {
            for c in clusters.clone() {
                let rows = self.cluster_span(c);
                self.closed_delta_lu[c]
                    .solve_in_place(&mut coef[rows.start - lo..rows.end - lo])
                    .expect("closed cluster Delta is invertible");
            }
            for (i, &x) in coef.iter().enumerate() {
                record(t_coef, rho, lo + i, cand.src, x);
            }
        }
        if update {
            block_sub(v, &ws.coef, cands);
        }
    }

    /// The per-candidate leaf, twice: cluster by cluster against the
    /// closed clusters the block kernels have not covered (in banded
    /// mode: the trailing window of clusters the three-term structure
    /// couples to, those covering indices ≥ the source's own window),
    /// then vector by vector against the open cluster in the plain inner
    /// product (step 1b: the open cluster's J-Gram is singular, so plain
    /// projections keep its raw vectors independent).
    fn leaf(
        &self,
        cand: &mut Candidate,
        ws: &mut Workspace,
        t_coef: &mut Mat<f64>,
        rho: &mut Mat<f64>,
    ) {
        let from = if self.opts.full_reorth {
            cand.projected
        } else {
            let anchor = match cand.src {
                Src::Init(_) => 0,
                Src::Vector(i) => i.saturating_sub(2 * self.p + 2),
            };
            self.closed
                .iter()
                .position(|c| c.iter().any(|&idx| idx >= anchor))
                .unwrap_or(self.closed.len())
        };
        for _pass in 0..2 {
            for c in from..self.closed.len() {
                self.project_closed(c..c + 1, &mut [&mut *cand], ws, t_coef, rho, true);
            }
            for &i in &self.open {
                let v = std::slice::from_ref(&self.vectors[i]);
                let mut tau = [0.0];
                block_dot(v, &[&cand.w], &mut tau);
                block_sub(v, &tau, &mut [&mut cand.w]);
                record(t_coef, rho, i, cand.src, tau[0]);
            }
            if self.identity_j && !self.opts.full_reorth {
                break; // single pass suffices for the cheap banded mode
            }
        }
    }
}

/// The candidates in flight and the coefficients recorded so far: what
/// [`BlockLanczos::outcome`] flushes on a clone.
#[derive(Clone)]
struct Pending {
    /// Candidate queue; block size p_c = queue length.
    queue: VecDeque<Candidate>,
    /// Leading queue entries that belong to the current block.
    block_left: usize,
    /// Leading queue entries that belong to the current sub-block.
    sub_left: usize,
    /// Coefficient storage; grown by [`BlockLanczos::run`] to
    /// `target.min(N) + 1` rows (growth copies bits, never values).
    t_coef: Mat<f64>,
    rho: Mat<f64>,
}

impl Pending {
    /// Pops the next candidate and orthogonalizes it completely: a block
    /// starts when `block_left` is 0 (the whole queue is then
    /// unprojected), a sub-block when `sub_left` is 0, and the leaf
    /// finishes the candidate. `None` when the queue is empty.
    ///
    /// `flush` says the caller keeps only the recorded coefficients and
    /// drops the returned candidate. The basis is then frozen, so the
    /// leaf projects only against the open cluster, and when that is
    /// empty nothing reads a candidate's `W` after the last update of
    /// [`Pending::project_front`], which is skipped.
    fn next(&mut self, basis: &Basis, ws: &mut Workspace, flush: bool) -> Option<Candidate> {
        if self.queue.is_empty() {
            return None;
        }
        let _span = mpvl_obs::span("lanczos", "orthogonalize");
        let last_update = !(flush && basis.open.is_empty());
        if self.sub_left == 0 {
            if self.block_left == 0 {
                self.block_left = self.queue.len();
                self.project_front(self.block_left, basis, ws, last_update);
            }
            self.sub_left = SUB_BLOCK.min(self.block_left);
            self.project_front(self.sub_left, basis, ws, last_update);
        }
        let mut cand = self.queue.pop_front().expect("queue is nonempty");
        self.block_left -= 1;
        self.sub_left -= 1;
        basis.leaf(&mut cand, ws, &mut self.t_coef, &mut self.rho);
        Some(cand)
    }

    /// BCGS2 on the first `m` queued candidates: two projections against
    /// the closed clusters they have not seen yet (all `m` share that
    /// range), the second without its `W −= V·C` unless `last_update`. A
    /// no-op in banded mode.
    fn project_front(&mut self, m: usize, basis: &Basis, ws: &mut Workspace, last_update: bool) {
        if !basis.opts.full_reorth {
            return;
        }
        let clusters = self.queue[0].projected..basis.closed.len();
        let mut cands: Vec<&mut Candidate> = self.queue.range_mut(..m).collect();
        debug_assert!(cands.iter().all(|c| c.projected == clusters.start));
        for pass in 0..2 {
            basis.project_closed(
                clusters.clone(),
                &mut cands,
                ws,
                &mut self.t_coef,
                &mut self.rho,
                pass == 0 || last_update,
            );
        }
        for cand in cands {
            cand.projected = clusters.end;
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
    basis: Basis,
    pending: Pending,
    big_n: usize,
    forced_cluster_closes: usize,
    ws: Workspace,
    /// Successors exist for `vectors[..gen_upto]`; the frontier advances
    /// monotonically at block starts and at the end of each `run`.
    gen_upto: usize,
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

        let queue: VecDeque<Candidate> = (0..p)
            .map(|jcol| {
                let w = start.col(jcol).iter().zip(j_diag).map(|(&x, &s)| x * s);
                Candidate::new(w.collect(), Src::Init(jcol))
            })
            .collect();

        BlockLanczos {
            basis: Basis {
                opts: opts.clone(),
                j_diag: j_diag.to_vec(),
                identity_j,
                p,
                vectors: Vec::new(),
                closed: Vec::new(),
                closed_delta: Vec::new(),
                closed_delta_lu: Vec::new(),
                open: Vec::new(),
            },
            pending: Pending {
                queue,
                block_left: 0,
                sub_left: 0,
                t_coef: Mat::zeros(0, 0),
                rho: Mat::zeros(0, p),
            },
            big_n,
            forced_cluster_closes: 0,
            ws: Workspace::new(big_n),
            gen_upto: 0,
            p1: p,
            deflation_steps: Vec::new(),
            exhausted: false,
            iter_count: 0,
        }
    }

    /// Number of Lanczos vectors accepted so far (closed + open clusters).
    pub fn accepted(&self) -> usize {
        self.basis.vectors.len()
    }

    /// Number of accepted vectors inside *closed* clusters — the order an
    /// [`BlockLanczos::outcome`] taken now would have.
    pub fn closed_count(&self) -> usize {
        self.basis.closed.iter().map(|c| c.len()).sum()
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
        let pending = &mut self.pending;
        if pending.t_coef.nrows() >= cap {
            return;
        }
        let mut t = Mat::zeros(cap, cap);
        for i in 0..pending.t_coef.nrows() {
            for j in 0..pending.t_coef.ncols() {
                t[(i, j)] = pending.t_coef[(i, j)];
            }
        }
        pending.t_coef = t;
        let p = self.basis.p;
        let mut r = Mat::zeros(cap, p);
        for i in 0..pending.rho.nrows() {
            for j in 0..p {
                r[(i, j)] = pending.rho[(i, j)];
            }
        }
        pending.rho = r;
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
        while !self.exhausted && self.basis.vectors.len() < target {
            if self.pending.block_left == 0 {
                // Block start: every pending successor joins the queue
                // (exactly where the eager schedule would have had them
                // queued already).
                generate_successors(
                    op,
                    &self.basis.j_diag,
                    &self.basis.vectors,
                    &mut self.gen_upto,
                    &mut self.pending.queue,
                    &mut self.ws,
                );
            }
            let Some(cand) = self.pending.next(&self.basis, &mut self.ws, false) else {
                self.exhausted = true;
                break;
            };
            self.iter_count += 1;
            self.accept_or_deflate(cand);
        }
        // --- New candidates (step 3a): w = J · A vᵢ for every accepted
        // vector whose successor is still pending, so `outcome` and a
        // resumed `run` find them queued and never apply the operator.
        generate_successors(
            op,
            &self.basis.j_diag,
            &self.basis.vectors,
            &mut self.gen_upto,
            &mut self.pending.queue,
            &mut self.ws,
        );
    }

    /// Steps 1c–2 for one orthogonalized candidate: the deflation test,
    /// then acceptance and the cluster-completion check.
    fn accept_or_deflate(&mut self, cand: Candidate) {
        // --- Deflation test (step 1c).
        let nrm = mpvl_la::norm2(&cand.w);
        if nrm <= self.basis.opts.dtol * cand.orig_norm.max(f64::MIN_POSITIVE) {
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
            return;
        }

        // --- Accept (step 1h).
        let basis = &mut self.basis;
        let idx = basis.vectors.len();
        record(
            &mut self.pending.t_coef,
            &mut self.pending.rho,
            idx,
            cand.src,
            nrm,
        );
        let mut v = cand.w;
        mpvl_la::scal(1.0 / nrm, &mut v);
        basis.vectors.push(v);
        basis.open.push(idx);

        // --- Cluster-completion check (step 2).
        let m = basis.open.len();
        let mut dmat = Mat::zeros(m, m);
        for (a, &ia) in basis.open.iter().enumerate() {
            for (b, &ib) in basis.open.iter().enumerate() {
                let jw: f64 = basis.vectors[ia]
                    .iter()
                    .zip(&basis.vectors[ib])
                    .zip(&basis.j_diag)
                    .map(|((&x, &y), &s)| x * s * y)
                    .sum();
                dmat[(a, b)] = jw;
            }
        }
        // `forced` flags a cluster that hit `max_cluster` while its Gram
        // matrix was still ill-conditioned — the near-breakdown that
        // look-ahead could not fully resolve.
        let (close_now, forced) = if basis.identity_j {
            (true, false)
        } else {
            let eig = sym_eigen(&dmat).expect("tiny symmetric eigenproblem");
            let min_abs = eig
                .values
                .iter()
                .map(|v| v.abs())
                .fold(f64::INFINITY, f64::min);
            let well_conditioned = min_abs > basis.opts.cluster_tol;
            (
                well_conditioned || m >= basis.opts.max_cluster,
                !well_conditioned && m >= basis.opts.max_cluster,
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
            basis
                .closed_delta_lu
                .push(Lu::new(dmat.clone()).expect("cluster Gram invertible"));
            basis.closed_delta.push(dmat);
            basis.closed.push(std::mem::take(&mut basis.open));
        }
    }

    /// Assembles the [`LanczosOutcome`] at the current state, truncated
    /// to the last *closed* cluster so `Δₙ` is always invertible.
    ///
    /// The candidates still in flight carry the trailing columns of `Tₙ`
    /// (the paper computes `t_{·,n−p_c+1..n}` during iterations
    /// `n+1..n+p_c`); this flush runs on a **clone** of the in-flight
    /// state, so the retained state is untouched and a later
    /// [`BlockLanczos::run`] continues exactly as if no outcome had been
    /// taken. `run` leaves every successor generated, so the flush needs
    /// no operator.
    pub fn outcome(&self) -> LanczosOutcome {
        let basis = &self.basis;
        let mut pending = self.pending.clone();
        let mut iter_count = self.iter_count;
        let mut ws = Workspace::new(self.big_n);
        debug_assert_eq!(self.gen_upto, basis.vectors.len());

        // --- Flush: only the coefficients matter; each remainder is the
        // Lanczos truncation residual and is dropped.
        while pending.next(basis, &mut ws, true).is_some() {
            iter_count += 1;
        }

        // --- Truncate to the last closed cluster so Δ is invertible.
        let n = self.closed_count();
        if mpvl_obs::enabled() {
            mpvl_obs::counter_add("lanczos", "iterations", iter_count as u64);
            mpvl_obs::counter_add("lanczos", "accepted_vectors", n as u64);
            if self.exhausted {
                mpvl_obs::counter_add("lanczos", "exhausted", 1);
            }
        }
        let mut v = Mat::zeros(self.big_n, n);
        for (k, vec) in basis.vectors.iter().take(n).enumerate() {
            v.col_mut(k).copy_from_slice(vec);
        }
        let t = pending.t_coef.submatrix(0, n, 0, n);
        let rho_out = pending.rho.submatrix(0, n, 0, basis.p);
        let mut delta = Mat::zeros(n, n);
        for (cluster, d) in basis.closed.iter().zip(&basis.closed_delta) {
            for (a, &ia) in cluster.iter().enumerate() {
                for (b, &ib) in cluster.iter().enumerate() {
                    delta[(ia, ib)] = d[(a, b)];
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
            clusters: basis.closed.clone(),
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

    /// Resumes at 13, 29 and 40 with an 8-column start block (blocks of
    /// 8 candidates, so every stop cuts a block and its sub-block
    /// mid-way) must give the bits of from-scratch runs at those orders.
    #[test]
    fn resumes_cutting_blocks_match_scratch_runs() {
        let n = 60;
        let a = spd_test_matrix(n);
        // LCG fill: eight independent columns.
        let mut seed = 7u64;
        let start = Mat::from_fn(n, 8, |_, _| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        });
        let mut deflating = start.clone();
        for i in 0..n {
            deflating[(i, 7)] = start[(i, 0)] - 2.0 * start[(i, 3)];
        }
        let signed: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 1 { -1.0 } else { 1.0 })
            .collect();
        let look_ahead = LanczosOptions {
            cluster_tol: 0.05,
            ..LanczosOptions::default()
        };
        let cases = [
            ("J = I", vec![1.0; n], &start, LanczosOptions::default()),
            ("indefinite J", signed, &start, look_ahead),
            (
                "deflating column",
                vec![1.0; n],
                &deflating,
                LanczosOptions::default(),
            ),
        ];
        for (name, j, start, opts) in &cases {
            let mut state = BlockLanczos::new(j, start, opts);
            for target in [13, 29, 40] {
                state.run(&a, target);
                let resumed = state.outcome();
                let scratch = block_lanczos(&a, j, start, target, opts);
                let what = format!("{name} at {target}");
                assert_bits_eq(&resumed.t, &scratch.t, &format!("T, {what}"));
                assert_bits_eq(&resumed.delta, &scratch.delta, &format!("Delta, {what}"));
                assert_bits_eq(&resumed.rho, &scratch.rho, &format!("rho, {what}"));
                assert_bits_eq(&resumed.v, &scratch.v, &format!("V, {what}"));
                assert_eq!(resumed.p1, scratch.p1, "{what}");
                assert_eq!(resumed.clusters, scratch.clusters, "{what}");
                assert_eq!(resumed.deflation_steps, scratch.deflation_steps, "{what}");
                assert_eq!(resumed.exhausted, scratch.exhausted, "{what}");
            }
            let out = state.outcome();
            match *name {
                "indefinite J" => assert!(
                    out.clusters.iter().any(|c| c.len() >= 2),
                    "no look-ahead cluster: {:?}",
                    out.clusters
                ),
                "deflating column" => {
                    assert_eq!(out.p1, 7);
                    assert!(!out.deflation_steps.is_empty());
                }
                _ => assert!(out.clusters.iter().all(|c| c.len() == 1)),
            }
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
