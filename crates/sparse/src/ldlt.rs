//! Sparse LDLᵀ factorization of symmetric matrices.
//!
//! An up-looking, elimination-tree-driven factorization in the style of
//! Davis' `LDL` package: a symbolic pass computes the elimination tree and
//! exact column counts from the upper triangle, then a numeric pass fills
//! `L` (unit lower triangular, CSC) and the diagonal `D` column by column.
//!
//! The numeric pass is *supernodal*: the symbolic analysis detects
//! fundamental supernodes (maximal etree chains whose column patterns
//! nest), precomputes the full row pattern of `L` and each target column's
//! update plan as supernode *segments*, and the numeric kernel then runs
//! one contiguous panel update per segment instead of a pointer-chasing
//! scalar loop. Crucially the kernel performs **exactly the same
//! floating-point operations in exactly the same order** as the scalar
//! up-looking kernel (kept as [`NumericLdlt::refactor_scalar`]), so the
//! two produce byte-identical `L`, `D`, and solves — the workspace's
//! golden-fingerprint tests rely on this.
//!
//! Large factorizations additionally parallelize over independent etree
//! subtrees ([`NumericLdlt::refactor_with_threads`]): each worker factors
//! a disjoint set of subtree columns into private buffers, results are
//! merged in a fixed task order, and the shared ancestor ("separator")
//! columns run serially afterwards — deterministic and bit-identical to
//! the serial pass at every thread count by construction.
//!
//! One type holds a factorization, [`NumericLdlt`]: the values of `L`
//! and `D` plus the workspaces of the numeric pass, over a shared
//! [`SymbolicLdlt`] that owns the ordering and the pattern of `L`. A
//! one-off matrix goes through [`NumericLdlt::factor`] (symbolic and
//! numeric pass in one call). When many matrices share one sparsity
//! pattern — an AC sweep factoring `G + σ(s)C` per frequency — the
//! symbolic work (ordering, permuted pattern, etree, column counts,
//! supernodes, update plans) is paid once by [`SymbolicLdlt::analyze`]
//! and each additional matrix costs only [`NumericLdlt::refactor`],
//! with zero allocation.
//!
//! The factorization is *unpivoted*; a fill-reducing symmetric permutation
//! is applied first. This is the right tool for the matrices this
//! workspace produces:
//!
//! * RC/RL/LC circuits give symmetric positive (semi-)definite `G`, `C`
//!   (§2.2 of the paper) — every pivot order works.
//! * General-RLC MNA matrices shifted per eq. (26), `G + s₀C`, are
//!   symmetric *quasi-definite* (positive block from resistors/capacitors,
//!   negative block `−s₀𝓛` from inductors), which Vanderbei's theorem
//!   guarantees to be strongly factorizable under any symmetric
//!   permutation.
//! * AC-analysis matrices `G + jωC` are complex symmetric with the same
//!   structure; a zero pivot aborts with [`LdltError::ZeroPivot`] and the
//!   caller may fall back to a dense factorization.

use crate::{compute_ordering, CscMat, Ordering};
use mpvl_la::{Mat, Scalar};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Supernodes are capped at this many columns: wider panels stop fitting
/// the accumulator and panel buffers in cache and the extra grouping buys
/// nothing. This is a grouping granularity knob only — it never changes
/// numeric results.
const SUPERNODE_MAX_WIDTH: usize = 64;

/// Segments narrower than 2 columns or with fewer shared below-supernode
/// rows than this run the plain (position-computed) loop: the panel
/// gather/scatter would cost more than it saves.
const PANEL_MIN_RANK: usize = 4;

/// Minimum estimated factorization work (inner-loop operations) before
/// subtree parallelism amortizes thread spawn plus merge copies.
const PAR_MIN_COST: u64 = 1_000_000;

/// Error from the sparse LDLᵀ factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum LdltError {
    /// A pivot magnitude fell below the breakdown tolerance.
    ZeroPivot {
        /// The offending column, as an index into the *original*
        /// (unpermuted) matrix.
        col: usize,
        /// The offending pivot magnitude.
        magnitude: f64,
    },
    /// The input matrix is not square.
    NotSquare {
        /// Rows of the offending matrix.
        nrows: usize,
        /// Columns of the offending matrix.
        ncols: usize,
    },
    /// A numeric refactorization was handed a matrix whose sparsity
    /// pattern differs from the one the symbolic analysis was built on.
    PatternMismatch,
}

impl fmt::Display for LdltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdltError::ZeroPivot { col, magnitude } => {
                write!(f, "zero pivot at column {col} (magnitude {magnitude:.3e})")
            }
            LdltError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is {nrows}x{ncols}, expected square")
            }
            LdltError::PatternMismatch => {
                write!(f, "matrix pattern differs from the symbolic analysis")
            }
        }
    }
}

impl Error for LdltError {}

/// In-place forward substitution `L x = b` (unit diagonal, CSC `L`).
fn l_solve_csc<T: Scalar>(colptr: &[usize], rowidx: &[usize], values: &[T], x: &mut [T]) {
    for j in 0..x.len() {
        let xj = x[j];
        if xj == T::zero() {
            continue;
        }
        for p in colptr[j]..colptr[j + 1] {
            x[rowidx[p]] -= values[p] * xj;
        }
    }
}

/// In-place back substitution `Lᵀ x = b` (unit diagonal, CSC `L`).
fn lt_solve_csc<T: Scalar>(colptr: &[usize], rowidx: &[usize], values: &[T], x: &mut [T]) {
    for j in (0..x.len()).rev() {
        let mut s = x[j];
        for p in colptr[j]..colptr[j + 1] {
            s -= values[p] * x[rowidx[p]];
        }
        x[j] = s;
    }
}

/// Row-interleaved multi-RHS forward substitution `L X = B`: `x` holds
/// `W` right-hand sides, entry `(i, c)` at `x[i * W + c]`, so one pass
/// over `L` serves every column. Each column sees exactly the
/// operations of [`l_solve_csc`]; its `xⱼ == 0` skip becomes a select,
/// because subtracting `v · 0` would turn a `-0.0` entry into `+0.0`.
#[inline(always)]
fn l_solve_rows_csc<T: Scalar, const W: usize>(
    colptr: &[usize],
    rowidx: &[usize],
    values: &[T],
    x: &mut [T],
) {
    for j in 0..x.len() / W {
        let mut xj = [T::zero(); W];
        xj.copy_from_slice(&x[j * W..(j + 1) * W]);
        if xj.iter().all(|&v| v == T::zero()) {
            continue;
        }
        for p in colptr[j]..colptr[j + 1] {
            let v = values[p];
            let row = &mut x[rowidx[p] * W..(rowidx[p] + 1) * W];
            for c in 0..W {
                let mut u = row[c];
                u -= v * xj[c];
                row[c] = if xj[c] == T::zero() { row[c] } else { u };
            }
        }
    }
}

/// Row-interleaved multi-RHS back substitution `Lᵀ X = B`, the layout of
/// [`l_solve_rows_csc`]; each column sees exactly the operations of
/// [`lt_solve_csc`].
#[inline(always)]
fn lt_solve_rows_csc<T: Scalar, const W: usize>(
    colptr: &[usize],
    rowidx: &[usize],
    values: &[T],
    x: &mut [T],
) {
    for j in (0..x.len() / W).rev() {
        let mut s = [T::zero(); W];
        s.copy_from_slice(&x[j * W..(j + 1) * W]);
        for p in colptr[j]..colptr[j + 1] {
            let v = values[p];
            let row = &x[rowidx[p] * W..(rowidx[p] + 1) * W];
            for c in 0..W {
                s[c] -= v * row[c];
            }
        }
        x[j * W..(j + 1) * W].copy_from_slice(&s);
    }
}

/// Runs `$kernel::<W>` for the runtime width `$w`, one monomorphized
/// copy per width up to [`ROW_SOLVE_WIDTH`].
macro_rules! dispatch_width {
    ($kernel:ident, $w:expr, $($arg:expr),*) => {
        match $w {
            1 => $kernel::<T, 1>($($arg),*),
            2 => $kernel::<T, 2>($($arg),*),
            3 => $kernel::<T, 3>($($arg),*),
            4 => $kernel::<T, 4>($($arg),*),
            5 => $kernel::<T, 5>($($arg),*),
            6 => $kernel::<T, 6>($($arg),*),
            7 => $kernel::<T, 7>($($arg),*),
            8 => $kernel::<T, 8>($($arg),*),
            w => panic!("row-interleaved solve width {w} outside 1..={ROW_SOLVE_WIDTH}"),
        }
    };
}

mpvl_la::simd_dispatch! {
    /// [`l_solve_rows_csc`] at the runtime width `w`, on the widest
    /// vector build the CPU runs (lanes across the `w` columns).
    fn l_solve_rows_simd<T: Scalar>(
        colptr: &[usize],
        rowidx: &[usize],
        values: &[T],
        x: &mut [T],
        w: usize,
    ) => l_solve_rows_body
}

#[inline(always)]
fn l_solve_rows_body<T: Scalar, const VEC: usize>(
    colptr: &[usize],
    rowidx: &[usize],
    values: &[T],
    x: &mut [T],
    w: usize,
) {
    dispatch_width!(l_solve_rows_csc, w, colptr, rowidx, values, x);
}

mpvl_la::simd_dispatch! {
    /// [`lt_solve_rows_csc`] at the runtime width `w`, built like
    /// [`l_solve_rows_simd`].
    fn lt_solve_rows_simd<T: Scalar>(
        colptr: &[usize],
        rowidx: &[usize],
        values: &[T],
        x: &mut [T],
        w: usize,
    ) => lt_solve_rows_body
}

#[inline(always)]
fn lt_solve_rows_body<T: Scalar, const VEC: usize>(
    colptr: &[usize],
    rowidx: &[usize],
    values: &[T],
    x: &mut [T],
    w: usize,
) {
    dispatch_width!(lt_solve_rows_csc, w, colptr, rowidx, values, x);
}

/// Widest block [`NumericLdlt::l_solve_rows`] and
/// [`NumericLdlt::lt_solve_rows`] accept, and the column chunk the
/// blocked `M⁻¹`/`M⁻ᵀ` appliers and the Lanczos successor generation
/// stage through them. Measured on the 100,489-unknown RC grid's factor
/// (2-vCPU Xeon VM, see `EXPERIMENTS.md`): 64 operator applies took
/// 1.07 s one column at a time, 0.83 s in chunks of 2, 0.39 s in chunks
/// of 4, 0.38 s in chunks of 8 and 0.38 s in chunks of 16; on a
/// 40,401-unknown grid 8 was clearly best (0.14 s against 0.18 s and
/// 0.16 s). Each width below it is its own monomorphized kernel: on the
/// same factor a runtime-width kernel took 1.1–1.4× as long at width 8
/// and 1.6–2.4× at widths 3 and 1, and padding a lone column to width 8
/// would cost 1.8× the width-1 solve.
///
/// Every width is also built for AVX-512 and AVX2
/// ([`mpvl_la::simd_dispatch!`]), with vector lanes across the `w`
/// columns of a row, so at width 8 one AVX-512 register holds a row.
/// Each column keeps its operations and their order (ascending columns
/// forward, stored row order back, the `xⱼ == 0` select), so every
/// build gives the bits of [`NumericLdlt::l_solve`] and
/// [`NumericLdlt::lt_solve`].
pub const ROW_SOLVE_WIDTH: usize = 8;

/// Relative pivot breakdown floor: a refactor of `A` fails once a pivot
/// magnitude drops to `BREAKDOWN_RTOL · max|aᵢⱼ|`. Callers that prove a
/// matrix singular before factoring it judge "numerically zero" by the
/// same floor.
pub const BREAKDOWN_RTOL: f64 = 1e-13;
const _: () = assert!(
    ROW_SOLVE_WIDTH == 8,
    "dispatch_width! has one arm per width 1..=8"
);

/// One run of a target column's update plan: `width` consecutive update
/// columns starting at `first`, all inside one supernode, with `rank`
/// shared below-supernode rows preceding the target. The runs encode the
/// scalar kernel's exact iteration order, so replaying them is bitwise
/// equivalent.
#[derive(Debug, Clone, Copy)]
struct SnSegment {
    first: usize,
    width: usize,
    rank: usize,
}

/// One independent etree subtree of a parallel numeric pass: its columns
/// in ascending order and, per column, how many of its stored rows fall
/// inside the subtree (the prefix a worker computes and the merge copies).
#[derive(Debug)]
struct SubtreeTask {
    cols: Vec<usize>,
    plen: Vec<usize>,
    cost: u64,
}

/// Deterministic schedule for [`NumericLdlt::refactor_with_threads`]:
/// disjoint subtree tasks plus the shared ancestor columns that must run
/// serially after the merge, in ascending order.
#[derive(Debug)]
struct SubtreePlan {
    tasks: Vec<SubtreeTask>,
    seps: Vec<usize>,
}

/// The reusable symbolic half of a sparse LDLᵀ factorization.
///
/// Everything that depends only on the sparsity *pattern* of `A` is
/// computed once here — the fill-reducing permutation, the permuted
/// pattern `B = PᵀAP` (with a gather map from `A`'s value array, so no
/// per-factorization triplet sort), the elimination tree, the exact
/// column counts *and full row pattern* of `L`, the supernode partition,
/// and each target column's update plan. A [`NumericLdlt`] then refactors
/// new *values* with the same pattern at a fraction of the from-scratch
/// cost — the structure of an AC sweep, where `G + σ(s)C` changes values
/// but never pattern across frequency points.
///
/// # Examples
///
/// ```
/// use mpvl_sparse::{TripletMat, SymbolicLdlt, NumericLdlt, Ordering};
/// use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = TripletMat::new(3, 3);
/// for i in 0..3 { t.push(i, i, 2.0); }
/// t.push_sym(0, 1, -1.0);
/// t.push_sym(1, 2, -1.0);
/// let a = t.to_csc();
/// let sym = Arc::new(SymbolicLdlt::analyze(&a, Ordering::MinDegree)?);
/// let mut num = NumericLdlt::new(Arc::clone(&sym));
/// num.refactor(&a)?;                    // numeric pass only
/// let x = num.solve(&[1.0, 0.0, 1.0]);
/// let r = a.matvec(&x);
/// assert!((r[0] - 1.0).abs() < 1e-12);
/// let a2 = a.map(|v| 3.0 * v);          // same pattern, new values
/// num.refactor(&a2)?;                   // reuses pattern + workspaces
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicLdlt {
    n: usize,
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// Pattern of `B = PᵀAP`, rows sorted within each column.
    b_colptr: Vec<usize>,
    b_rowidx: Vec<usize>,
    /// Gather map: `B.values[k] = A.values[b_src[k]]`.
    b_src: Vec<usize>,
    /// Elimination tree of `B` (`usize::MAX` marks a root).
    parent: Vec<usize>,
    /// Column pointers of `L` (exact counts from the symbolic pass).
    l_colptr: Vec<usize>,
    /// Full row pattern of `L` in storage order (rows ascending per
    /// column), shared by every numeric factorization of this pattern.
    l_rowidx: Vec<usize>,
    /// Supernode partition: supernode `s` spans columns
    /// `sn_ptr[s]..sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Column → supernode index.
    sn_of: Vec<usize>,
    /// Per-target-column update plan: column `k`'s segments are
    /// `rp_seg[rp_ptr[k]..rp_ptr[k+1]]`, in the scalar kernel's order.
    rp_ptr: Vec<usize>,
    rp_seg: Vec<SnSegment>,
    /// Estimated numeric work per target column (inner-loop operations),
    /// driving the subtree schedule.
    col_cost: Vec<u64>,
    total_cost: u64,
    /// Pattern fingerprint of the analyzed `A`, validated on refactor.
    a_colptr: Vec<usize>,
    a_rowidx: Vec<usize>,
}

impl SymbolicLdlt {
    /// Symbolic analysis of `a` under the requested fill-reducing
    /// ordering. Only the pattern of `a` is read.
    ///
    /// # Errors
    ///
    /// [`LdltError::NotSquare`] for rectangular input.
    pub fn analyze<T: Scalar>(a: &CscMat<T>, ordering: Ordering) -> Result<Self, LdltError> {
        if a.nrows() != a.ncols() {
            return Err(LdltError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let perm = compute_ordering(&a.adjacency(), ordering);
        Self::analyze_with_perm(a, perm)
    }

    /// Symbolic analysis with an explicit permutation (`perm[new] = old`).
    ///
    /// # Errors
    ///
    /// [`LdltError::NotSquare`] for rectangular input.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..a.nrows()`.
    pub fn analyze_with_perm<T: Scalar>(
        a: &CscMat<T>,
        perm: Vec<usize>,
    ) -> Result<Self, LdltError> {
        if a.nrows() != a.ncols() {
            return Err(LdltError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        assert_eq!(perm.len(), n, "bad permutation length");
        // inv[old] = new
        let mut inv = vec![usize::MAX; n];
        for (newi, &old) in perm.iter().enumerate() {
            assert!(old < n && inv[old] == usize::MAX, "not a permutation");
            inv[old] = newi;
        }

        // --- Permuted pattern B = PᵀAP by counting sort, carrying the
        // --- source position of every entry in A's value array.
        let nnz = a.nnz();
        let mut b_colptr = vec![0usize; n + 1];
        for j in 0..n {
            b_colptr[inv[j] + 1] += a.col_ptr()[j + 1] - a.col_ptr()[j];
        }
        for k in 0..n {
            b_colptr[k + 1] += b_colptr[k];
        }
        let mut next = b_colptr[..n].to_vec();
        let mut b_rowidx = vec![0usize; nnz];
        let mut b_src = vec![0usize; nnz];
        for j in 0..n {
            let (rows, _) = a.col_entries(j);
            let base = a.col_ptr()[j];
            let bj = inv[j];
            for (k, &i) in rows.iter().enumerate() {
                let slot = next[bj];
                next[bj] += 1;
                b_rowidx[slot] = inv[i];
                b_src[slot] = base + k;
            }
        }
        // Sort each column of B by row index, keeping the gather map in step.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for j in 0..n {
            let (lo, hi) = (b_colptr[j], b_colptr[j + 1]);
            pairs.clear();
            pairs.extend(
                b_rowidx[lo..hi]
                    .iter()
                    .copied()
                    .zip(b_src[lo..hi].iter().copied()),
            );
            pairs.sort_unstable_by_key(|&(r, _)| r);
            for (t, &(r, s)) in pairs.iter().enumerate() {
                b_rowidx[lo + t] = r;
                b_src[lo + t] = s;
            }
        }

        // --- Elimination tree + exact column counts of L, from the upper
        // --- triangle of B (Davis' LDL symbolic pass).
        let mut parent = vec![usize::MAX; n];
        let mut flag = vec![usize::MAX; n];
        let mut lnz = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            for p in b_colptr[k]..b_colptr[k + 1] {
                let ri = b_rowidx[p];
                if ri >= k {
                    continue;
                }
                let mut i = ri;
                while flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut l_colptr = vec![0usize; n + 1];
        for k in 0..n {
            l_colptr[k + 1] = l_colptr[k] + lnz[k];
        }

        // --- Supernodes: maximal etree chains whose column patterns nest
        // (fundamental supernodes, `pattern(k-1) = {k} ∪ pattern(k)`),
        // width-capped. Detection is a pure function of `parent` + counts.
        let mut sn_ptr = vec![0usize];
        for k in 1..n {
            let fundamental = parent[k - 1] == k
                && lnz[k - 1] == lnz[k] + 1
                && k - *sn_ptr.last().expect("nonempty") < SUPERNODE_MAX_WIDTH;
            if !fundamental {
                sn_ptr.push(k);
            }
        }
        sn_ptr.push(n);
        let mut sn_of = vec![0usize; n];
        {
            let mut s = 0;
            for (k, v) in sn_of.iter_mut().enumerate() {
                while k >= sn_ptr[s + 1] {
                    s += 1;
                }
                *v = s;
            }
        }

        // --- Second symbolic walk: the full row pattern of L in storage
        // order, each target column's update plan as supernode segments
        // (a run-length encoding of the scalar kernel's exact iteration
        // order), and per-column work estimates for subtree scheduling.
        let l_nnz_total = l_colptr[n];
        let mut l_rowidx = vec![0usize; l_nnz_total];
        let mut lnz_done = vec![0usize; n];
        let mut rp_ptr = vec![0usize; n + 1];
        let mut rp_seg: Vec<SnSegment> = Vec::new();
        let mut col_cost = vec![0u64; n];
        let mut pattern = vec![0usize; n];
        let mut stack = vec![0usize; n];
        for v in &mut flag {
            *v = usize::MAX;
        }
        for k in 0..n {
            flag[k] = k;
            let mut top = n;
            for p in b_colptr[k]..b_colptr[k + 1] {
                let ri = b_rowidx[p];
                if ri >= k {
                    continue;
                }
                let mut len = 0;
                let mut i = ri;
                while flag[i] != k {
                    stack[len] = i;
                    len += 1;
                    flag[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = stack[len];
                }
            }
            let seg_start = rp_seg.len();
            let mut cost = 0u64;
            let mut prev = usize::MAX;
            for &i in &pattern[top..n] {
                let pos = l_colptr[i] + lnz_done[i];
                l_rowidx[pos] = k;
                cost += lnz_done[i] as u64 + 2;
                if prev != usize::MAX && i == prev + 1 && sn_of[i] == sn_of[prev] {
                    rp_seg.last_mut().expect("run started").width += 1;
                } else {
                    rp_seg.push(SnSegment {
                        first: i,
                        width: 1,
                        rank: 0,
                    });
                }
                prev = i;
                lnz_done[i] += 1;
            }
            for seg in &mut rp_seg[seg_start..] {
                let s = sn_of[seg.first];
                if s != sn_of[k] {
                    // Rows already placed in the supernode's last column
                    // are exactly the shared below-supernode rows that
                    // precede this target (k itself was appended this
                    // round, hence the -1). Intra-supernode segments keep
                    // rank 0: no shared row precedes a column of its own
                    // supernode.
                    let c1 = sn_ptr[s + 1] - 1;
                    seg.rank = lnz_done[c1] - 1;
                    debug_assert_eq!(l_rowidx[l_colptr[c1] + seg.rank], k);
                }
            }
            rp_ptr[k + 1] = rp_seg.len();
            col_cost[k] = cost;
        }
        let total_cost = col_cost.iter().sum();

        // Health telemetry: the analyze/refactor ratio is the symbolic-
        // reuse hit rate of a sweep (one analyze, many refactors); the
        // supernode count tracks how much panel structure the pattern has.
        mpvl_obs::counter_add("ldlt", "symbolic_analyze", 1);
        if n > 0 {
            mpvl_obs::counter_add("ldlt", "supernodes", (sn_ptr.len() - 1) as u64);
        }

        Ok(SymbolicLdlt {
            n,
            perm,
            b_colptr,
            b_rowidx,
            b_src,
            parent,
            l_colptr,
            l_rowidx,
            sn_ptr,
            sn_of,
            rp_ptr,
            rp_seg,
            col_cost,
            total_cost,
            a_colptr: a.col_ptr().to_vec(),
            a_rowidx: a.row_idx().to_vec(),
        })
    }

    /// Dimension of the analyzed matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of off-diagonal entries `L` will hold (the predicted fill).
    pub fn l_nnz(&self) -> usize {
        self.l_colptr[self.n]
    }

    /// The permutation used, `perm[new] = old`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Number of supernodes (panels of columns with nested patterns) the
    /// numeric pass will exploit. Equals `dim()` when the pattern has no
    /// chain structure; much smaller on matrices with dense fill.
    pub fn supernode_count(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.sn_ptr.len() - 1
        }
    }

    /// `true` when `a` has exactly the pattern this analysis was built on.
    pub fn pattern_matches<T: Scalar>(&self, a: &CscMat<T>) -> bool {
        a.nrows() == self.n
            && a.ncols() == self.n
            && a.col_ptr() == &self.a_colptr[..]
            && a.row_idx() == &self.a_rowidx[..]
    }

    /// Deterministic subtree schedule for a parallel numeric pass, or
    /// `None` when the matrix is too small, the etree has no exploitable
    /// branching (a path, where every column is an ancestor of the
    /// previous), or the independent fraction of the work is too small to
    /// win. A pure function of the symbolic data and `threads` — never of
    /// scheduling — which is what keeps the parallel pass reproducible.
    fn plan_subtrees(&self, threads: usize) -> Option<SubtreePlan> {
        let n = self.n;
        if threads < 2 || self.total_cost < PAR_MIN_COST {
            return None;
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut queue: Vec<usize> = Vec::new();
        for i in 0..n {
            if self.parent[i] == usize::MAX {
                queue.push(i);
            } else {
                children[self.parent[i]].push(i);
            }
        }
        // Subtree work: children precede parents in index order, so one
        // ascending pass accumulates bottom-up.
        let mut sub: Vec<u64> = self.col_cost.clone();
        for i in 0..n {
            if self.parent[i] != usize::MAX {
                sub[self.parent[i]] += sub[i];
            }
        }
        // Split any subtree heavier than a fraction of the total into its
        // children; split nodes become serial separator columns.
        let limit = (self.total_cost / (threads as u64 * 4)).max(1);
        let mut task_roots: Vec<usize> = Vec::new();
        let mut seps: Vec<usize> = Vec::new();
        let mut qi = 0;
        while qi < queue.len() {
            let r = queue[qi];
            qi += 1;
            if sub[r] > limit && !children[r].is_empty() {
                seps.push(r);
                queue.extend_from_slice(&children[r]);
            } else {
                task_roots.push(r);
            }
        }
        if task_roots.len() < 2 || task_roots.len() > 64 * threads {
            return None;
        }
        let par_cost: u64 = task_roots.iter().map(|&r| sub[r]).sum();
        if par_cost * 2 < self.total_cost {
            return None;
        }
        let mut tasks: Vec<SubtreeTask> = Vec::with_capacity(task_roots.len());
        let mut dfs: Vec<usize> = Vec::new();
        for &r in &task_roots {
            let mut cols: Vec<usize> = Vec::new();
            dfs.push(r);
            while let Some(x) = dfs.pop() {
                cols.push(x);
                dfs.extend_from_slice(&children[x]);
            }
            cols.sort_unstable();
            // Rows of a subtree column are its ancestors; those inside the
            // subtree are exactly the rows ≤ the subtree root — a storage
            // prefix, since rows are kept ascending.
            let plen = cols
                .iter()
                .map(|&i| {
                    let lo = self.l_colptr[i];
                    let hi = self.l_colptr[i + 1];
                    self.l_rowidx[lo..hi].partition_point(|&row| row <= r)
                })
                .collect();
            tasks.push(SubtreeTask {
                cols,
                plen,
                cost: sub[r],
            });
        }
        // Heaviest-first so dynamic claiming load-balances; ties break on
        // the task's smallest column, unique across disjoint subtrees.
        tasks.sort_by(|a, b| b.cost.cmp(&a.cost).then(a.cols[0].cmp(&b.cols[0])));
        seps.sort_unstable();
        Some(SubtreePlan { tasks, seps })
    }
}

/// Factors one target column `k` of the supernodal up-looking pass:
/// assembles column `k` of `B` into the sparse accumulator `y`, replays
/// the precomputed segment plan (contiguous panel updates where a
/// supernode is wide enough), and stores the new entries of `L` and
/// `d[k]`. Every floating-point operation matches the scalar kernel's
/// order exactly; the panel path only changes *addressing* (a gather into
/// `panel`, contiguous arithmetic, a scatter back), never arithmetic.
///
/// On a pivot breakdown returns `(k, magnitude)`; `y` is already clean at
/// that point (every dirtied entry is a pattern entry, and all were
/// consumed by the segment loop).
#[allow(clippy::too_many_arguments)]
#[inline]
fn factor_column<T: Scalar>(
    sym: &SymbolicLdlt,
    av: &[T],
    pivot_floor: f64,
    k: usize,
    y: &mut [T],
    panel: &mut [T],
    l_values: &mut [T],
    d: &mut [T],
) -> Result<(), (usize, f64)> {
    for p in sym.b_colptr[k]..sym.b_colptr[k + 1] {
        let ri = sym.b_rowidx[p];
        if ri > k {
            continue;
        }
        y[ri] += av[sym.b_src[p]];
    }
    d[k] = y[k];
    y[k] = T::zero();
    for seg in &sym.rp_seg[sym.rp_ptr[k]..sym.rp_ptr[k + 1]] {
        let s = sym.sn_of[seg.first];
        let c1 = sym.sn_ptr[s + 1] - 1;
        // Rows `i+1..=ce` of every update column in this segment are the
        // supernode's own columns: contiguous in `y` and in storage.
        // Beyond them sit `rank` shared below-supernode rows, identical
        // (set and order) across the segment.
        let ce = c1.min(k - 1);
        let rank = seg.rank;
        if seg.width >= 2 && rank >= PANEL_MIN_RANK {
            let rbase = sym.l_colptr[c1];
            let rrows = &sym.l_rowidx[rbase..rbase + rank];
            for (q, &r) in rrows.iter().enumerate() {
                panel[q] = y[r];
            }
            for i in seg.first..seg.first + seg.width {
                let yi = y[i];
                y[i] = T::zero();
                let lo = sym.l_colptr[i];
                let clen = ce - i;
                debug_assert!(sym.l_rowidx[lo..lo + clen]
                    .iter()
                    .enumerate()
                    .all(|(t, &r)| r == i + 1 + t));
                for (t, lv) in l_values[lo..lo + clen].iter().enumerate() {
                    y[i + 1 + t] -= *lv * yi;
                }
                for (q, lv) in l_values[lo + clen..lo + clen + rank].iter().enumerate() {
                    panel[q] -= *lv * yi;
                }
                let pos = lo + clen + rank;
                debug_assert_eq!(sym.l_rowidx[pos], k);
                let di = d[i];
                let l_ki = yi / di;
                d[k] -= l_ki * yi;
                l_values[pos] = l_ki;
            }
            for (q, &r) in rrows.iter().enumerate() {
                y[r] = panel[q];
            }
        } else {
            for i in seg.first..seg.first + seg.width {
                let yi = y[i];
                y[i] = T::zero();
                let lo = sym.l_colptr[i];
                let clen = ce - i;
                debug_assert!(sym.l_rowidx[lo..lo + clen]
                    .iter()
                    .enumerate()
                    .all(|(t, &r)| r == i + 1 + t));
                for (t, lv) in l_values[lo..lo + clen].iter().enumerate() {
                    y[i + 1 + t] -= *lv * yi;
                }
                let rpart = lo + clen;
                for q in 0..rank {
                    y[sym.l_rowidx[rpart + q]] -= l_values[rpart + q] * yi;
                }
                let pos = rpart + rank;
                debug_assert_eq!(sym.l_rowidx[pos], k);
                let di = d[i];
                let l_ki = yi / di;
                d[k] -= l_ki * yi;
                l_values[pos] = l_ki;
            }
        }
    }
    let magnitude = d[k].modulus();
    if magnitude <= pivot_floor {
        return Err((k, magnitude));
    }
    Ok(())
}

/// Per-worker buffers of the parallel numeric pass. Full-size, written
/// only at positions owned by the worker's subtree columns, so reuse
/// across a worker's tasks needs no clearing: disjoint tasks touch
/// disjoint positions, and `y` is clean after every completed or aborted
/// column (see [`factor_column`]).
struct WorkerBufs<T> {
    y: Vec<T>,
    panel: Vec<T>,
    l: Vec<T>,
    d: Vec<T>,
}

/// One subtree task's result: the compacted per-column storage prefixes
/// plus the diagonal entries, in the task's own column order, and the
/// first pivot breakdown if any.
struct TaskOut<T> {
    err: Option<(usize, f64)>,
    data: Vec<T>,
}

/// A sparse factorization `Pᵀ A P = L D Lᵀ` with diagonal `D`: values of
/// `L` and `D` plus the preallocated workspaces of the supernodal
/// up-looking factorization, all reusable across
/// [`NumericLdlt::refactor`] calls against one shared [`SymbolicLdlt`].
/// [`NumericLdlt::factor`] builds one from scratch.
///
/// Each parallel worker owns one of these (sharing the `Arc`'d symbolic
/// analysis), which is exactly the shape a fanned-out AC sweep needs.
#[derive(Debug, Clone)]
pub struct NumericLdlt<T> {
    sym: Arc<SymbolicLdlt>,
    factored: bool,
    l_values: Vec<T>,
    /// Diagonal of `D`, in permuted order.
    d: Vec<T>,
    // Workspaces of the numeric pass.
    y: Vec<T>,
    panel: Vec<T>,
    // Workspaces of the scalar reference kernel only.
    pattern: Vec<usize>,
    stack: Vec<usize>,
    lnz_done: Vec<usize>,
    flag: Vec<usize>,
}

impl<T: Scalar> NumericLdlt<T> {
    /// Allocates workspaces for `sym`; no factorization is performed until
    /// the first [`NumericLdlt::refactor`].
    #[must_use]
    pub fn new(sym: Arc<SymbolicLdlt>) -> Self {
        let n = sym.n;
        let l_nnz = sym.l_nnz();
        NumericLdlt {
            sym,
            factored: false,
            l_values: vec![T::zero(); l_nnz],
            d: vec![T::zero(); n],
            y: vec![T::zero(); n],
            panel: vec![T::zero(); n],
            pattern: vec![0; n],
            stack: vec![0; n],
            lnz_done: vec![0; n],
            flag: vec![usize::MAX; n],
        }
    }

    /// Factors the symmetric matrix `a` as `Pᵀ A P = L D Lᵀ` after
    /// applying the requested fill-reducing ordering. Only the upper
    /// triangle (in permuted form) is read; the input should carry both
    /// triangles.
    ///
    /// This is the one-shot path: one symbolic analysis plus one numeric
    /// pass, parallelized over etree subtrees on the process-wide
    /// [`mpvl_par::thread_count`] workers (bit-identical to serial).
    /// Callers factoring many matrices with one shared pattern should
    /// [`SymbolicLdlt::analyze`] once and [`NumericLdlt::refactor`] per
    /// matrix instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpvl_sparse::{TripletMat, NumericLdlt, Ordering};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut t = TripletMat::new(3, 3);
    /// for i in 0..3 { t.push(i, i, 2.0); }
    /// t.push_sym(0, 1, -1.0);
    /// t.push_sym(1, 2, -1.0);
    /// let a = t.to_csc();
    /// let f = NumericLdlt::factor(&a, Ordering::MinDegree)?;
    /// let x = f.solve(&[1.0, 0.0, 1.0]);
    /// let r = a.matvec(&x);
    /// assert!((r[0] - 1.0).abs() < 1e-12 && r[1].abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`LdltError::NotSquare`] for rectangular input.
    /// * [`LdltError::ZeroPivot`] when a pivot underflows the breakdown
    ///   tolerance (`1e-13 · max|A|`); for RLC work this signals that a
    ///   frequency shift is required (paper eq. 26).
    pub fn factor(a: &CscMat<T>, ordering: Ordering) -> Result<Self, LdltError> {
        Self::factor_symbolic(SymbolicLdlt::analyze(a, ordering)?, a)
    }

    /// [`NumericLdlt::factor`] with an explicit permutation
    /// (`perm[new] = old`).
    ///
    /// # Errors
    ///
    /// See [`NumericLdlt::factor`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..a.nrows()`.
    pub fn factor_with_perm(a: &CscMat<T>, perm: Vec<usize>) -> Result<Self, LdltError> {
        Self::factor_symbolic(SymbolicLdlt::analyze_with_perm(a, perm)?, a)
    }

    fn factor_symbolic(sym: SymbolicLdlt, a: &CscMat<T>) -> Result<Self, LdltError> {
        let mut num = Self::new(Arc::new(sym));
        num.refactor_with_threads(a, mpvl_par::thread_count())?;
        Ok(num)
    }

    /// Validates `a` against the analyzed pattern and computes the pivot
    /// breakdown floor; the shared prologue of every refactor flavor.
    fn refactor_prologue(&mut self, a: &CscMat<T>) -> Result<f64, LdltError> {
        if !self.sym.pattern_matches(a) {
            self.factored = false;
            mpvl_obs::counter_add("ldlt", "pattern_mismatch", 1);
            return Err(LdltError::PatternMismatch);
        }
        self.factored = false;
        mpvl_obs::counter_add("ldlt", "numeric_refactor", 1);
        let max_abs = a.values().iter().map(|v| v.modulus()).fold(0.0, f64::max);
        for v in &mut self.y {
            *v = T::zero();
        }
        Ok(BREAKDOWN_RTOL * max_abs.max(f64::MIN_POSITIVE))
    }

    /// The single breakdown exit: clears the accumulator, emits the
    /// telemetry once (always from the calling thread, so exports stay
    /// identical at every thread count), and builds the error carrying the
    /// *original* column index.
    fn zero_pivot_error(&mut self, step: usize, magnitude: f64) -> LdltError {
        for v in &mut self.y {
            *v = T::zero();
        }
        let col = self.sym.perm[step];
        if mpvl_obs::enabled() {
            mpvl_obs::counter_add("ldlt", "zero_pivots", 1);
            mpvl_obs::event(
                "ldlt",
                "zero_pivot",
                vec![
                    ("step", mpvl_obs::Value::U64(step as u64)),
                    ("col", mpvl_obs::Value::U64(col as u64)),
                    ("magnitude", mpvl_obs::Value::F64(magnitude)),
                ],
            );
        }
        LdltError::ZeroPivot { col, magnitude }
    }

    /// Numeric refactorization: recomputes `L` and `D` for a matrix with
    /// the *same pattern* as the symbolic analysis but new values. No
    /// allocation, no permutation build, no symbolic work. Runs the
    /// supernodal kernel serially; see
    /// [`NumericLdlt::refactor_with_threads`] for the subtree-parallel
    /// variant (bit-identical output).
    ///
    /// # Errors
    ///
    /// * [`LdltError::PatternMismatch`] if `a`'s pattern differs from the
    ///   analyzed one (the factorization is left unfactored).
    /// * [`LdltError::ZeroPivot`] when a pivot underflows the breakdown
    ///   tolerance (`1e-13 · max|A|`); the workspaces stay valid, so a
    ///   later `refactor` with better-conditioned values may still succeed.
    pub fn refactor(&mut self, a: &CscMat<T>) -> Result<(), LdltError> {
        let pivot_floor = self.refactor_prologue(a)?;
        let sym = Arc::clone(&self.sym);
        for k in 0..sym.n {
            if let Err((step, magnitude)) = factor_column(
                &sym,
                a.values(),
                pivot_floor,
                k,
                &mut self.y,
                &mut self.panel,
                &mut self.l_values,
                &mut self.d,
            ) {
                return Err(self.zero_pivot_error(step, magnitude));
            }
        }
        self.factored = true;
        Ok(())
    }

    /// [`NumericLdlt::refactor`] with independent etree subtrees factored
    /// in parallel on up to `threads` workers.
    ///
    /// Workers factor disjoint subtree columns into private buffers; the
    /// results are merged in a fixed task order and the shared ancestor
    /// columns run serially afterwards, so the output — including which
    /// pivot breaks down first — is byte-identical to the serial pass at
    /// every thread count. Small or chain-shaped problems fall back to the
    /// serial kernel automatically.
    ///
    /// The one workspace function that still takes an explicit worker
    /// count (every other parallel entry point reads
    /// [`mpvl_par::thread_count`], scoped by `mpvl_par::with_threads`):
    /// the seeded benchmark in `perfbench/` calls it with one.
    ///
    /// # Errors
    ///
    /// See [`NumericLdlt::refactor`].
    pub fn refactor_with_threads(
        &mut self,
        a: &CscMat<T>,
        threads: usize,
    ) -> Result<(), LdltError> {
        let plan = if threads > 1 {
            self.sym.plan_subtrees(threads)
        } else {
            None
        };
        let Some(plan) = plan else {
            return self.refactor(a);
        };
        let pivot_floor = self.refactor_prologue(a)?;
        let sym = Arc::clone(&self.sym);
        let av = a.values();
        let n = sym.n;
        let l_nnz = sym.l_nnz();
        let outs: Vec<TaskOut<T>> = mpvl_par::parallel_map_with(
            threads,
            &plan.tasks,
            |_w| WorkerBufs {
                y: vec![T::zero(); n],
                panel: vec![T::zero(); n],
                l: vec![T::zero(); l_nnz],
                d: vec![T::zero(); n],
            },
            |bufs, _i, task| {
                let mut err = None;
                for &k in &task.cols {
                    if let Err(e) = factor_column(
                        &sym,
                        av,
                        pivot_floor,
                        k,
                        &mut bufs.y,
                        &mut bufs.panel,
                        &mut bufs.l,
                        &mut bufs.d,
                    ) {
                        err = Some(e);
                        break;
                    }
                }
                // Compact the task's slots out so the worker can reuse its
                // buffers for the next task it claims.
                let mut data =
                    Vec::with_capacity(task.plen.iter().sum::<usize>() + task.cols.len());
                for (&i, &len) in task.cols.iter().zip(&task.plen) {
                    let lo = sym.l_colptr[i];
                    data.extend_from_slice(&bufs.l[lo..lo + len]);
                }
                for &i in &task.cols {
                    data.push(bufs.d[i]);
                }
                TaskOut { err, data }
            },
        );
        // Deterministic merge: fixed task order, disjoint positions.
        let mut first_err: Option<(usize, f64)> = None;
        for (task, out) in plan.tasks.iter().zip(&outs) {
            let mut pos = 0;
            for (&i, &len) in task.cols.iter().zip(&task.plen) {
                let lo = sym.l_colptr[i];
                self.l_values[lo..lo + len].copy_from_slice(&out.data[pos..pos + len]);
                pos += len;
            }
            for &i in &task.cols {
                self.d[i] = out.data[pos];
                pos += 1;
            }
            if let Some((k, m)) = out.err {
                if first_err.is_none_or(|(fk, _)| k < fk) {
                    first_err = Some((k, m));
                }
            }
        }
        // Serial separator phase, ascending, stopping at the earliest
        // worker breakdown: a separator column below it sees exactly the
        // values the serial pass would (all its descendants completed),
        // so the reported first failure matches the serial kernel.
        for &k in &plan.seps {
            if let Some((fk, _)) = first_err {
                if k > fk {
                    break;
                }
            }
            if let Err(e) = factor_column(
                &sym,
                av,
                pivot_floor,
                k,
                &mut self.y,
                &mut self.panel,
                &mut self.l_values,
                &mut self.d,
            ) {
                first_err = Some(e);
                break;
            }
        }
        match first_err {
            Some((step, magnitude)) => Err(self.zero_pivot_error(step, magnitude)),
            None => {
                self.factored = true;
                Ok(())
            }
        }
    }

    /// The scalar up-looking reference kernel (pre-supernodal), kept for
    /// parity tests and the supernodal-vs-scalar CI bench gate. Produces
    /// byte-identical results to [`NumericLdlt::refactor`] — the
    /// supernodal kernel replays this kernel's exact operation order.
    ///
    /// # Errors
    ///
    /// See [`NumericLdlt::refactor`].
    pub fn refactor_scalar(&mut self, a: &CscMat<T>) -> Result<(), LdltError> {
        let pivot_floor = self.refactor_prologue(a)?;
        let sym = Arc::clone(&self.sym);
        let n = sym.n;
        let av = a.values();
        for v in &mut self.lnz_done {
            *v = 0;
        }
        for v in &mut self.flag {
            *v = usize::MAX;
        }
        for k in 0..n {
            self.flag[k] = k;
            let mut top = n;
            for p in sym.b_colptr[k]..sym.b_colptr[k + 1] {
                let ri = sym.b_rowidx[p];
                if ri > k {
                    continue;
                }
                self.y[ri] += av[sym.b_src[p]];
                let mut len = 0;
                let mut i = ri;
                while self.flag[i] != k {
                    self.stack[len] = i;
                    len += 1;
                    self.flag[i] = k;
                    i = sym.parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    self.pattern[top] = self.stack[len];
                }
            }
            self.d[k] = self.y[k];
            self.y[k] = T::zero();
            for &i in &self.pattern[top..n] {
                let yi = self.y[i];
                self.y[i] = T::zero();
                let lo = sym.l_colptr[i];
                let hi = lo + self.lnz_done[i];
                for p in lo..hi {
                    self.y[sym.l_rowidx[p]] -= self.l_values[p] * yi;
                }
                let di = self.d[i];
                let l_ki = yi / di;
                self.d[k] -= l_ki * yi;
                debug_assert_eq!(sym.l_rowidx[hi], k);
                self.l_values[hi] = l_ki;
                self.lnz_done[i] += 1;
            }
            if self.d[k].modulus() <= pivot_floor {
                let magnitude = self.d[k].modulus();
                return Err(self.zero_pivot_error(k, magnitude));
            }
        }
        self.factored = true;
        Ok(())
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicLdlt {
        &self.sym
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Number of stored off-diagonal entries of `L` (the fill).
    pub fn l_nnz(&self) -> usize {
        self.sym.l_nnz()
    }

    /// The permutation used, `perm[new] = old`.
    pub fn perm(&self) -> &[usize] {
        &self.sym.perm
    }

    /// `true` after a successful [`NumericLdlt::refactor`].
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// The diagonal of `D`, in permuted order.
    ///
    /// # Panics
    ///
    /// Panics unless factored.
    pub fn d(&self) -> &[T] {
        assert!(self.factored, "not factored");
        &self.d
    }

    /// The stored values of `L` (storage order of the shared symbolic row
    /// pattern) — what the bit-identity property suite compares.
    ///
    /// # Panics
    ///
    /// Panics unless factored.
    pub fn l_values(&self) -> &[T] {
        assert!(self.factored, "not factored");
        &self.l_values
    }

    /// Matrix inertia `(n_neg, n_zero, n_pos)` from the real parts of `D`.
    ///
    /// # Panics
    ///
    /// Panics unless factored.
    pub fn inertia(&self) -> (usize, usize, usize) {
        assert!(self.factored, "not factored");
        inertia_of(&self.d)
    }

    /// Solves `A x = b` for the most recently refactored values.
    ///
    /// # Panics
    ///
    /// Panics unless factored, or if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        assert!(self.factored, "not factored");
        assert_eq!(b.len(), self.sym.n, "dimension mismatch");
        let mut work = vec![T::zero(); self.sym.n];
        let mut out = vec![T::zero(); self.sym.n];
        self.solve_col_into(b, &mut work, &mut out);
        out
    }

    /// Blocked multi-right-hand-side solve `A X = B`, one shared workspace
    /// for all columns.
    ///
    /// # Panics
    ///
    /// Panics unless factored, or if `b.nrows() != self.dim()`.
    pub fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        let mut work = vec![T::zero(); self.sym.n];
        let mut out = Mat::zeros(self.sym.n, b.ncols());
        self.solve_mat_into(b, &mut work, &mut out);
        out
    }

    /// Allocation-free variant of [`NumericLdlt::solve_mat`]: writes the
    /// solution into `out` using the caller's `work` buffer. Every entry
    /// of `out` and `work` is overwritten, so reuse across calls is safe
    /// and bit-identical to the allocating path — what the AC sweep's
    /// pre-warmed per-worker workspaces rely on.
    ///
    /// # Panics
    ///
    /// Panics unless factored, or on any dimension mismatch
    /// (`b.nrows()`/`out.nrows()` vs `dim()`, `out.ncols()` vs
    /// `b.ncols()`, `work.len()` vs `dim()`).
    pub fn solve_mat_into(&self, b: &Mat<T>, work: &mut [T], out: &mut Mat<T>) {
        assert!(self.factored, "not factored");
        let n = self.sym.n;
        assert_eq!(b.nrows(), n, "dimension mismatch");
        assert_eq!(out.nrows(), n, "output row mismatch");
        assert_eq!(out.ncols(), b.ncols(), "output column mismatch");
        assert_eq!(work.len(), n, "workspace length mismatch");
        for j in 0..b.ncols() {
            self.solve_col_into(b.col(j), work, out.col_mut(j));
        }
    }

    /// The one solve body: `x = P L⁻ᵀ D⁻¹ L⁻¹ Pᵀ b` into `out`, with `work`
    /// holding the permuted coordinates (lengths already checked).
    fn solve_col_into(&self, b: &[T], work: &mut [T], out: &mut [T]) {
        let perm = &self.sym.perm;
        for (w, &p) in work.iter_mut().zip(perm) {
            *w = b[p];
        }
        self.l_solve(work);
        for (w, &d) in work.iter_mut().zip(&self.d) {
            *w /= d;
        }
        self.lt_solve(work);
        for (&w, &p) in work.iter().zip(perm) {
            out[p] = w;
        }
    }

    /// In-place forward substitution `L x = b` (unit diagonal), in permuted
    /// coordinates.
    pub fn l_solve(&self, x: &mut [T]) {
        let sym = &self.sym;
        l_solve_csc(&sym.l_colptr, &sym.l_rowidx, &self.l_values, x);
    }

    /// In-place back substitution `Lᵀ x = b`, in permuted coordinates.
    pub fn lt_solve(&self, x: &mut [T]) {
        let sym = &self.sym;
        lt_solve_csc(&sym.l_colptr, &sym.l_rowidx, &self.l_values, x);
    }

    /// [`NumericLdlt::l_solve`] on `w` right-hand sides at once, stored
    /// row-interleaved: entry `(i, c)` at `x[i * w + c]`. One pass over
    /// `L` serves every column, and each column gets the bits
    /// [`NumericLdlt::l_solve`] would give it.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= w <= ROW_SOLVE_WIDTH` and
    /// `x.len() == self.dim() * w`.
    pub fn l_solve_rows(&self, x: &mut [T], w: usize) {
        assert_eq!(x.len(), self.sym.n * w, "dimension mismatch");
        let (colptr, rowidx, values) = (&self.sym.l_colptr, &self.sym.l_rowidx, &self.l_values);
        l_solve_rows_simd(colptr, rowidx, values, x, w);
    }

    /// [`NumericLdlt::lt_solve`] on `w` row-interleaved right-hand sides,
    /// the layout of [`NumericLdlt::l_solve_rows`]; each column gets the
    /// bits [`NumericLdlt::lt_solve`] would give it.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= w <= ROW_SOLVE_WIDTH` and
    /// `x.len() == self.dim() * w`.
    pub fn lt_solve_rows(&self, x: &mut [T], w: usize) {
        assert_eq!(x.len(), self.sym.n * w, "dimension mismatch");
        let (colptr, rowidx, values) = (&self.sym.l_colptr, &self.sym.l_rowidx, &self.l_values);
        lt_solve_rows_simd(colptr, rowidx, values, x, w);
    }
}

/// Inertia `(n_neg, n_zero, n_pos)` of a diagonal by real parts.
fn inertia_of<T: Scalar>(d: &[T]) -> (usize, usize, usize) {
    let (mut neg, mut zero, mut pos) = (0, 0, 0);
    for v in d {
        let r = v.real();
        if r > 0.0 {
            pos += 1;
        } else if r < 0.0 {
            neg += 1;
        } else {
            zero += 1;
        }
    }
    (neg, zero, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMat;
    use mpvl_la::Complex64;

    fn laplacian(n: usize) -> CscMat<f64> {
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + 0.01 * (i as f64 + 1.0));
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        t.to_csc()
    }

    #[test]
    fn solves_spd_system_all_orderings() {
        let a = laplacian(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        for o in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let f = NumericLdlt::factor(&a, o).expect("SPD");
            let x = f.solve(&b);
            let r = a.matvec(&x);
            for (u, v) in r.iter().zip(&b) {
                assert!((u - v).abs() < 1e-11, "{o:?} residual too large");
            }
        }
    }

    #[test]
    fn quasi_definite_saddle_point() {
        // [K  Bᵀ; B  -I] style (symmetric quasi-definite).
        let n = 6;
        let mut t = TripletMat::new(2 * n, 2 * n);
        for i in 0..n {
            t.push(i, i, 3.0);
            t.push(n + i, n + i, -1.0);
            t.push_sym(i, n + i, 1.0);
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let a = t.to_csc();
        let f = NumericLdlt::factor(&a, Ordering::MinDegree).expect("quasi-definite");
        let (neg, zero, pos) = f.inertia();
        assert_eq!((neg, zero, pos), (n, 0, n));
        let b = vec![1.0; 2 * n];
        let x = f.solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-11);
        }
    }

    #[test]
    fn complex_symmetric_system() {
        // G + j*w*C with G, C SPD patterns.
        let n = 20;
        let g = laplacian(n);
        let jw = Complex64::new(0.0, 2.0);
        let a = g.map(|v| Complex64::from_real(v) + jw * Complex64::from_real(v * 0.1));
        let f = NumericLdlt::factor(&a, Ordering::Rcm).expect("complex symmetric");
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0, i as f64 * 0.05))
            .collect();
        let x = f.solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-11);
        }
    }

    #[test]
    fn detects_singular_matrix() {
        // Graph Laplacian without grounding: singular.
        let n = 5;
        let mut t = TripletMat::new(n, n);
        for i in 0..n - 1 {
            t.push(i, i, 1.0);
            t.push(i + 1, i + 1, 1.0);
            t.push_sym(i, i + 1, -1.0);
        }
        let a = t.to_csc();
        match NumericLdlt::factor(&a, Ordering::Natural) {
            Err(LdltError::ZeroPivot { .. }) => {}
            other => panic!("expected zero pivot, got {other:?}"),
        }
    }

    #[test]
    fn zero_pivot_reports_original_column() {
        // A diagonal matrix with one exactly-zero entry, factored under a
        // reversing permutation: the error must name the *original* column,
        // not the elimination step.
        let n = 7;
        let bad = 2usize;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, if i == bad { 0.0 } else { 1.0 + i as f64 });
        }
        let a = t.to_csc();
        let perm: Vec<usize> = (0..n).rev().collect();
        let step = n - 1 - bad; // where the reversed order eliminates it
        match NumericLdlt::factor_with_perm(&a, perm) {
            Err(LdltError::ZeroPivot { col, .. }) => {
                assert_eq!(col, bad, "expected original index, step was {step}");
            }
            other => panic!("expected zero pivot, got {other:?}"),
        }
    }

    #[test]
    fn rejects_rectangular() {
        let a = CscMat::<f64>::zero(2, 3);
        assert!(matches!(
            NumericLdlt::factor(&a, Ordering::Natural),
            Err(LdltError::NotSquare { .. })
        ));
    }

    /// `M⁻¹ x = |D|^{-1/2} L⁻¹ Pᵀ x` for the paper's `A = M J Mᵀ` (eq. 15).
    fn apply_minv(f: &NumericLdlt<f64>, x: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = f.perm().iter().map(|&p| x[p]).collect();
        f.l_solve(&mut y);
        for (v, d) in y.iter_mut().zip(f.d()) {
            *v /= d.abs().sqrt();
        }
        y
    }

    /// `M⁻ᵀ x = P L⁻ᵀ |D|^{-1/2} x`.
    fn apply_minv_t(f: &NumericLdlt<f64>, x: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = x
            .iter()
            .zip(f.d())
            .map(|(v, d)| v / d.abs().sqrt())
            .collect();
        f.lt_solve(&mut y);
        let mut out = vec![0.0; y.len()];
        for (&p, v) in f.perm().iter().zip(y) {
            out[p] = v;
        }
        out
    }

    #[test]
    fn mj_view_reproduces_matrix_action() {
        // Verify M^{-1} A M^{-T} = J = sign(D) on an indefinite
        // quasi-definite matrix.
        let mut t = TripletMat::new(4, 4);
        t.push(0, 0, 4.0);
        t.push(1, 1, 3.0);
        t.push(2, 2, -2.0);
        t.push(3, 3, -5.0);
        t.push_sym(0, 2, 1.0);
        t.push_sym(1, 3, 0.5);
        let a = t.to_csc();
        let f = NumericLdlt::factor(&a, Ordering::Natural).unwrap();
        for i in 0..4 {
            let mut e = vec![0.0; 4];
            e[i] = 1.0;
            let w = apply_minv_t(&f, &e);
            let aw = a.matvec(&w);
            let res = apply_minv(&f, &aw);
            for (k, &v) in res.iter().enumerate() {
                let expect = if k == i { f.d()[i].signum() } else { 0.0 };
                assert!((v - expect).abs() < 1e-12, "entry {k},{i}: {v}");
            }
        }
    }

    #[test]
    fn fill_is_bounded_on_tridiagonal() {
        // A tridiagonal matrix factors with zero fill under natural order.
        let a = laplacian(100);
        let f = NumericLdlt::factor(&a, Ordering::Natural).unwrap();
        assert_eq!(f.l_nnz(), 99);
    }

    #[test]
    fn refactor_matches_fresh_factor_values_and_inertia() {
        // Second matrix, same pattern, different values: the reused
        // symbolic analysis must reproduce a from-scratch factorization
        // exactly (D bitwise, inertia, solves).
        let a1 = laplacian(40);
        let a2 = a1.map(|v| 1.9 * v + 0.3);
        let sym = Arc::new(SymbolicLdlt::analyze(&a1, Ordering::MinDegree).unwrap());
        let mut num = NumericLdlt::new(Arc::clone(&sym));
        num.refactor(&a1).unwrap();
        num.refactor(&a2).unwrap(); // reuses pattern + workspaces
        let fresh = NumericLdlt::factor_with_perm(&a2, sym.perm().to_vec()).unwrap();
        assert_eq!(num.d(), fresh.d(), "D must match bitwise");
        assert_eq!(num.inertia(), fresh.inertia());
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).cos()).collect();
        assert_eq!(num.solve(&b), fresh.solve(&b), "solves must match bitwise");
    }

    #[test]
    fn refactor_matches_fresh_factor_complex_indefinite() {
        // Complex-symmetric AC-style matrices G + jωC at two different ω
        // through one symbolic analysis.
        let g = laplacian(30);
        let sys_at = |w: f64| {
            let jw = Complex64::new(0.0, w);
            g.map(|v| Complex64::from_real(v) + jw * Complex64::from_real(0.2 * v))
        };
        let a1 = sys_at(1.5);
        let a2 = sys_at(42.0);
        let sym = Arc::new(SymbolicLdlt::analyze(&a1, Ordering::Rcm).unwrap());
        let mut num = NumericLdlt::new(Arc::clone(&sym));
        num.refactor(&a1).unwrap();
        num.refactor(&a2).unwrap();
        let fresh = NumericLdlt::factor_with_perm(&a2, sym.perm().to_vec()).unwrap();
        assert_eq!(num.d(), fresh.d());
        let b: Vec<Complex64> = (0..30)
            .map(|i| Complex64::new(1.0, 0.1 * i as f64))
            .collect();
        let x = num.solve_mat(&Mat::from_fn(30, 1, |i, _| b[i]));
        let r = a2.matvec(x.col(0));
        for (u, v) in r.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-10);
        }
    }

    #[test]
    fn refactor_rejects_pattern_mismatch() {
        let a = laplacian(10);
        let sym = Arc::new(SymbolicLdlt::analyze(&a, Ordering::Natural).unwrap());
        let mut num = NumericLdlt::new(Arc::clone(&sym));
        let other = laplacian(11);
        assert_eq!(num.refactor(&other), Err(LdltError::PatternMismatch));
        assert!(!num.is_factored());
        // Same dimension, different pattern (a diagonal-only matrix).
        let mut t = TripletMat::new(10, 10);
        for i in 0..10 {
            t.push(i, i, 1.0);
        }
        assert_eq!(num.refactor(&t.to_csc()), Err(LdltError::PatternMismatch));
        // A matching pattern still factors afterwards.
        num.refactor(&a).unwrap();
        assert!(num.is_factored());
    }

    #[test]
    fn refactor_recovers_after_zero_pivot() {
        // An ungrounded Laplacian breaks down; the same workspaces must
        // then cleanly factor a well-conditioned same-pattern matrix.
        let n = 6;
        let mut t = TripletMat::new(n, n);
        for i in 0..n - 1 {
            t.push(i, i, 1.0);
            t.push(i + 1, i + 1, 1.0);
            t.push_sym(i, i + 1, -1.0);
        }
        let singular = t.to_csc();
        let sym = Arc::new(SymbolicLdlt::analyze(&singular, Ordering::Natural).unwrap());
        let mut num = NumericLdlt::new(Arc::clone(&sym));
        assert!(matches!(
            num.refactor(&singular),
            Err(LdltError::ZeroPivot { .. })
        ));
        assert!(!num.is_factored());
        let grounded = singular.add_scaled(1.0, &CscMat::identity(n), 0.5);
        // Different pattern (identity adds nothing off-diagonal but the
        // union keeps it identical here since diagonals already exist).
        num.refactor(&grounded).unwrap();
        let fresh = NumericLdlt::factor_with_perm(&grounded, sym.perm().to_vec()).unwrap();
        assert_eq!(num.d(), fresh.d());
    }

    #[test]
    fn solve_mat_matches_columnwise_solves() {
        let a = laplacian(25);
        let f = NumericLdlt::factor(&a, Ordering::MinDegree).unwrap();
        let b = Mat::from_fn(25, 3, |i, j| ((i * 7 + j * 13) as f64 * 0.01).sin());
        let x = f.solve_mat(&b);
        for j in 0..3 {
            assert_eq!(x.col(j), &f.solve(b.col(j))[..], "column {j}");
        }
    }

    #[test]
    fn solve_mat_into_matches_allocating_solve_mat_on_reused_buffers() {
        let a = laplacian(25);
        let sym = Arc::new(SymbolicLdlt::analyze(&a, Ordering::Rcm).unwrap());
        let mut num = NumericLdlt::new(Arc::clone(&sym));
        num.refactor(&a).unwrap();
        let b1 = Mat::from_fn(25, 3, |i, j| ((i * 7 + j * 13) as f64 * 0.01).sin());
        let b2 = Mat::from_fn(25, 3, |i, j| ((i * 3 + j * 5) as f64 * 0.02).cos());
        // Deliberately dirty buffers: every entry must be overwritten.
        let mut work = vec![1234.5; 25];
        let mut out = Mat::from_fn(25, 3, |_, _| -7.75);
        num.solve_mat_into(&b1, &mut work, &mut out);
        assert_eq!(out.as_slice(), num.solve_mat(&b1).as_slice());
        num.solve_mat_into(&b2, &mut work, &mut out);
        assert_eq!(out.as_slice(), num.solve_mat(&b2).as_slice());
    }

    #[test]
    fn symbolic_predicts_exact_fill() {
        let a = laplacian(60);
        let sym = SymbolicLdlt::analyze(&a, Ordering::MinDegree).unwrap();
        let f = NumericLdlt::factor_with_perm(&a, sym.perm().to_vec()).unwrap();
        assert_eq!(sym.l_nnz(), f.l_nnz());
        assert_eq!(sym.dim(), 60);
    }

    #[test]
    fn supernodes_partition_the_columns() {
        // The supernode partition must tile 0..n with contiguous ranges on
        // every shape we throw at it, and a fully dense pattern must
        // collapse into ~n/SUPERNODE_MAX_WIDTH panels.
        let dense = {
            let n = 24;
            let mut t = TripletMat::new(n, n);
            for i in 0..n {
                t.push(i, i, 10.0 + i as f64);
                for j in i + 1..n {
                    t.push_sym(i, j, -0.1);
                }
            }
            t.to_csc()
        };
        let sym = SymbolicLdlt::analyze(&dense, Ordering::Natural).unwrap();
        assert_eq!(sym.supernode_count(), 1, "dense L is one panel");
        let tri = laplacian(30);
        let sym = SymbolicLdlt::analyze(&tri, Ordering::Natural).unwrap();
        assert!(sym.supernode_count() >= 15);
        assert_eq!(
            SymbolicLdlt::analyze(&CscMat::<f64>::zero(0, 0), Ordering::Natural)
                .unwrap()
                .supernode_count(),
            0
        );
    }

    #[test]
    fn supernodal_kernel_matches_scalar_kernel_bitwise() {
        // The in-module smoke version of the property suite in
        // tests/supernodal_bitident.rs: dense-ish fill exercises wide
        // panels, and every byte of L, D must agree with the scalar
        // reference kernel.
        let n = 40;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 6.0 + (i as f64) * 0.25);
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
            if i + 7 < n {
                t.push_sym(i, i + 7, -0.5);
            }
        }
        let a = t.to_csc();
        for o in [Ordering::Natural, Ordering::MinDegree, Ordering::Rcm] {
            let sym = Arc::new(SymbolicLdlt::analyze(&a, o).unwrap());
            let mut sup = NumericLdlt::new(Arc::clone(&sym));
            let mut sca = NumericLdlt::new(Arc::clone(&sym));
            sup.refactor(&a).unwrap();
            sca.refactor_scalar(&a).unwrap();
            assert_eq!(sup.d(), sca.d(), "{o:?}: D differs");
            assert_eq!(sup.l_values(), sca.l_values(), "{o:?}: L differs");
        }
    }

    #[test]
    fn min_degree_reduces_fill_on_arrow() {
        // Arrow matrix: natural order (hub first) fills completely;
        // min-degree eliminates the hub last with zero fill.
        let n = 30;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0);
        }
        for i in 1..n {
            t.push_sym(0, i, 1.0);
        }
        let a = t.to_csc();
        let nat = NumericLdlt::factor(&a, Ordering::Natural).unwrap();
        let md = NumericLdlt::factor(&a, Ordering::MinDegree).unwrap();
        assert_eq!(md.l_nnz(), n - 1);
        assert!(nat.l_nnz() > md.l_nnz());
    }

    #[test]
    fn row_interleaved_solves_match_column_solves_bit_for_bit() {
        // A 9 × 9 grid Laplacian: after min-degree, L has real fill (and
        // negative off-diagonals). Column 0 of each block is nonzero
        // everywhere, so no row of the block is all zeros; the others are
        // signed zeros with one nonzero each, so the forward solve meets
        // `xⱼ == +0.0` against `-0.0` entries, where subtracting `v · xⱼ`
        // instead of skipping would give `+0.0`.
        let side = 9;
        let n = side * side;
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + 0.01 * i as f64);
            if i % side + 1 < side {
                t.push_sym(i, i + 1, -1.0);
            }
            if i + side < n {
                t.push_sym(i, i + side, -1.0);
            }
        }
        let f = NumericLdlt::factor(&t.to_csc(), Ordering::MinDegree).expect("SPD");
        assert!(f.l_nnz() > 2 * n, "the grid factor should fill in");
        let entry = |i: usize, c: usize| match (c, i % 2) {
            (0, _) => 2.0 + (i as f64 * 0.37).sin(),
            _ if i == 3 * c => 2.0 + ((i + c) as f64 * 0.37).cos(),
            (_, 0) => -0.0,
            _ => 0.0,
        };
        for w in 1..=ROW_SOLVE_WIDTH {
            let mut rows: Vec<f64> = (0..n * w).map(|e| entry(e / w, e % w)).collect();
            let mut back = rows.clone();
            f.l_solve_rows(&mut rows, w);
            f.lt_solve_rows(&mut back, w);
            for c in 0..w {
                let mut col: Vec<f64> = (0..n).map(|i| entry(i, c)).collect();
                let mut col_back = col.clone();
                f.l_solve(&mut col);
                f.lt_solve(&mut col_back);
                for i in 0..n {
                    assert_eq!(
                        rows[i * w + c].to_bits(),
                        col[i].to_bits(),
                        "L, w={w} ({i}, {c})"
                    );
                    assert_eq!(
                        back[i * w + c].to_bits(),
                        col_back[i].to_bits(),
                        "Lᵀ, w={w} ({i}, {c})"
                    );
                }
            }
        }
    }
}
