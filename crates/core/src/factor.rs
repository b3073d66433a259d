//! The `G = M J Mᵀ` factorization driver (paper eq. 15).
//!
//! Dispatches between the sparse unpivoted LDLᵀ (the fast path; valid for
//! the semidefinite RC/RL/LC matrices and the quasi-definite shifted RLC
//! matrices) and a dense Bunch–Kaufman fallback for the rare structurally
//! awkward cases (e.g. nodes touched only by inductors, where unpivoted
//! elimination can hit a zero pivot). Between the two sits an O(nnz)
//! test for node voltages with no DC path to ground: such a `G` is
//! singular whatever the pivoting, so it fails at once instead of
//! paying for an O(N³) dense attempt the shift policy would discard.

use crate::SympvlError;
use mpvl_la::{BunchKaufman, Mat, MjFactor};
use mpvl_sparse::{CscMat, NumericLdlt, Ordering, BREAKDOWN_RTOL, ROW_SOLVE_WIDTH};

/// A factorization of a symmetric matrix `G` as `M J Mᵀ` with
/// `J = diag(±1)`, exposing the operations the Lanczos process needs:
/// `M⁻¹x`, `M⁻ᵀx`, and the signature `J`.
#[derive(Debug)]
pub enum GFactor {
    /// Sparse LDLᵀ path (possibly indefinite diagonal).
    Sparse {
        /// The factorization itself.
        fac: NumericLdlt<f64>,
        /// `√|dᵢ|` scaling.
        sqrt_d: Vec<f64>,
        /// Signature `sign(dᵢ)`.
        j_sign: Vec<f64>,
    },
    /// Dense Bunch–Kaufman fallback.
    Dense(MjFactor),
}

impl GFactor {
    /// Factors `g`, preferring the sparse path. The first
    /// `num_node_unknowns` unknowns are node voltages and the rest
    /// inductor currents (`MnaSystem::num_node_unknowns`); a bare matrix
    /// passes `g.nrows()`.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Factorization`] when the sparse LDLᵀ fails
    /// and either some node voltages float (a connected group of `G`'s
    /// graph with no DC path to ground, named in the reason) or the dense
    /// Bunch–Kaufman factorization fails too. Either way `G` is singular;
    /// apply a frequency shift per eq. 26 and retry.
    ///
    /// # Panics
    ///
    /// Panics if `num_node_unknowns > g.nrows()`.
    pub fn factor(g: &CscMat<f64>, num_node_unknowns: usize) -> Result<Self, SympvlError> {
        assert!(
            num_node_unknowns <= g.nrows(),
            "more node voltages than unknowns"
        );
        match NumericLdlt::factor(g, Ordering::MinDegree) {
            Ok(fac) => {
                let sqrt_d: Vec<f64> = fac.d().iter().map(|&v| v.abs().sqrt()).collect();
                let j_sign: Vec<f64> = fac.d().iter().map(|&v| v.signum()).collect();
                Ok(GFactor::Sparse {
                    fac,
                    sqrt_d,
                    j_sign,
                })
            }
            Err(sparse_err) => {
                let (groups, floating) = floating_node_voltages(g, num_node_unknowns);
                if floating > 0 {
                    return Err(SympvlError::Factorization {
                        reason: format!(
                            "sparse: {sparse_err}; {floating} node voltages in {groups} \
                             group(s) have no DC path to ground"
                        ),
                    });
                }
                let bk =
                    BunchKaufman::new(&g.to_dense()).map_err(|e| SympvlError::Factorization {
                        reason: format!("sparse: {sparse_err}; dense: {e}"),
                    })?;
                let mj = bk.to_mj().map_err(|e| SympvlError::Factorization {
                    reason: format!("sparse: {sparse_err}; dense block: {e}"),
                })?;
                Ok(GFactor::Dense(mj))
            }
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        match self {
            GFactor::Sparse { fac, .. } => fac.dim(),
            GFactor::Dense(mj) => mj.dim(),
        }
    }

    /// The signature `J = diag(±1)`.
    pub fn j_diag(&self) -> Vec<f64> {
        match self {
            GFactor::Sparse { j_sign, .. } => j_sign.clone(),
            GFactor::Dense(mj) => mj.j_diag().to_vec(),
        }
    }

    /// Pivot magnitude range `(min |d|, max |d|)` of the factorization —
    /// a cheap conditioning signal (an ungrounded Laplacian factors with
    /// one near-zero pivot instead of failing outright). A
    /// zero-dimensional factor reports `(0.0, 0.0)`, not the raw fold
    /// identity `(∞, 0.0)`, so "is the factor well conditioned" checks
    /// cannot pass vacuously.
    pub fn pivot_range(&self) -> (f64, f64) {
        let fold = |it: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
            let (lo, hi) = it.fold((f64::INFINITY, 0.0_f64), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
            if lo.is_finite() {
                (lo, hi)
            } else {
                (0.0, 0.0)
            }
        };
        match self {
            GFactor::Sparse { fac, .. } => fold(&mut fac.d().iter().map(|v| v.abs())),
            GFactor::Dense(mj) => fold(&mut mj.pivot_magnitudes().into_iter()),
        }
    }

    /// `true` when `J = I`, i.e. `G` is positive definite — the RC/RL/LC
    /// fast path of §5 with guaranteed stability and passivity.
    pub fn is_identity_j(&self) -> bool {
        match self {
            GFactor::Sparse { j_sign, .. } => j_sign.iter().all(|&s| s > 0.0),
            GFactor::Dense(mj) => mj.j_diag().iter().all(|&s| s > 0.0),
        }
    }

    /// Applies `M⁻¹` to `x`.
    pub fn apply_minv(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.apply_minv_into(x, &mut out);
        out
    }

    /// Applies `M⁻¹` into the caller-owned `out` — the allocation-free
    /// primitive [`GFactor::apply_minv`] wraps. `out` doubles as the
    /// working vector: the permutation gather lands in `out`, then the
    /// triangular solve and scaling run in place, so no per-call `Vec`
    /// or scatter buffer is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differ from `self.dim()`.
    pub fn apply_minv_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            GFactor::Sparse { fac, sqrt_d, .. } => {
                let n = fac.dim();
                assert_eq!(x.len(), n, "dimension mismatch");
                assert_eq!(out.len(), n, "dimension mismatch");
                let perm = fac.perm();
                for i in 0..n {
                    out[i] = x[perm[i]];
                }
                fac.l_solve(out);
                for k in 0..n {
                    out[k] /= sqrt_d[k];
                }
            }
            GFactor::Dense(mj) => mj.apply_minv_into(x, out),
        }
    }

    /// Applies `M⁻ᵀ` to `x`.
    pub fn apply_minv_t(&self, x: &[f64]) -> Vec<f64> {
        let n = self.dim();
        let mut work = vec![0.0; n];
        let mut out = vec![0.0; n];
        self.apply_minv_t_into(x, &mut work, &mut out);
        out
    }

    /// Applies `M⁻ᵀ` into the caller-owned `out` — the allocation-free
    /// primitive [`GFactor::apply_minv_t`] wraps. The final step is a
    /// permutation scatter, which cannot alias its source, so the
    /// caller provides the `work` vector the solves run in.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `self.dim()`.
    pub fn apply_minv_t_into(&self, x: &[f64], work: &mut [f64], out: &mut [f64]) {
        match self {
            GFactor::Sparse { fac, sqrt_d, .. } => {
                let n = fac.dim();
                assert_eq!(x.len(), n, "dimension mismatch");
                assert_eq!(work.len(), n, "dimension mismatch");
                assert_eq!(out.len(), n, "dimension mismatch");
                for k in 0..n {
                    work[k] = x[k] / sqrt_d[k];
                }
                fac.lt_solve(work);
                let perm = fac.perm();
                for i in 0..n {
                    out[perm[i]] = work[i];
                }
            }
            GFactor::Dense(mj) => mj.apply_minv_t_into(x, work, out),
        }
    }

    /// Applies `M⁻¹` to every column of a dense matrix on
    /// [`mpvl_par::thread_count`] workers.
    ///
    /// Each worker runs the blocked kernel of
    /// [`GFactor::apply_minv_mat_into`] on a contiguous, index-ordered
    /// column range with its own stage; every column is bit-identical to
    /// [`GFactor::apply_minv_into`], so the result is too, at any thread
    /// count.
    pub fn apply_minv_mat(&self, x: &Mat<f64>) -> Mat<f64> {
        self.par_blocked(x, Self::minv_block)
    }

    /// Applies `M⁻ᵀ` to every column of a dense matrix (the blocked
    /// mirror of [`GFactor::apply_minv_mat`], equally bit-identical at
    /// any thread count).
    pub fn apply_minv_t_mat(&self, x: &Mat<f64>) -> Mat<f64> {
        self.par_blocked(x, Self::minv_t_block)
    }

    /// Blocked `M⁻¹ X` into a caller-owned matrix: the allocation-free
    /// primitive the [`crate::LinearOperator`] block apply builds on.
    ///
    /// On the sparse path the columns go through `L` in chunks of
    /// [`ROW_SOLVE_WIDTH`], staged row-interleaved in `stage`, so one
    /// pass over the factor serves a whole chunk. Every column is
    /// bit-identical to [`GFactor::apply_minv_into`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not line up or
    /// `stage.len() < self.dim() * ROW_SOLVE_WIDTH`.
    pub fn apply_minv_mat_into(&self, x: &Mat<f64>, stage: &mut [f64], out: &mut Mat<f64>) {
        self.check_block_shapes(x, stage, out);
        self.minv_block(x, 0, stage, out.as_mut_slice());
    }

    /// Blocked `M⁻ᵀ X` into a caller-owned matrix, staged like
    /// [`GFactor::apply_minv_mat_into`]; every column is bit-identical to
    /// [`GFactor::apply_minv_t_into`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not line up or
    /// `stage.len() < self.dim() * ROW_SOLVE_WIDTH`.
    pub fn apply_minv_t_mat_into(&self, x: &Mat<f64>, stage: &mut [f64], out: &mut Mat<f64>) {
        self.check_block_shapes(x, stage, out);
        self.minv_t_block(x, 0, stage, out.as_mut_slice());
    }

    fn check_block_shapes(&self, x: &Mat<f64>, stage: &[f64], out: &Mat<f64>) {
        let n = self.dim();
        assert_eq!(x.nrows(), n, "dimension mismatch");
        assert_eq!(out.nrows(), n, "dimension mismatch");
        assert_eq!(x.ncols(), out.ncols(), "column count mismatch");
        assert!(
            stage.len() >= n * ROW_SOLVE_WIDTH,
            "staging buffer too small"
        );
    }

    /// Runs a blocked kernel on a fresh `N × x.ncols()` result, one
    /// contiguous column range per [`mpvl_par::thread_count`] worker,
    /// each with its own `N × ROW_SOLVE_WIDTH` stage.
    fn par_blocked<K>(&self, x: &Mat<f64>, kernel: K) -> Mat<f64>
    where
        K: Fn(&Self, &Mat<f64>, usize, &mut [f64], &mut [f64]) + Sync,
    {
        let n = self.dim();
        assert_eq!(x.nrows(), n, "dimension mismatch");
        let mut out = Mat::zeros(n, x.ncols());
        if n == 0 || x.ncols() == 0 {
            return out;
        }
        let per_worker = x.ncols().div_ceil(mpvl_par::thread_count().max(1));
        let mut ranges: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(n * per_worker).collect();
        mpvl_par::parallel_for_chunks_with_init(
            mpvl_par::thread_count(),
            &mut ranges,
            |_| vec![0.0; n * ROW_SOLVE_WIDTH],
            |stage, offset, chunk| {
                for (k, cols) in chunk.iter_mut().enumerate() {
                    kernel(self, x, (offset + k) * per_worker, stage, cols);
                }
            },
        );
        out
    }

    /// `M⁻¹` on columns `c0..c0 + m` of `x` into `out`, the column-major
    /// `N × m` slab that receives them (shapes already checked).
    fn minv_block(&self, x: &Mat<f64>, c0: usize, stage: &mut [f64], out: &mut [f64]) {
        let n = self.dim();
        let m = out.len() / n.max(1);
        match self {
            GFactor::Sparse { fac, sqrt_d, .. } => {
                let perm = fac.perm();
                for b0 in (0..m).step_by(ROW_SOLVE_WIDTH) {
                    let w = ROW_SOLVE_WIDTH.min(m - b0);
                    let buf = &mut stage[..n * w];
                    for (i, row) in buf.chunks_exact_mut(w).enumerate() {
                        for (c, b) in row.iter_mut().enumerate() {
                            *b = x[(perm[i], c0 + b0 + c)];
                        }
                    }
                    fac.l_solve_rows(buf, w);
                    for (k, row) in buf.chunks_exact(w).enumerate() {
                        for (c, &b) in row.iter().enumerate() {
                            out[(b0 + c) * n + k] = b / sqrt_d[k];
                        }
                    }
                }
            }
            GFactor::Dense(mj) => {
                for (c, dst) in out.chunks_exact_mut(n.max(1)).enumerate() {
                    mj.apply_minv_into(x.col(c0 + c), dst);
                }
            }
        }
    }

    /// `M⁻ᵀ` on columns `c0..c0 + m` of `x`, laid out like
    /// [`GFactor::minv_block`].
    fn minv_t_block(&self, x: &Mat<f64>, c0: usize, stage: &mut [f64], out: &mut [f64]) {
        let n = self.dim();
        let m = out.len() / n.max(1);
        match self {
            GFactor::Sparse { fac, sqrt_d, .. } => {
                let perm = fac.perm();
                for b0 in (0..m).step_by(ROW_SOLVE_WIDTH) {
                    let w = ROW_SOLVE_WIDTH.min(m - b0);
                    let buf = &mut stage[..n * w];
                    for (k, row) in buf.chunks_exact_mut(w).enumerate() {
                        for (c, b) in row.iter_mut().enumerate() {
                            *b = x[(k, c0 + b0 + c)] / sqrt_d[k];
                        }
                    }
                    fac.lt_solve_rows(buf, w);
                    for (i, row) in buf.chunks_exact(w).enumerate() {
                        for (c, &b) in row.iter().enumerate() {
                            out[(b0 + c) * n + perm[i]] = b;
                        }
                    }
                }
            }
            GFactor::Dense(mj) => {
                for (c, dst) in out.chunks_exact_mut(n.max(1)).enumerate() {
                    mj.apply_minv_t_into(x.col(c0 + c), &mut stage[..n], dst);
                }
            }
        }
    }
}

/// Counts the node voltages `g` leaves floating, as `(groups, node
/// voltages)`. A group is a connected component of `g`'s graph; let `u`
/// be its indicator on the node-voltage unknowns (the first
/// `num_node_unknowns`), zero on the inductor currents. When every row
/// of `g·u` is within the sparse factor's breakdown floor, `u` is a null
/// vector — the group has no DC path to ground — and `g` is singular
/// whatever its form. Components share no entries, so one product with
/// the indicator of all node voltages yields every group's `g·u` at
/// once: O(nnz) in all.
fn floating_node_voltages(g: &CscMat<f64>, num_node_unknowns: usize) -> (usize, usize) {
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let n = g.nrows();
    let mut parent: Vec<usize> = (0..n).collect();
    for j in 0..n {
        for &i in g.col_entries(j).0 {
            let (a, b) = (root(&mut parent, i), root(&mut parent, j));
            parent[a.max(b)] = a.min(b);
        }
    }
    let u: Vec<f64> = (0..n)
        .map(|i| f64::from(u8::from(i < num_node_unknowns)))
        .collect();
    let gu = g.matvec(&u);
    let max_abs = g.values().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let floor = BREAKDOWN_RTOL * max_abs.max(f64::MIN_POSITIVE);
    let mut nodes = vec![0usize; n];
    let mut grounded = vec![false; n];
    for (i, v) in gu.iter().enumerate() {
        let r = root(&mut parent, i);
        nodes[r] += usize::from(i < num_node_unknowns);
        // A NaN row proves nothing: it leaves the group to the dense path.
        grounded[r] |= v.abs() > floor || v.is_nan();
    }
    (0..n)
        .filter(|&r| parent[r] == r && nodes[r] > 0 && !grounded[r])
        .fold((0, 0), |(groups, count), r| (groups + 1, count + nodes[r]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvl_circuit::generators::{package, rc_ladder, PackageParams};
    use mpvl_circuit::MnaSystem;
    use mpvl_sparse::TripletMat;

    fn check_mjm(g: &CscMat<f64>, f: &GFactor) {
        // M^{-1} G M^{-T} must equal J.
        let n = g.nrows();
        let j = f.j_diag();
        for i in 0..n {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            let w = f.apply_minv_t(&e);
            let gw = g.matvec(&w);
            let res = f.apply_minv(&gw);
            for (k, &v) in res.iter().enumerate() {
                let expect = if k == i { j[i] } else { 0.0 };
                assert!((v - expect).abs() < 1e-9, "({k},{i}): {v} vs {expect}");
            }
        }
    }

    #[test]
    fn sparse_spd_path() {
        let mut t = TripletMat::new(6, 6);
        for i in 0..6 {
            t.push(i, i, 3.0);
            if i + 1 < 6 {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let g = t.to_csc();
        let f = GFactor::factor(&g, g.nrows()).unwrap();
        assert!(matches!(f, GFactor::Sparse { .. }));
        assert!(f.is_identity_j());
        check_mjm(&g, &f);
    }

    #[test]
    fn sparse_indefinite_path() {
        // Quasi-definite: positive block, negative block, coupling.
        let mut t = TripletMat::new(6, 6);
        for i in 0..3 {
            t.push(i, i, 2.0);
            t.push(3 + i, 3 + i, -1.5);
            t.push_sym(i, 3 + i, 1.0);
        }
        let g = t.to_csc();
        let f = GFactor::factor(&g, g.nrows()).unwrap();
        assert!(!f.is_identity_j());
        let j = f.j_diag();
        assert_eq!(j.iter().filter(|&&s| s > 0.0).count(), 3);
        check_mjm(&g, &f);
    }

    #[test]
    fn dense_fallback_on_zero_diagonal() {
        // Saddle point with zero diagonal: unpivoted sparse LDLT breaks,
        // dense Bunch-Kaufman succeeds.
        let mut t = TripletMat::new(3, 3);
        t.push_sym(0, 2, 1.0);
        t.push_sym(1, 2, 1.0);
        t.push(0, 0, 1.0);
        // node 1 and 2 diagonals zero
        let g = t.to_csc();
        let f = GFactor::factor(&g, g.nrows()).unwrap();
        assert!(matches!(f, GFactor::Dense(_)));
        check_mjm(&g, &f);
    }

    #[test]
    fn blocked_minv_mat_matches_columnwise() {
        // Sparse path: a quasi-definite matrix.
        let mut t = TripletMat::new(8, 8);
        for i in 0..4 {
            t.push(i, i, 2.0);
            t.push(4 + i, 4 + i, -1.5);
            t.push_sym(i, 4 + i, 1.0);
        }
        let g = t.to_csc();
        let f = GFactor::factor(&g, g.nrows()).unwrap();
        assert!(matches!(f, GFactor::Sparse { .. }));
        let x = Mat::from_fn(8, 3, |i, j| ((i * 5 + j) as f64 * 0.2).sin());
        let blocked = f.apply_minv_mat(&x);
        for j in 0..3 {
            assert_eq!(blocked.col(j), &f.apply_minv(x.col(j))[..], "column {j}");
        }
    }

    /// The reason a floating-group rejection gives, or a panic naming
    /// what came back instead. A reason that names no dense attempt
    /// shows `GFactor::factor` stopped before building a dense matrix.
    fn floating_reason(f: Result<GFactor, SympvlError>) -> String {
        match f {
            Err(SympvlError::Factorization { reason }) => {
                assert!(!reason.contains("dense"), "{reason}");
                reason
            }
            Err(e) => panic!("expected a Factorization error, got {e}"),
            Ok(f) => panic!(
                "expected a Factorization error, got a factor of dim {}",
                f.dim()
            ),
        }
    }

    #[test]
    fn floating_rc_ladder_fails_before_the_dense_path() {
        // No resistor reaches ground: the 13 node voltages form one group.
        let sys = MnaSystem::assemble(&rc_ladder(12, 100.0, 1e-12)).unwrap();
        assert_eq!(
            floating_node_voltages(&sys.g, sys.num_node_unknowns),
            (1, 13)
        );
        let reason = floating_reason(GFactor::factor(&sys.g, sys.num_node_unknowns));
        assert!(
            reason.contains("13 node voltages in 1 group(s) have no DC path to ground"),
            "{reason}"
        );
    }

    #[test]
    fn floating_package_signal_pins_fail_before_the_dense_path() {
        // General form: the inductor currents follow the node voltages.
        // Each signal pin is an R–L chain with only capacitors to ground
        // (2·3 + 1 = 7 node voltages); the other pins end in `Rterm`.
        let ckt = package(&PackageParams {
            pins: 4,
            signal_pins: vec![0, 2],
            sections: 3,
            ..PackageParams::default()
        });
        let sys = MnaSystem::assemble_general(&ckt).unwrap();
        assert!(sys.num_node_unknowns < sys.dim());
        assert_eq!(
            floating_node_voltages(&sys.g, sys.num_node_unknowns),
            (2, 14)
        );
        let reason = floating_reason(GFactor::factor(&sys.g, sys.num_node_unknowns));
        assert!(
            reason.contains("14 node voltages in 2 group(s)"),
            "{reason}"
        );
    }

    #[test]
    fn grounded_group_is_not_flagged_and_factors_sparse() {
        // A laplacian of a floating 3-node path, tied to ground at node 2
        // by `tie`: above the breakdown floor it is grounded, below it the
        // group still floats.
        let path = |tie: f64| {
            let mut t = TripletMat::new(3, 3);
            for (a, b) in [(0, 1), (1, 2)] {
                t.push(a, a, 1.0);
                t.push(b, b, 1.0);
                t.push_sym(a, b, -1.0);
            }
            t.push(2, 2, tie);
            t.to_csc()
        };
        assert_eq!(floating_node_voltages(&path(0.0), 3), (1, 3));
        assert_eq!(floating_node_voltages(&path(1e-15), 3), (1, 3));
        for tie in [1e-10, 1e-3] {
            let g = path(tie);
            assert_eq!(floating_node_voltages(&g, 3), (0, 0), "tie {tie}");
            let f = GFactor::factor(&g, 3).unwrap();
            assert!(matches!(f, GFactor::Sparse { .. }), "tie {tie}");
        }
        check_mjm(&path(1e-3), &GFactor::factor(&path(1e-3), 3).unwrap());
        // The rc_ladder with a resistor from its far end to ground.
        let mut ckt = rc_ladder(12, 100.0, 1e-12);
        ckt.add_resistor("Rgnd", 13, mpvl_circuit::GROUND, 1e3);
        let sys = MnaSystem::assemble(&ckt).unwrap();
        assert_eq!(
            floating_node_voltages(&sys.g, sys.num_node_unknowns),
            (0, 0)
        );
        let f = GFactor::factor(&sys.g, sys.num_node_unknowns).unwrap();
        assert!(matches!(f, GFactor::Sparse { .. }) && f.is_identity_j());
    }

    #[test]
    fn reports_singular() {
        let g = CscMat::<f64>::zero(3, 3);
        assert!(matches!(
            GFactor::factor(&g, 3),
            Err(SympvlError::Factorization { .. })
        ));
    }
}
