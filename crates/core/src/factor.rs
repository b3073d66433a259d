//! The `G = M J Mᵀ` factorization driver (paper eq. 15).
//!
//! Dispatches between the sparse unpivoted LDLᵀ (the fast path; valid for
//! the semidefinite RC/RL/LC matrices and the quasi-definite shifted RLC
//! matrices) and a dense Bunch–Kaufman fallback for the rare structurally
//! awkward cases (e.g. nodes touched only by inductors, where unpivoted
//! elimination can hit a zero pivot).

use crate::SympvlError;
use mpvl_la::{BunchKaufman, Mat, MjFactor};
use mpvl_sparse::{CscMat, NumericLdlt, Ordering, ROW_SOLVE_WIDTH};

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
    /// Factors `g`, preferring the sparse path.
    ///
    /// # Errors
    ///
    /// Returns [`SympvlError::Factorization`] when both the sparse LDLᵀ and
    /// the dense Bunch–Kaufman factorization fail (singular `G`; apply a
    /// frequency shift per eq. 26 and retry).
    pub fn factor(g: &CscMat<f64>) -> Result<Self, SympvlError> {
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
        mpvl_par::parallel_for_chunks(&mut ranges, |offset, chunk| {
            let mut stage = vec![0.0; n * ROW_SOLVE_WIDTH];
            for (k, cols) in chunk.iter_mut().enumerate() {
                kernel(self, x, (offset + k) * per_worker, &mut stage, cols);
            }
        });
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let f = GFactor::factor(&g).unwrap();
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
        let f = GFactor::factor(&g).unwrap();
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
        let f = GFactor::factor(&g).unwrap();
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
        let f = GFactor::factor(&g).unwrap();
        assert!(matches!(f, GFactor::Sparse { .. }));
        let x = Mat::from_fn(8, 3, |i, j| ((i * 5 + j) as f64 * 0.2).sin());
        let blocked = f.apply_minv_mat(&x);
        for j in 0..3 {
            assert_eq!(blocked.col(j), &f.apply_minv(x.col(j))[..], "column {j}");
        }
    }

    #[test]
    fn reports_singular() {
        let g = CscMat::<f64>::zero(3, 3);
        assert!(matches!(
            GFactor::factor(&g),
            Err(SympvlError::Factorization { .. })
        ));
    }
}
