//! Dense column-major matrices generic over [`Scalar`].

use crate::Scalar;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense matrix stored in column-major order.
///
/// Sized for reduced-order models and Lanczos bookkeeping (tens to a few
/// hundreds of rows); the large circuit matrices live in `mpvl-sparse`.
///
/// # Examples
///
/// ```
/// use mpvl_la::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::<f64>::identity(2);
/// assert_eq!(&a * &b, a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat<T> {
    nrows: usize,
    ncols: usize,
    /// Column-major data, `data[i + j * nrows]`.
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Creates an `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat {
            nrows,
            ncols,
            data: vec![T::zero(); nrows * ncols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Mat::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
        }
        Mat::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[T]) -> Self {
        let mut m = Mat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a single-column matrix from a vector.
    pub fn from_col(col: &[T]) -> Self {
        Mat {
            nrows: col.len(),
            ncols: 1,
            data: col.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Borrows column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutably borrows column `j` as a slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Sets the column count in place: leading columns keep their values,
    /// new columns are zero. The allocation is kept when shrinking, so a
    /// staging matrix can move between widths without reallocating.
    pub fn resize_cols(&mut self, ncols: usize) {
        self.data.resize(self.nrows * ncols, T::zero());
        self.ncols = ncols;
    }

    /// Copies row `i` into a new vector.
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw column-major buffer, mutably (column `j` occupies
    /// `j*nrows..(j+1)*nrows` — the contract blocked kernels rely on to
    /// split a matrix into independent per-column slices).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Returns the conjugate transpose.
    pub fn adjoint(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Applies `f` entrywise, producing a matrix of a possibly different scalar.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Mat<U> {
        Mat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A x` into the caller-owned `y`
    /// (overwritten) — the allocation-free primitive [`Mat::matvec`]
    /// wraps, with identical accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()` or `y.len() != self.nrows()`.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        assert_eq!(y.len(), self.nrows, "dimension mismatch");
        y.fill(T::zero());
        for j in 0..self.ncols {
            let xj = x[j];
            let col = self.col(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
    }

    /// Transposed matrix–vector product `Aᵀ x` (no conjugation).
    pub fn t_matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.nrows, "dimension mismatch");
        (0..self.ncols)
            .map(|j| {
                let col = self.col(j);
                col.iter()
                    .zip(x)
                    .fold(T::zero(), |acc, (&a, &b)| acc + a * b)
            })
            .collect()
    }

    /// Matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols() != rhs.nrows()`.
    pub fn matmul(&self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!(self.ncols, rhs.nrows, "dimension mismatch");
        let mut out = Mat::zeros(self.nrows, rhs.ncols);
        for j in 0..rhs.ncols {
            for k in 0..self.ncols {
                let b = rhs[(k, j)];
                if b == T::zero() {
                    continue;
                }
                let col = self.col(k);
                let oc = out.col_mut(j);
                for i in 0..self.nrows {
                    oc[i] += col[i] * b;
                }
            }
        }
        out
    }

    /// Product `Aᵀ B` without forming the transpose (no conjugation).
    pub fn t_matmul(&self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!(self.nrows, rhs.nrows, "dimension mismatch");
        Mat::from_fn(self.ncols, rhs.ncols, |i, j| {
            let a = self.col(i);
            let b = rhs.col(j);
            a.iter().zip(b).fold(T::zero(), |acc, (&x, &y)| acc + x * y)
        })
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: T) -> Mat<T> {
        self.map(|x| x * k)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.modulus() * x.modulus())
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.modulus()).fold(0.0, f64::max)
    }

    /// Maximum of `|A - Aᵀ|` over all entries; zero for exactly symmetric matrices.
    pub fn asymmetry(&self) -> f64 {
        if self.nrows != self.ncols {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for j in 0..self.ncols {
            for i in 0..j {
                worst = worst.max((self[(i, j)] - self[(j, i)]).modulus());
            }
        }
        worst
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.ncols {
            let ia = a + j * self.nrows;
            let ib = b + j * self.nrows;
            self.data.swap(ia, ib);
        }
    }

    /// Returns the contiguous sub-matrix with rows `r0..r1` and columns `c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat<T> {
        assert!(r0 <= r1 && r1 <= self.nrows && c0 <= c1 && c1 <= self.ncols);
        Mat::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Horizontally concatenates `self` and `rhs`.
    pub fn hcat(&self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!(self.nrows, rhs.nrows, "row mismatch");
        let mut out = Mat::zeros(self.nrows, self.ncols + rhs.ncols);
        out.data[..self.data.len()].copy_from_slice(&self.data);
        out.data[self.data.len()..].copy_from_slice(&rhs.data);
        out
    }

    /// Vertically stacks `self` on top of `rhs`.
    pub fn vcat(&self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!(self.ncols, rhs.ncols, "column mismatch");
        Mat::from_fn(self.nrows + rhs.nrows, self.ncols, |i, j| {
            if i < self.nrows {
                self[(i, j)]
            } else {
                rhs[(i - self.nrows, j)]
            }
        })
    }

    /// Returns the main diagonal.
    pub fn diag(&self) -> Vec<T> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self[(i, i)])
            .collect()
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl<T: Scalar> Add for &Mat<T> {
    type Output = Mat<T>;
    fn add(self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        Mat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Scalar> Sub for &Mat<T> {
    type Output = Mat<T>;
    fn sub(self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!((self.nrows, self.ncols), (rhs.nrows, rhs.ncols));
        Mat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl<T: Scalar> Mul for &Mat<T> {
    type Output = Mat<T>;
    fn mul(self, rhs: &Mat<T>) -> Mat<T> {
        self.matmul(rhs)
    }
}

impl<T: Scalar> Neg for &Mat<T> {
    type Output = Mat<T>;
    fn neg(self) -> Mat<T> {
        self.map(|x| -x)
    }
}

impl<T: Scalar> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(12) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(12) {
                write!(f, "{:>14} ", format!("{}", self[(i, j)]))?;
            }
            if self.ncols > 12 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.nrows > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Mat::<f64>::identity(3);
        let i2 = Mat::<f64>::identity(2);
        assert_eq!(a.matmul(&i3), a);
        assert_eq!(i2.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution_and_t_matmul() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn complex_adjoint_conjugates() {
        let a = Mat::from_rows(&[&[Complex64::new(1.0, 2.0), Complex64::new(0.0, -1.0)]]);
        let ah = a.adjoint();
        assert_eq!(ah.nrows(), 2);
        assert_eq!(ah[(0, 0)], Complex64::new(1.0, -2.0));
        assert_eq!(ah[(1, 0)], Complex64::new(0.0, 1.0));
    }

    #[test]
    fn norms_and_asymmetry() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
        let s = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert_eq!(s.asymmetry(), 0.0);
        let ns = Mat::from_rows(&[&[1.0, 2.0], &[2.5, 5.0]]);
        assert!((ns.asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn cat_and_submatrix() {
        let a = Mat::from_rows(&[&[1.0], &[2.0]]);
        let b = Mat::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hcat(&b);
        assert_eq!(h, Mat::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        let v = a.vcat(&b);
        assert_eq!(v.nrows(), 4);
        assert_eq!(v[(3, 0)], 4.0);
        let s = h.submatrix(0, 1, 1, 2);
        assert_eq!(s, Mat::from_rows(&[&[3.0]]));
    }

    #[test]
    fn swap_rows_permutes() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.swap_rows(0, 1);
        assert_eq!(a, Mat::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]));
    }

    #[test]
    fn operators() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::<f64>::identity(2);
        assert_eq!(&(&a + &b) - &b, a);
        assert_eq!((&(-&a))[(1, 1)], -4.0);
    }

    #[test]
    fn diag_and_from_diag() {
        let d = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
