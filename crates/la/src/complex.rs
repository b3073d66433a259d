//! A minimal double-precision complex number type.
//!
//! The reproduction deliberately avoids external numeric crates, so this
//! module provides the small slice of complex arithmetic the rest of the
//! workspace needs: field operations, conjugation, magnitude, square roots
//! and polar construction.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use mpvl_la::Complex64;
///
/// let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
/// let z = Complex64::new(1.0, 0.0) / (Complex64::ONE + s * 1e-12);
/// assert!(z.abs() <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * exp(i * theta)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Returns the magnitude (modulus), computed robustly via `hypot`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared magnitude `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the multiplicative inverse.
    ///
    /// Uses Smith's algorithm to avoid overflow for extreme magnitudes.
    #[inline]
    pub fn recip(self) -> Self {
        // Smith's method: scale by the larger component.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex64::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex64::new(r / d, -1.0 / d)
        }
    }

    /// Returns the principal square root (branch cut on the negative real axis).
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Complex64::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im_mag = ((m - self.re) * 0.5).sqrt();
        Complex64::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// Returns `exp(self)`.
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Integer power `self^p` as the product `ONE · self · self · …` of
    /// `p` factors, left to right (`p = 0` gives [`Complex64::ONE`]).
    ///
    /// This is the one `s → σ = s^p` map of the workspace (and the
    /// leading `s^q` of `Z(s)`): every caller multiplies in the same
    /// order, so the same `s` and `p` give the same bits everywhere.
    ///
    /// ```
    /// use mpvl_la::Complex64;
    /// let s = Complex64::new(0.0, 2.0);
    /// assert_eq!(s.powu(0), Complex64::ONE);
    /// assert_eq!(s.powu(1), s);
    /// assert_eq!(s.powu(2), Complex64::from_real(-4.0));
    /// ```
    #[inline]
    pub fn powu(self, p: u32) -> Self {
        let mut acc = Complex64::ONE;
        for _ in 0..p {
            acc *= self;
        }
        acc
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 3.0);
        let c = Complex64::new(4.0, 0.5);
        assert!(close(a + b, b + a, 0.0));
        assert!(close(a * b, b * a, 0.0));
        assert!(close(a * (b + c), a * b + a * c, 1e-14));
        assert!(close(a * a.recip(), Complex64::ONE, 1e-15));
        assert!(close(a / b * b, a, 1e-14));
    }

    #[test]
    fn conjugate_and_modulus() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.conj(), Complex64::new(3.0, -4.0));
        assert!(close(a * a.conj(), Complex64::from_real(25.0), 0.0));
    }

    #[test]
    fn sqrt_branches() {
        let a = Complex64::new(-4.0, 0.0);
        let r = a.sqrt();
        assert!(close(r, Complex64::new(0.0, 2.0), 1e-15));
        let b = Complex64::new(0.0, 2.0);
        let rb = b.sqrt();
        assert!(close(rb * rb, b, 1e-14));
        let c = Complex64::new(-3.0, -4.0);
        let rc = c.sqrt();
        assert!(close(rc * rc, c, 1e-13));
        assert!(rc.re >= 0.0, "principal branch has non-negative real part");
        assert_eq!(Complex64::ZERO.sqrt(), Complex64::ZERO);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-15);
        assert!((z.arg() - 0.7).abs() < 1e-15);
    }

    #[test]
    fn recip_is_robust_to_scale() {
        let tiny = Complex64::new(1e-300, 1e-300);
        let r = tiny.recip();
        assert!(r.is_finite());
        assert!(close(tiny * r, Complex64::ONE, 1e-12));
        let huge = Complex64::new(1e300, -1e299);
        let rh = huge.recip();
        assert!(rh.is_finite());
        assert!(close(huge * rh, Complex64::ONE, 1e-12));
    }

    #[test]
    fn exp_euler_identity() {
        let z = Complex64::new(0.0, std::f64::consts::PI);
        assert!(close(z.exp(), Complex64::from_real(-1.0), 1e-15));
    }

    #[test]
    fn real_scalar_mixing() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a * 2.0, Complex64::new(2.0, 4.0));
        assert_eq!(2.0 * a, Complex64::new(2.0, 4.0));
        assert_eq!(a / 2.0, Complex64::new(0.5, 1.0));
        assert_eq!(a + 1.0, Complex64::new(2.0, 2.0));
        assert_eq!(a - 1.0, Complex64::new(0.0, 2.0));
    }

    #[test]
    fn sum_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }
}
