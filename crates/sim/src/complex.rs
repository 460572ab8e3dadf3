//! Minimal complex arithmetic (kept in-crate to avoid a dependency).

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use fq_sim::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, -Complex::ONE);
/// assert!((Complex::from_polar(1.0, std::f64::consts::PI).re + 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// `r·e^{iθ}`.
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Complex {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{iθ}` (unit phase).
    #[must_use]
    pub fn cis(theta: f64) -> Complex {
        Complex::from_polar(1.0, theta)
    }

    /// Squared magnitude `|z|²`.
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplication by a real scalar.
    #[must_use]
    pub fn scale(self, s: f64) -> Complex {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiplication by `i` (cheaper than a full complex multiply).
    #[must_use]
    pub fn mul_i(self) -> Complex {
        Complex {
            re: -self.im,
            im: self.re,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
    }

    #[test]
    fn mul_i_matches_full_multiply() {
        let z = Complex::new(1.5, -2.5);
        assert_eq!(z.mul_i(), z * Complex::I);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.im.atan2(z.re) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..8 {
            let theta = k as f64 * 0.9;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < 1e-12);
        }
    }
}
