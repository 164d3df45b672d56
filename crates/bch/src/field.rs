//! Arithmetic in the finite field GF(2^m).
//!
//! BCH codes are defined over an extension field GF(2^m) generated by a
//! primitive polynomial. This module implements the standard log/antilog
//! table representation: every nonzero element is a power of the primitive
//! element `α`, so multiplication, inversion and exponentiation reduce to
//! modular arithmetic on exponents.
//!
//! Field elements are represented as `u32` values in `[0, 2^m)`; `0` is the
//! additive identity and `1` is `α^0`. Addition is bitwise XOR.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Primitive polynomials for GF(2^m), m = 2..=12, encoded with bit `i`
/// holding the coefficient of `x^i`.
///
/// These are the conventional minimal-weight primitive polynomials used
/// throughout the coding-theory literature.
const PRIMITIVE_POLYNOMIALS: [(u32, u32); 11] = [
    (2, 0b111),               // x^2 + x + 1
    (3, 0b1011),              // x^3 + x + 1
    (4, 0b1_0011),            // x^4 + x + 1
    (5, 0b10_0101),           // x^5 + x^2 + 1
    (6, 0b100_0011),          // x^6 + x + 1
    (7, 0b1000_1001),         // x^7 + x^3 + 1
    (8, 0b1_0001_1101),       // x^8 + x^4 + x^3 + x^2 + 1
    (9, 0b10_0001_0001),      // x^9 + x^4 + 1
    (10, 0b100_0000_1001),    // x^10 + x^3 + 1
    (11, 0b1000_0000_0101),   // x^11 + x^2 + 1
    (12, 0b1_0000_0101_0011), // x^12 + x^6 + x^4 + x + 1
];

/// Returns the conventional primitive polynomial for GF(2^m).
///
/// # Panics
///
/// Panics if `m` is outside the supported range `2..=12`.
pub fn primitive_polynomial(m: u32) -> u32 {
    PRIMITIVE_POLYNOMIALS
        .iter()
        .find(|&&(deg, _)| deg == m)
        .map(|&(_, poly)| poly)
        .unwrap_or_else(|| panic!("no primitive polynomial tabulated for GF(2^{m})"))
}

/// The finite field GF(2^m), represented with log/antilog tables.
///
/// # Example
///
/// ```
/// use harp_bch::Gf2mField;
///
/// let field = Gf2mField::new(4);
/// let a = field.alpha_pow(3);
/// let b = field.alpha_pow(7);
/// // α^3 · α^7 = α^10
/// assert_eq!(field.mul(a, b), field.alpha_pow(10));
/// // Every nonzero element has a multiplicative inverse.
/// assert_eq!(field.mul(a, field.inv(a)), 1);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Gf2mField {
    m: u32,
    prim_poly: u32,
    /// `exp[i] = α^i` for `i` in `0..2·(2^m − 1)` (doubled so that products of
    /// exponents never need an explicit modulo).
    exp: Vec<u32>,
    /// `log[x]` = the exponent `i` with `α^i = x`, for `x` in `1..2^m`.
    /// Index 0 is unused.
    log: Vec<u32>,
}

impl Gf2mField {
    /// Constructs GF(2^m) using the conventional primitive polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `2..=12`.
    pub fn new(m: u32) -> Self {
        Self::with_polynomial(m, primitive_polynomial(m))
    }

    /// Constructs GF(2^m) from an explicit primitive polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial does not have degree `m` or does not generate
    /// the full multiplicative group (i.e. is not primitive).
    pub fn with_polynomial(m: u32, prim_poly: u32) -> Self {
        assert!((2..=12).contains(&m), "unsupported field degree m = {m}");
        assert_eq!(
            32 - prim_poly.leading_zeros() - 1,
            m,
            "primitive polynomial must have degree m"
        );
        let order = (1u32 << m) - 1;
        let mut exp = vec![0u32; 2 * order as usize];
        let mut log = vec![0u32; 1usize << m];

        let mut value = 1u32;
        for i in 0..order {
            exp[i as usize] = value;
            assert!(
                !(value == 1 && i != 0),
                "polynomial {prim_poly:#b} is not primitive for m = {m}"
            );
            log[value as usize] = i;
            value <<= 1;
            if value & (1 << m) != 0 {
                value ^= prim_poly;
            }
        }
        assert_eq!(
            value, 1,
            "polynomial {prim_poly:#b} is not primitive for m = {m}"
        );
        for i in order..2 * order {
            exp[i as usize] = exp[(i - order) as usize];
        }
        Self {
            m,
            prim_poly,
            exp,
            log,
        }
    }

    /// The field degree `m`.
    pub fn degree(&self) -> u32 {
        self.m
    }

    /// The primitive polynomial defining the field.
    pub fn polynomial(&self) -> u32 {
        self.prim_poly
    }

    /// The multiplicative group order `2^m − 1`.
    pub fn order(&self) -> u32 {
        (1u32 << self.m) - 1
    }

    /// The number of field elements `2^m` (including zero).
    pub fn size(&self) -> u32 {
        1u32 << self.m
    }

    /// `α^i`, for any non-negative exponent (reduced modulo the group order).
    pub fn alpha_pow(&self, i: u32) -> u32 {
        self.exp[(i % self.order()) as usize]
    }

    /// The discrete logarithm of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero (zero has no logarithm).
    pub fn log(&self, x: u32) -> u32 {
        assert!(x != 0, "log of zero is undefined");
        assert!(x < self.size(), "element {x} outside GF(2^{})", self.m);
        self.log[x as usize]
    }

    /// Field addition (bitwise XOR).
    pub fn add(&self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication.
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero.
    pub fn inv(&self, x: u32) -> u32 {
        assert!(x != 0, "zero has no multiplicative inverse");
        self.exp[(self.order() - self.log[x as usize]) as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    pub fn div(&self, a: u32, b: u32) -> u32 {
        self.mul(a, self.inv(b))
    }

    /// Raises an element to an integer power.
    pub fn pow(&self, x: u32, e: u32) -> u32 {
        if x == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let exponent = (self.log[x as usize] as u64 * e as u64) % self.order() as u64;
        self.exp[exponent as usize]
    }
}

impl fmt::Debug for Gf2mField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gf2mField")
            .field("m", &self.m)
            .field("prim_poly", &format_args!("{:#b}", self.prim_poly))
            .finish()
    }
}

impl fmt::Display for Gf2mField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GF(2^{})", self.m)
    }
}

impl PartialEq for Gf2mField {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && self.prim_poly == other.prim_poly
    }
}

impl Eq for Gf2mField {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tabulated_polynomials_are_primitive() {
        for &(m, _) in &PRIMITIVE_POLYNOMIALS {
            // Constructor panics if the polynomial is not primitive.
            let field = Gf2mField::new(m);
            assert_eq!(field.degree(), m);
            assert_eq!(field.order(), (1 << m) - 1);
        }
    }

    #[test]
    fn multiplication_agrees_with_schoolbook_in_gf16() {
        // GF(16) with x^4 + x + 1: schoolbook carry-less multiply + reduce.
        let field = Gf2mField::new(4);
        let reduce = |mut v: u32| {
            for shift in (0..=3).rev() {
                if v & (1 << (4 + shift)) != 0 {
                    v ^= primitive_polynomial(4) << shift;
                }
            }
            v
        };
        for a in 0..16u32 {
            for b in 0..16u32 {
                let mut product = 0u32;
                for bit in 0..4 {
                    if b & (1 << bit) != 0 {
                        product ^= a << bit;
                    }
                }
                assert_eq!(field.mul(a, b), reduce(product), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverse_round_trips_for_all_nonzero_elements() {
        for m in [3, 4, 7, 8] {
            let field = Gf2mField::new(m);
            for x in 1..field.size() {
                assert_eq!(field.mul(x, field.inv(x)), 1, "m={m} x={x}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let field = Gf2mField::new(7);
        let x = field.alpha_pow(19);
        let mut acc = 1;
        for e in 0..300u32 {
            assert_eq!(field.pow(x, e), acc, "e={e}");
            acc = field.mul(acc, x);
        }
    }

    #[test]
    fn pow_of_zero() {
        let field = Gf2mField::new(5);
        assert_eq!(field.pow(0, 0), 1);
        assert_eq!(field.pow(0, 1), 0);
        assert_eq!(field.pow(0, 17), 0);
    }

    #[test]
    fn log_and_alpha_pow_are_inverse() {
        let field = Gf2mField::new(8);
        for i in 0..field.order() {
            assert_eq!(field.log(field.alpha_pow(i)), i);
        }
    }

    #[test]
    fn nonzero_elements_enumerates_the_whole_group() {
        let field = Gf2mField::new(6);
        let elements: std::collections::BTreeSet<u32> =
            (0..field.order()).map(|i| field.alpha_pow(i)).collect();
        assert_eq!(elements.len(), field.order() as usize);
        assert!(!elements.contains(&0));
    }

    #[test]
    fn division_is_multiplication_by_inverse() {
        let field = Gf2mField::new(7);
        for a in [1u32, 5, 77, 100] {
            for b in [1u32, 2, 90, 127] {
                assert_eq!(field.div(a, b), field.mul(a, field.inv(b)));
            }
        }
    }

    #[test]
    fn display_and_debug_name_the_field() {
        let field = Gf2mField::new(7);
        assert_eq!(field.to_string(), "GF(2^7)");
        assert!(format!("{field:?}").contains("prim_poly"));
    }

    #[test]
    #[should_panic(expected = "log of zero")]
    fn log_of_zero_panics() {
        Gf2mField::new(4).log(0);
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        Gf2mField::new(4).inv(0);
    }

    #[test]
    #[should_panic(expected = "not primitive")]
    fn non_primitive_polynomial_is_rejected() {
        // x^4 + x^3 + x^2 + x + 1 divides x^5 + 1, so α has order 5, not 15.
        Gf2mField::with_polynomial(4, 0b1_1111);
    }
}
