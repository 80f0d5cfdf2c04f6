//! CRC codes as systematic generators — the related-work baseline.
//!
//! The paper contrasts its synthesis approach with "exhaustive
//! exploration of CRC polynomials" (Koopman & Chakravarty, ref \[16\]),
//! which tabulates the best CRC polynomial per (width, data length)
//! but "does not provide formal guarantees". A CRC with generator
//! polynomial `g(x)` of degree `c` over `k` data bits *is* a linear
//! systematic code: check bits are `x^c · d(x) mod g(x)`, so every row
//! of the coefficient matrix is the remainder of one data monomial.
//! Expressing CRCs as [`Generator`]s lets all the workspace machinery
//! — exact minimum distance, SAT verification, channel trials — apply
//! to them unchanged, which is exactly how the `crc_baseline` bench
//! compares Koopman-style polynomial search against CEGIS synthesis.

use crate::Generator;
use fec_gf2::{BitMatrix, Gf2Poly};

/// Builds the systematic generator of the CRC with polynomial `poly`
/// (coefficient mask including the leading term, e.g. `0b1011` for
/// CRC-3 `x³+x+1`) over `k` data bits.
///
/// Returns `None` if the polynomial has degree 0 or `k == 0`.
pub fn crc_generator(k: usize, poly: u128) -> Option<Generator> {
    let g = Gf2Poly::from_bits(poly);
    let c = g.degree()? as usize;
    if c == 0 || k == 0 || c + k > 128 {
        return None;
    }
    let mut p = BitMatrix::zeros(k, c);
    // data bit `row` occupies x^(c + row); its check contribution is
    // x^(c+row) mod g, the previous row's remainder times x, reduced by
    // g once it reaches degree c (c ≤ 127, so the shift cannot overflow)
    let mut rem = 1u128 << (c - 1);
    for row in 0..k {
        rem <<= 1;
        if rem >> c & 1 == 1 {
            rem ^= poly;
        }
        let mut ones = rem;
        while ones != 0 {
            p.set(row, ones.trailing_zeros() as usize, true);
            ones &= ones - 1;
        }
    }
    Some(Generator::from_coefficients(p))
}

/// Koopman-style exhaustive search: among all degree-`c` polynomials
/// (with the constant term set, as any useful CRC has), the one whose
/// CRC code over `k` data bits maximizes the minimum distance.
///
/// Returns `(polynomial, minimum distance)`. Exhaustive in both the
/// polynomial space (`2^(c-1)` candidates) and the distance
/// computation, so use small `c` and `k ≤ 20`.
pub fn best_crc_polynomial(k: usize, c: usize) -> (u128, usize) {
    assert!((1..=16).contains(&c), "search supports c in 1..=16");
    assert!(k <= 20, "exhaustive distance needs k ≤ 20");
    let mut best = (0u128, 0usize);
    // fixed top bit (degree c) and bottom bit (constant term)
    let top = 1u128 << c;
    for mid in 0..(1u128 << (c.saturating_sub(1))) {
        let poly = top | (mid << 1) | 1;
        let Some(g) = crc_generator(k, poly) else {
            continue;
        };
        let md = crate::distance::min_distance_exhaustive(&g);
        if md > best.1 {
            best = (poly, md);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::min_distance_exhaustive;
    use fec_gf2::BitVec;

    /// Bit-serial reference CRC (MSB-first polynomial division) to
    /// cross-check the matrix construction.
    fn reference_crc(data: &BitVec, poly: u128, c: usize) -> u128 {
        let mut reg = 0u128;
        // feed data bits high-order monomial first; XORing the input at
        // the register top implicitly multiplies by x^c, so no flush
        for i in (0..data.len()).rev() {
            let top = (reg >> (c - 1)) & 1 == 1;
            reg = (reg << 1) & ((1 << c) - 1);
            let inbit = data.get(i);
            if top ^ inbit {
                reg ^= poly & ((1 << c) - 1);
            }
        }
        reg
    }

    #[test]
    fn crc_matrix_matches_bit_serial_reference() {
        let poly = 0b1011u128; // CRC-3: x^3 + x + 1
        let g = crc_generator(8, poly).unwrap();
        for d in 0u128..256 {
            let data = BitVec::from_u128(d, 8);
            let word = g.encode(&data);
            let checks = word.slice(8..11).to_u128();
            assert_eq!(checks, reference_crc(&data, poly, 3), "data {d:08b}");
        }
    }

    #[test]
    fn crc3_1011_over_4_bits_is_the_hamming_74_distance() {
        // x^3+x+1 is primitive: its CRC over 4 data bits has md 3,
        // matching the Hamming (7,4) bound
        let g = crc_generator(4, 0b1011).unwrap();
        assert_eq!((g.data_len(), g.check_len()), (4, 3));
        assert_eq!(min_distance_exhaustive(&g), 3);
    }

    #[test]
    fn crc_with_x_plus_1_factor_detects_odd_errors() {
        // (x+1) | g ⟹ all codewords have even weight ⟹ md is even
        let g = crc_generator(8, 0b1111).unwrap(); // (x+1)(x^2+x+1)
        let md = min_distance_exhaustive(&g);
        assert_eq!(md % 2, 0, "md {md} should be even");
    }

    #[test]
    fn degenerate_polynomials_rejected() {
        assert!(crc_generator(4, 0).is_none());
        assert!(crc_generator(4, 1).is_none()); // degree 0
        assert!(crc_generator(0, 0b1011).is_none());
    }

    #[test]
    fn best_crc3_over_4_bits_achieves_distance_3() {
        let (poly, md) = best_crc_polynomial(4, 3);
        assert_eq!(md, 3);
        // both primitive degree-3 polynomials work: x^3+x+1, x^3+x^2+1
        assert!(poly == 0b1011 || poly == 0b1101, "poly {poly:#b}");
    }

    #[test]
    fn best_crc_never_beats_synthesized_optimum() {
        // CRCs are a subclass of linear codes, so the best CRC distance
        // is ≤ the best linear-code distance at the same (k, c);
        // [7,4] linear optimum is 3 and CRC-3 reaches it, while at
        // (k=4, c=5) the linear optimum is 4
        let (_, md_crc) = best_crc_polynomial(4, 5);
        assert!(md_crc <= 4);
        assert!(md_crc >= 3, "a good CRC-5 detects 2 errors, got {md_crc}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Shift-and-reduce rows equal long division: row `r` is
        /// `x^(c+r) mod g`, for polynomials of degree 1 to 64 with a
        /// constant term and every admissible data length.
        #[test]
        fn prop_rows_are_long_division_remainders(
            c in 1usize..=64,
            mid in proptest::prelude::any::<u64>(),
            k_pick in proptest::prelude::any::<u64>(),
        ) {
            let poly = (1u128 << c) | (u128::from(mid) << 1) & ((1u128 << c) - 1) | 1;
            let k = 1 + (k_pick % (128 - c) as u64) as usize;
            let g = crc_generator(k, poly).unwrap();
            let divisor = Gf2Poly::from_bits(poly);
            for row in 0..k {
                let rem = (Gf2Poly::monomial((c + row) as u32) % divisor).bits();
                for col in 0..c {
                    proptest::prop_assert_eq!(
                        g.coefficients().get(row, col),
                        rem >> col & 1 == 1,
                        "poly {:#x} k {} row {} col {}", poly, k, row, col
                    );
                }
            }
        }
    }

    #[test]
    fn crc_generators_work_with_the_standard_check_path() {
        let g = crc_generator(11, 0b10011).unwrap(); // CRC-4: x^4+x+1
        let data = BitVec::from_u128(0b101_1100_1010, 11);
        let w = g.encode(&data);
        assert!(g.is_valid(&w));
        let mut bad = w.clone();
        bad.flip(6);
        assert!(!g.is_valid(&bad));
    }
}
