//! Systematic Reed-Solomon encode and hard-decision decode.

use crate::field::GfTables;
use std::fmt;

/// Decode failure: more errors than the code can correct.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uncorrectable codeword (more than t symbol errors)")
    }
}

impl std::error::Error for DecodeError {}

/// A systematic RS(n, k) code over a [`GfTables`] field: codewords are
/// `k` data symbols followed by `n - k` parity symbols (remainder of
/// the data polynomial modulo the generator polynomial
/// `g(x) = Π (x − α^i)` for `i in 0..n-k`).
pub struct ReedSolomon {
    field: GfTables,
    n: usize,
    k: usize,
    /// Generator polynomial, low-order coefficients first, monic.
    gen: Vec<u16>,
}

impl ReedSolomon {
    /// Creates an RS(n, k) code over (a clone of) `field`. Returns
    /// `None` unless `k < n ≤ 2^m − 1`.
    pub fn new(field: &GfTables, n: usize, k: usize) -> Option<ReedSolomon> {
        if k == 0 || k >= n || n > field.order() {
            return None;
        }
        // g(x) = Π_{i=0}^{n-k-1} (x − α^i); −1 = 1 in GF(2^m)
        let mut gen = vec![1u16];
        for i in 0..(n - k) {
            gen = field.poly_mul(&gen, &[field.alpha_pow(i), 1]);
        }
        debug_assert_eq!(gen.len(), n - k + 1);
        Some(ReedSolomon {
            field: field.clone(),
            n,
            k,
            gen,
        })
    }

    /// The underlying field.
    pub fn field(&self) -> &GfTables {
        &self.field
    }

    /// Codeword length `n` (symbols).
    pub fn codeword_len(&self) -> usize {
        self.n
    }

    /// Data length `k` (symbols).
    pub fn data_len(&self) -> usize {
        self.k
    }

    /// Correctable symbol errors `t = ⌊(n−k)/2⌋`.
    pub fn correctable(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Encodes `k` data symbols into an `n`-symbol codeword
    /// (data first, then parity).
    ///
    /// # Panics
    /// Panics if `data.len() != k` or any symbol overflows the field.
    pub fn encode(&self, data: &[u16]) -> Vec<u16> {
        assert_eq!(data.len(), self.k, "encode: wrong data length");
        let mask = self.field.order() as u16; // 2^m - 1
        assert!(
            data.iter().all(|&s| s <= mask),
            "encode: symbol exceeds field"
        );
        // systematic: parity = (data(x) · x^(n-k)) mod g(x)
        // long division, processing data high-order first
        let p = self.n - self.k;
        let mut rem = vec![0u16; p];
        for &d in data.iter().rev() {
            let feedback = self.field.add(d, rem[p - 1]);
            // shift up and subtract feedback · g
            for j in (1..p).rev() {
                rem[j] = self
                    .field
                    .add(rem[j - 1], self.field.mul(feedback, self.gen[j]));
            }
            rem[0] = self.field.mul(feedback, self.gen[0]);
        }
        // codeword coefficients: parity in positions 0..p, data above —
        // we present it data-first for the systematic API, so the
        // polynomial view is word[i] at x^(p + i) for data and x^i for
        // parity; store as [data…, parity…] with parity low-order first
        let mut word = data.to_vec();
        word.extend_from_slice(&rem);
        word
    }

    /// Polynomial coefficient view of a stored word: `c[x^j]`.
    #[inline]
    fn coeff(&self, word: &[u16], j: usize) -> u16 {
        let p = self.n - self.k;
        if j < p {
            word[self.k + j] // parity symbols are the low-order coeffs
        } else {
            word[j - p]
        }
    }

    fn coeff_mut<'a>(&self, word: &'a mut [u16], j: usize) -> &'a mut u16 {
        let p = self.n - self.k;
        if j < p {
            &mut word[self.k + j]
        } else {
            &mut word[j - p]
        }
    }

    /// The `n − k` syndromes `S_i = c(α^i)`; all zero ⇔ valid codeword.
    pub fn syndromes(&self, word: &[u16]) -> Vec<u16> {
        assert_eq!(word.len(), self.n, "syndromes: wrong codeword length");
        (0..(self.n - self.k))
            .map(|i| {
                let x = self.field.alpha_pow(i);
                // Horner over the polynomial view
                let mut acc = 0u16;
                for j in (0..self.n).rev() {
                    acc = self.field.add(self.field.mul(acc, x), self.coeff(word, j));
                }
                acc
            })
            .collect()
    }

    /// `true` when `word` is a valid codeword.
    pub fn is_valid(&self, word: &[u16]) -> bool {
        self.syndromes(word).iter().all(|&s| s == 0)
    }

    /// Decodes in place: locates and corrects up to `t` symbol errors.
    /// Returns the number of corrected symbols.
    ///
    /// Pipeline: syndromes → Berlekamp–Massey (error-locator Λ) →
    /// Chien search (roots ⇒ positions) → Forney (magnitudes).
    pub fn decode(&self, word: &mut [u16]) -> Result<usize, DecodeError> {
        let synd = self.syndromes(word);
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        let f = &self.field;
        let lambda = self.berlekamp_massey(&synd);
        let nu = lambda.len() - 1; // claimed number of errors
        if nu == 0 || nu > self.correctable() {
            return Err(DecodeError);
        }
        // Chien search: find j with Λ(α^{-j}) = 0
        let mut positions = Vec::with_capacity(nu);
        for j in 0..self.n {
            let x_inv = f.alpha_pow(f.order() - (j % f.order()));
            if f.poly_eval(&lambda, x_inv) == 0 {
                positions.push(j);
            }
        }
        if positions.len() != nu {
            return Err(DecodeError); // Λ doesn't factor: too many errors
        }
        // Forney: error evaluator Ω = (S · Λ) mod x^(n-k)
        let mut omega = f.poly_mul(&synd, &lambda);
        omega.truncate(self.n - self.k);
        // Λ'(x): formal derivative (char 2 ⇒ even-power terms vanish)
        let lambda_deriv: Vec<u16> = lambda
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| if i % 2 == 1 { c } else { 0 }) // coefficient of x^{i-1}
            .collect();
        for &j in &positions {
            let x_inv = f.alpha_pow(f.order() - (j % f.order()));
            let num = f.poly_eval(&omega, x_inv);
            let den = f.poly_eval(&lambda_deriv, x_inv);
            if den == 0 {
                return Err(DecodeError);
            }
            // e_j = x_j · Ω(x_j^{-1}) / Λ'(x_j^{-1}) for b = 0
            let magnitude = f.mul(f.alpha_pow(j), f.div(num, den));
            let c = self.coeff_mut(word, j);
            *c = f.add(*c, magnitude);
        }
        // verify: a mis-locate must not slip through
        if !self.is_valid(word) {
            return Err(DecodeError);
        }
        Ok(positions.len())
    }

    /// Berlekamp–Massey: the minimal LFSR (error locator Λ, low-order
    /// first, Λ(0)=1) generating the syndrome sequence.
    fn berlekamp_massey(&self, synd: &[u16]) -> Vec<u16> {
        let f = &self.field;
        let mut lambda = vec![1u16];
        let mut prev = vec![1u16];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u16;
        for n in 0..synd.len() {
            // discrepancy
            let mut delta = synd[n];
            for i in 1..=l {
                if i < lambda.len() {
                    delta = f.add(delta, f.mul(lambda[i], synd[n - i]));
                }
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t = lambda.clone();
                let coef = f.div(delta, b);
                // λ = λ − coef · x^m · prev
                let shift = m;
                if lambda.len() < prev.len() + shift {
                    lambda.resize(prev.len() + shift, 0);
                }
                for (i, &p) in prev.iter().enumerate() {
                    lambda[i + shift] = f.add(lambda[i + shift], f.mul(coef, p));
                }
                l = n + 1 - l;
                prev = t;
                b = delta;
                m = 1;
            } else {
                let coef = f.div(delta, b);
                let shift = m;
                if lambda.len() < prev.len() + shift {
                    lambda.resize(prev.len() + shift, 0);
                }
                for (i, &p) in prev.iter().enumerate() {
                    lambda[i + shift] = f.add(lambda[i + shift], f.mul(coef, p));
                }
                m += 1;
            }
        }
        lambda.truncate(l + 1);
        lambda
    }
}

impl fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReedSolomon(n={}, k={}, t={}, GF(2^{}))",
            self.n,
            self.k,
            self.correctable(),
            self.field.bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rs15_11(f: &GfTables) -> ReedSolomon {
        ReedSolomon::new(f, 15, 11).unwrap()
    }

    #[test]
    fn construction_bounds() {
        let f = GfTables::new(4).unwrap();
        assert!(ReedSolomon::new(&f, 16, 11).is_none()); // n > 2^4 - 1
        assert!(ReedSolomon::new(&f, 10, 10).is_none()); // k = n
        assert!(ReedSolomon::new(&f, 10, 0).is_none());
        assert!(ReedSolomon::new(&f, 15, 11).is_some());
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let f = GfTables::new(4).unwrap();
        let rs = rs15_11(&f);
        let data: Vec<u16> = (1..=11).collect();
        let word = rs.encode(&data);
        assert_eq!(&word[..11], &data[..]);
        assert!(rs.is_valid(&word));
        assert_eq!(rs.syndromes(&word), vec![0; 4]);
    }

    #[test]
    fn zero_data_encodes_to_zero() {
        let f = GfTables::new(4).unwrap();
        let rs = rs15_11(&f);
        assert_eq!(rs.encode(&[0; 11]), vec![0; 15]);
    }

    #[test]
    fn corrects_single_errors_everywhere() {
        let f = GfTables::new(4).unwrap();
        let rs = rs15_11(&f);
        let data: Vec<u16> = (1..=11).map(|x| x ^ 0x5).collect();
        let clean = rs.encode(&data);
        for pos in 0..15 {
            for magnitude in [1u16, 0xF, 0x8] {
                let mut word = clean.clone();
                word[pos] ^= magnitude;
                let n = rs.decode(&mut word).unwrap();
                assert_eq!(n, 1, "pos {pos} magnitude {magnitude}");
                assert_eq!(word, clean);
            }
        }
    }

    #[test]
    fn corrects_double_errors() {
        let f = GfTables::new(4).unwrap();
        let rs = rs15_11(&f);
        let data: Vec<u16> = vec![7; 11];
        let clean = rs.encode(&data);
        for i in 0..15 {
            for j in (i + 1)..15 {
                let mut word = clean.clone();
                word[i] ^= 0x3;
                word[j] ^= 0xC;
                assert_eq!(rs.decode(&mut word).unwrap(), 2, "positions {i},{j}");
                assert_eq!(word, clean);
            }
        }
    }

    #[test]
    fn rejects_triple_errors_or_flags_them() {
        let f = GfTables::new(4).unwrap();
        let rs = rs15_11(&f); // t = 2
        let data: Vec<u16> = (0..11).map(|x| (x * 3 + 1) as u16 & 0xF).collect();
        let clean = rs.encode(&data);
        let mut miscorrected_to_clean = 0;
        for (a, b, c) in [(0, 5, 10), (1, 2, 3), (4, 9, 14), (0, 7, 13)] {
            let mut word = clean.clone();
            word[a] ^= 1;
            word[b] ^= 2;
            word[c] ^= 3;
            match rs.decode(&mut word) {
                Err(_) => {}
                Ok(_) => {
                    // decoding "succeeded" onto some OTHER codeword —
                    // allowed for > t errors — but never back to clean
                    if word == clean {
                        miscorrected_to_clean += 1;
                    }
                }
            }
        }
        assert_eq!(miscorrected_to_clean, 0);
    }

    #[test]
    fn gf256_shortened_code() {
        // RS(60, 50) over GF(2^8): a shortened code, t = 5
        let f = GfTables::new(8).unwrap();
        let rs = ReedSolomon::new(&f, 60, 50).unwrap();
        let data: Vec<u16> = (0..50).map(|i| (i * 5 + 1) as u16 & 0xFF).collect();
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        for e in 0..5 {
            word[e * 11 + 1] ^= 0xA5 ^ e as u16;
        }
        assert_eq!(rs.decode(&mut word).unwrap(), 5);
        assert_eq!(word, clean);
    }

    #[test]
    fn burst_of_m_bits_is_one_symbol() {
        // the concatenation rationale: an m-bit burst inside one symbol
        // costs a single correction
        let f = GfTables::new(8).unwrap();
        let rs = ReedSolomon::new(&f, 40, 36).unwrap(); // t = 2
        let data: Vec<u16> = vec![0x42; 36];
        let clean = rs.encode(&data);
        let mut word = clean.clone();
        word[7] ^= 0xFF; // all 8 bits of one symbol
        assert_eq!(rs.decode(&mut word).unwrap(), 1);
        assert_eq!(word, clean);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_round_trip_with_up_to_t_errors(
            seed in any::<u64>(),
            errors in 0usize..=2,
        ) {
            let f = GfTables::new(4).unwrap();
            let rs = ReedSolomon::new(&f, 15, 11).unwrap();
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let data: Vec<u16> = (0..11).map(|_| (next() & 0xF) as u16).collect();
            let clean = rs.encode(&data);
            let mut word = clean.clone();
            let mut touched = std::collections::HashSet::new();
            for _ in 0..errors {
                let pos = (next() as usize) % 15;
                if !touched.insert(pos) {
                    continue;
                }
                let mag = ((next() & 0xF) as u16).max(1);
                word[pos] ^= mag;
            }
            let fixed = rs.decode(&mut word).unwrap();
            prop_assert_eq!(word, clean);
            prop_assert!(fixed <= errors);
        }

        #[test]
        fn prop_encoding_is_linear(a in proptest::collection::vec(0u16..16, 11),
                                   b in proptest::collection::vec(0u16..16, 11)) {
            let f = GfTables::new(4).unwrap();
            let rs = ReedSolomon::new(&f, 15, 11).unwrap();
            let ab: Vec<u16> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
            let wa = rs.encode(&a);
            let wb = rs.encode(&b);
            let wab = rs.encode(&ab);
            let sum: Vec<u16> = wa.iter().zip(&wb).map(|(&x, &y)| x ^ y).collect();
            prop_assert_eq!(wab, sum);
        }
    }
}
