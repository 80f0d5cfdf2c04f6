//! Low-density parity-check (LDPC) codes.
//!
//! The third block-code family the paper's introduction names
//! (Hamming, Reed-Solomon, LDPC). This crate implements the classic
//! Gallager construction — a sparse `m × n` parity-check matrix with
//! constant column weight `wc` and row weight `wr`, built from
//! deterministic pseudo-random permutations — plus encoding through
//! the code's null-space basis and iterative *bit-flipping* decoding
//! (Gallager's hard-decision algorithm).
//!
//! LDPC codes trade the algebraic guarantees of Hamming/RS for
//! excellent performance at long block lengths with cheap iterative
//! decoding; the synthesis techniques of the reproduced paper target
//! short algebraic codes, so this substrate serves as the contrast
//! point (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use fec_ldpc::LdpcCode;
//! use fec_gf2::BitVec;
//!
//! let code = LdpcCode::gallager(96, 3, 6, 7).unwrap();
//! let data = BitVec::from_u128(0xDEAD_BEEF, code.data_len().min(32));
//! let mut padded = BitVec::zeros(code.data_len());
//! for i in 0..data.len() { padded.set(i, data.get(i)); }
//! let word = code.encode(&padded);
//! assert!(code.is_valid(&word));
//! let mut noisy = word.clone();
//! noisy.flip(5);
//! let fixed = code.decode_bit_flipping(&noisy, 50).unwrap();
//! assert_eq!(fixed, word);
//! ```

#![forbid(unsafe_code)]

use fec_gf2::{BitMatrix, BitVec};

/// An LDPC code defined by its sparse parity-check matrix `H`.
pub struct LdpcCode {
    /// `m × n` parity-check matrix.
    h: BitMatrix,
    /// Null-space basis of `H` (the generator rows), `k × n`.
    gen_rows: Vec<BitVec>,
    /// Check-node adjacency: for each check, its bit positions.
    check_bits: Vec<Vec<u32>>,
    /// Bit-node adjacency: for each bit, its check indices.
    bit_checks: Vec<Vec<u32>>,
}

impl LdpcCode {
    /// Builds a Gallager-ensemble regular LDPC code of length `n` with
    /// column weight `wc` and row weight `wr` (`wc` must divide the
    /// resulting check count structure: `n·wc` must be divisible by
    /// `wr`). The pseudo-random permutations are seeded, so the
    /// construction is deterministic.
    ///
    /// Returns `None` on inconsistent parameters or if the resulting
    /// matrix has zero code dimension.
    pub fn gallager(n: usize, wc: usize, wr: usize, seed: u64) -> Option<LdpcCode> {
        if n == 0 || wc == 0 || wr == 0 || !(n * wc).is_multiple_of(wr) || wr > n {
            return None;
        }
        let m = n * wc / wr;
        let rows_per_band = m / wc;
        if rows_per_band * wr != n {
            return None;
        }
        // band 0: systematic striping; bands 1..wc: permuted copies
        let mut h = BitMatrix::zeros(m, n);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for band in 0..wc {
            // a permutation of 0..n
            let mut perm: Vec<usize> = (0..n).collect();
            if band > 0 {
                for i in (1..n).rev() {
                    let j = (next() as usize) % (i + 1);
                    perm.swap(i, j);
                }
            }
            for (idx, &col) in perm.iter().enumerate() {
                let row = band * rows_per_band + idx / wr;
                h.set(row, col, true);
            }
        }
        Self::from_parity_check(h)
    }

    /// Wraps an explicit parity-check matrix. Returns `None` if the
    /// code dimension (null-space rank) is zero.
    pub fn from_parity_check(h: BitMatrix) -> Option<LdpcCode> {
        let gen_rows = h.null_space();
        if gen_rows.is_empty() {
            return None;
        }
        let check_bits: Vec<Vec<u32>> = (0..h.rows())
            .map(|r| h.row(r).iter_ones().map(|c| c as u32).collect())
            .collect();
        let mut bit_checks = vec![Vec::new(); h.cols()];
        for (r, bits) in check_bits.iter().enumerate() {
            for &b in bits {
                bit_checks[b as usize].push(r as u32);
            }
        }
        Some(LdpcCode {
            h,
            gen_rows,
            check_bits,
            bit_checks,
        })
    }

    /// Code length `n`.
    pub fn codeword_len(&self) -> usize {
        self.h.cols()
    }

    /// Code dimension `k` (null-space rank; ≥ `n − m`, with equality
    /// when `H` has full row rank).
    pub fn data_len(&self) -> usize {
        self.gen_rows.len()
    }

    /// Number of parity checks `m` (rows of `H`, possibly redundant).
    pub fn check_count(&self) -> usize {
        self.h.rows()
    }

    /// The parity-check matrix.
    pub fn parity_check(&self) -> &BitMatrix {
        &self.h
    }

    /// Encodes `k` data bits as a linear combination of the null-space
    /// basis (non-systematic; LDPC data recovery is by re-solving, or
    /// in practice by using an upper-triangular construction — out of
    /// scope for this substrate).
    ///
    /// # Panics
    /// Panics if `data.len() != data_len()`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.data_len(), "encode: wrong data length");
        let mut w = BitVec::zeros(self.codeword_len());
        for i in data.iter_ones() {
            w ^= &self.gen_rows[i];
        }
        w
    }

    /// `true` when all parity checks are satisfied.
    pub fn is_valid(&self, word: &BitVec) -> bool {
        self.h.mul_vec(word).is_zero()
    }

    /// Gallager bit-flipping decoding: repeatedly flip the bits
    /// involved in the most unsatisfied checks until the word is valid
    /// or `max_iters` passes expire. Returns the corrected codeword or
    /// `None` if decoding stalls.
    pub fn decode_bit_flipping(&self, word: &BitVec, max_iters: usize) -> Option<BitVec> {
        let mut w = word.clone();
        for _ in 0..max_iters {
            let syndrome = self.h.mul_vec(&w);
            if syndrome.is_zero() {
                return Some(w);
            }
            // count unsatisfied checks per bit
            let mut votes = vec![0u32; self.codeword_len()];
            for c in syndrome.iter_ones() {
                for &b in &self.check_bits[c] {
                    votes[b as usize] += 1;
                }
            }
            let max_votes = *votes.iter().max().expect("non-empty");
            if max_votes == 0 {
                return None;
            }
            // flip every bit meeting a majority-ish threshold: more
            // than half of its checks unsatisfied, or the max
            let mut flipped_any = false;
            for (b, &v) in votes.iter().enumerate() {
                let degree = self.bit_checks[b].len() as u32;
                if v == max_votes && 2 * v > degree {
                    w.flip(b);
                    flipped_any = true;
                }
            }
            if !flipped_any {
                // fall back: flip the single worst bit to escape ties
                let b = votes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, v)| *v)
                    .map(|(b, _)| b)
                    .expect("non-empty");
                w.flip(b);
            }
        }
        self.is_valid(&w).then_some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code96() -> LdpcCode {
        LdpcCode::gallager(96, 3, 6, 7).expect("valid parameters")
    }

    #[test]
    fn gallager_structure() {
        let c = code96();
        assert_eq!(c.codeword_len(), 96);
        assert_eq!(c.check_count(), 48);
        // column weight exactly wc, row weight exactly wr
        for col in 0..96 {
            assert_eq!(c.parity_check().col(col).count_ones(), 3, "col {col}");
        }
        for row in 0..48 {
            assert_eq!(c.parity_check().row(row).count_ones(), 6, "row {row}");
        }
        // dimension ≥ n - m
        assert!(c.data_len() >= 48);
    }

    #[test]
    fn rejects_inconsistent_parameters() {
        assert!(LdpcCode::gallager(0, 3, 6, 1).is_none());
        assert!(LdpcCode::gallager(10, 3, 7, 1).is_none()); // 30 % 7 != 0
        assert!(LdpcCode::gallager(6, 2, 12, 1).is_none()); // wr > n
    }

    #[test]
    fn construction_is_deterministic() {
        let a = LdpcCode::gallager(48, 3, 6, 42).unwrap();
        let b = LdpcCode::gallager(48, 3, 6, 42).unwrap();
        assert_eq!(a.parity_check(), b.parity_check());
        let c = LdpcCode::gallager(48, 3, 6, 43).unwrap();
        assert_ne!(a.parity_check(), c.parity_check());
    }

    #[test]
    fn encoded_words_satisfy_all_checks() {
        let c = code96();
        let mut x = 0xABCD_EF01_2345_6789u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut data = BitVec::zeros(c.data_len());
            for i in 0..c.data_len() {
                if (x >> (i % 64)) & 1 == 1 {
                    data.set(i, true);
                }
            }
            let w = c.encode(&data);
            assert!(c.is_valid(&w));
        }
    }

    #[test]
    fn encoding_is_linear_and_injective_on_basis() {
        let c = code96();
        // distinct unit data words give distinct codewords
        let mut seen = std::collections::HashSet::new();
        for i in 0..c.data_len() {
            let mut d = BitVec::zeros(c.data_len());
            d.set(i, true);
            let w = c.encode(&d);
            assert!(!w.is_zero());
            assert!(seen.insert(format!("{w}")), "basis collision at {i}");
        }
    }

    #[test]
    fn bit_flipping_corrects_single_errors() {
        let c = code96();
        let data = BitVec::from_u128(0x1234_5678_9ABC, c.data_len().min(48));
        let mut padded = BitVec::zeros(c.data_len());
        for i in 0..padded.len().min(48) {
            padded.set(i, data.get(i));
        }
        let clean = c.encode(&padded);
        let mut corrected = 0;
        for pos in 0..c.codeword_len() {
            let mut bad = clean.clone();
            bad.flip(pos);
            if c.decode_bit_flipping(&bad, 50) == Some(clean.clone()) {
                corrected += 1;
            }
        }
        // bit flipping corrects the overwhelming majority of single
        // errors on a (3,6) code (not all: short cycles can stall it)
        assert!(
            corrected >= c.codeword_len() * 9 / 10,
            "only {corrected}/{} single errors corrected",
            c.codeword_len()
        );
    }

    #[test]
    fn bit_flipping_corrects_most_double_errors() {
        let c = code96();
        let clean = c.encode(&BitVec::zeros(c.data_len()));
        assert!(clean.is_zero()); // zero word is a codeword
        let mut ok = 0;
        let mut total = 0;
        for i in (0..96).step_by(7) {
            for j in ((i + 11)..96).step_by(13) {
                total += 1;
                let mut bad = BitVec::zeros(96);
                bad.flip(i);
                bad.flip(j);
                if c.decode_bit_flipping(&bad, 60) == Some(BitVec::zeros(96)) {
                    ok += 1;
                }
            }
        }
        assert!(ok * 3 >= total * 2, "corrected {ok}/{total} double errors");
    }

    #[test]
    fn valid_word_decodes_to_itself_immediately() {
        let c = code96();
        let mut d = BitVec::zeros(c.data_len());
        d.set(0, true);
        d.set(5, true);
        let w = c.encode(&d);
        assert_eq!(c.decode_bit_flipping(&w, 1), Some(w));
    }

    #[test]
    fn hopeless_corruption_reports_failure_or_other_codeword() {
        let c = code96();
        let clean = c.encode(&BitVec::zeros(c.data_len()));
        let mut bad = clean.clone();
        for i in (0..96).step_by(2) {
            bad.flip(i); // 48 flips: far beyond any guarantee
        }
        match c.decode_bit_flipping(&bad, 30) {
            None => {}
            Some(w) => assert!(c.is_valid(&w), "must return a codeword if any"),
        }
    }

    #[test]
    fn explicit_parity_check_constructor() {
        // a tiny code: the (7,4) Hamming H works as "LDPC"
        let h = BitMatrix::from_str_rows(
            "1110100
             0111010
             1011001",
        )
        .unwrap();
        let c = LdpcCode::from_parity_check(h).unwrap();
        assert_eq!(c.data_len(), 4);
        let w = c.encode(&BitVec::from_bitstring("1010").unwrap());
        assert!(c.is_valid(&w));
    }
}
