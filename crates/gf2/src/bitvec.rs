//! Packed bit vectors over GF(2).

use std::fmt;
use std::ops::{BitAndAssign, BitXorAssign};

const WORD_BITS: usize = 64;

/// A fixed-length vector of bits, packed 64 per `u64` word.
///
/// Bit `i` is stored at word `i / 64`, bit position `i % 64`
/// (least-significant-bit first). Trailing bits past `len` in the last
/// word are kept zero as an invariant, so word-level operations
/// (`count_ones`, XOR-folds) never see garbage.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// An all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds a vector from a slice of booleans, index 0 first.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds a `len`-bit vector from the low bits of `value`
    /// (bit `i` of the vector = bit `i` of `value`).
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub fn from_u128(value: u128, len: usize) -> Self {
        assert!(len <= 128, "from_u128 supports at most 128 bits");
        let mut v = Self::zeros(len);
        for i in 0..len {
            v.set(i, (value >> i) & 1 == 1);
        }
        v
    }

    /// Builds a `len`-bit vector from words packed as in
    /// [`BitVec::words`]; missing words read as zero and bits at or
    /// beyond `len` are dropped.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        let mut v = Self::zeros(len);
        let n = v.words.len().min(words.len());
        v.words[..n].copy_from_slice(&words[..n]);
        v.mask_tail();
        v
    }

    /// Interprets the first `min(len, 128)` bits as an integer,
    /// bit `i` of the vector at bit `i` of the result.
    pub fn to_u128(&self) -> u128 {
        let mut out = 0u128;
        for i in 0..self.len.min(128) {
            if self.get(i) {
                out |= 1 << i;
            }
        }
        out
    }

    /// Parses a string of `0`/`1` characters (index 0 first).
    /// Whitespace and `_` are ignored. Returns `None` on any other char.
    pub fn from_bitstring(s: &str) -> Option<Self> {
        let mut bits = Vec::new();
        for ch in s.chars() {
            match ch {
                '0' => bits.push(false),
                '1' => bits.push(true),
                c if c.is_whitespace() || c == '_' => {}
                _ => return None,
            }
        }
        Some(Self::from_bools(&bits))
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `i`, returning its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
        self.get(i)
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// GF(2) sum of all bits: `true` when an odd number are set.
    #[inline]
    pub fn parity(&self) -> bool {
        crate::parity_words(&self.words)
    }

    /// `true` when every bit is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// GF(2) dot product (AND then XOR-fold) with another vector.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot: length mismatch");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        crate::parity64(acc)
    }

    /// Hamming distance to another vector of the same length.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming_distance: length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Indices of the set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let tz = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + tz)
                }
            })
        })
    }

    /// All bits as booleans, index 0 first.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Concatenates `other` after `self`.
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.len + other.len);
        for i in 0..self.len {
            out.set(i, self.get(i));
        }
        for i in 0..other.len {
            out.set(self.len + i, other.get(i));
        }
        out
    }

    /// The sub-vector of bits `range.start .. range.end`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitVec {
        assert!(range.end <= self.len, "slice out of range");
        let mut out = BitVec::zeros(range.len());
        for (j, i) in range.enumerate() {
            out.set(j, self.get(i));
        }
        out
    }

    /// Underlying packed words (tail bits beyond `len` are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    /// GF(2) vector addition.
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        assert_eq!(self.len, rhs.len, "xor: length mismatch");
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a ^= b;
        }
    }
}

impl BitAndAssign<&BitVec> for BitVec {
    /// Component-wise GF(2) multiplication.
    fn bitand_assign(&mut self, rhs: &BitVec) {
        assert_eq!(self.len, rhs.len, "and: length mismatch");
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a &= b;
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({})", self)
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        assert!(z.is_zero());
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(!o.is_zero());
        // Tail invariant: word-level popcount must not see garbage.
        assert_eq!(o.words().iter().map(|w| w.count_ones()).sum::<u32>(), 130);
    }

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(99, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(99));
        assert!(!v.get(1) && !v.get(65));
        assert_eq!(v.count_ones(), 4);
        assert!(!v.flip(0));
        assert!(v.flip(1));
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn u128_round_trip() {
        let v = BitVec::from_u128(0xDEAD_BEEF_u128, 32);
        assert_eq!(v.to_u128(), 0xDEAD_BEEF);
        assert_eq!(v.len(), 32);
        let w = BitVec::from_u128(u128::MAX, 128);
        assert_eq!(w.to_u128(), u128::MAX);
    }

    #[test]
    fn bitstring_parse() {
        let v = BitVec::from_bitstring("0011 1_00").unwrap();
        assert_eq!(v.to_bools(), [false, false, true, true, true, false, false]);
        assert!(BitVec::from_bitstring("01x").is_none());
        assert_eq!(format!("{v}"), "0011100");
    }

    #[test]
    fn dot_product() {
        let a = BitVec::from_bitstring("1101").unwrap();
        let b = BitVec::from_bitstring("1011").unwrap();
        // overlap at indices 0 and 3 -> even -> 0
        assert!(!a.dot(&b));
        let c = BitVec::from_bitstring("1000").unwrap();
        assert!(a.dot(&c));
    }

    #[test]
    fn xor_and_distance() {
        let mut a = BitVec::from_bitstring("110010").unwrap();
        let b = BitVec::from_bitstring("011010").unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
        a ^= &b;
        assert_eq!(format!("{a}"), "101000");
        a &= &b;
        assert_eq!(format!("{a}"), "001000");
    }

    #[test]
    fn iter_ones_crosses_word_boundary() {
        let mut v = BitVec::zeros(200);
        for i in [0, 5, 63, 64, 127, 128, 199] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, [0, 5, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn concat_and_slice() {
        let a = BitVec::from_bitstring("101").unwrap();
        let b = BitVec::from_bitstring("0110").unwrap();
        let c = a.concat(&b);
        assert_eq!(format!("{c}"), "1010110");
        assert_eq!(format!("{}", c.slice(3..7)), "0110");
        assert_eq!(c.slice(0..0).len(), 0);
    }

    #[test]
    fn from_words_masks_the_tail() {
        let v = BitVec::from_words(&[u64::MAX, u64::MAX], 70);
        assert_eq!(v, BitVec::ones(70));
        assert_eq!(BitVec::from_words(&[0b101], 130), {
            let mut w = BitVec::zeros(130);
            w.set(0, true);
            w.set(2, true);
            w
        });
        assert!(BitVec::from_words(&[], 0).is_empty());
    }

    #[test]
    fn parity_matches_count() {
        let v = BitVec::from_bitstring("1110001").unwrap();
        assert_eq!(v.parity(), v.count_ones() % 2 == 1);
    }

    proptest! {
        #[test]
        fn prop_round_trip_bools(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let v = BitVec::from_bools(&bits);
            prop_assert_eq!(v.to_bools(), bits);
        }

        #[test]
        fn prop_xor_is_involution(bits_a in proptest::collection::vec(any::<bool>(), 1..200),
                                  seed in any::<u64>()) {
            let b_bits: Vec<bool> = bits_a.iter().enumerate()
                .map(|(i, _)| (seed >> (i % 64)) & 1 == 1).collect();
            let a = BitVec::from_bools(&bits_a);
            let b = BitVec::from_bools(&b_bits);
            let mut x = a.clone();
            x ^= &b;
            x ^= &b;
            prop_assert_eq!(x, a);
        }

        #[test]
        fn prop_distance_is_xor_popcount(bits in proptest::collection::vec(any::<(bool, bool)>(), 0..200)) {
            let a = BitVec::from_bools(&bits.iter().map(|p| p.0).collect::<Vec<_>>());
            let b = BitVec::from_bools(&bits.iter().map(|p| p.1).collect::<Vec<_>>());
            let mut x = a.clone();
            x ^= &b;
            prop_assert_eq!(a.hamming_distance(&b), x.count_ones());
        }

        #[test]
        fn prop_dot_bilinear(n in 1usize..120, s1 in any::<u128>(), s2 in any::<u128>(), s3 in any::<u128>()) {
            let n = n.min(128);
            let a = BitVec::from_u128(s1, n);
            let b = BitVec::from_u128(s2, n);
            let c = BitVec::from_u128(s3, n);
            // (a ^ b) . c == (a.c) ^ (b.c)
            let mut ab = a.clone();
            ab ^= &b;
            prop_assert_eq!(ab.dot(&c), a.dot(&c) ^ b.dot(&c));
        }
    }
}
