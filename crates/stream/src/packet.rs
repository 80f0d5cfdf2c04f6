//! Byte-stream packetization into fixed-width data words.
//!
//! A byte stream is a bit stream (byte `i`, bit `j` LSB-first ↦
//! stream bit `8·i + j`, matching `BitVec`'s packing) chopped into
//! `word_len`-bit data words; the final word is zero-padded. The
//! original byte length travels out of band (the stream report), so
//! depacketization drops the padding exactly.
//!
//! The pipeline uses the flat form (`packetize_words`,
//! `depacketize_words`), which keeps word `w` in
//! `words[w·stride..(w+1)·stride]`, packed as `BitVec::words`, with
//! `stride = ⌈word_len / 64⌉`; the `BitVec` forms wrap it.

use crate::fountain::mask64;
use fec_gf2::BitVec;

/// Splits a byte stream into `word_len`-bit words and back.
#[derive(Clone, Copy, Debug)]
pub struct Packetizer {
    word_len: usize,
}

impl Packetizer {
    /// A packetizer for `word_len`-bit data words.
    ///
    /// # Panics
    /// Panics if `word_len` is zero.
    pub fn new(word_len: usize) -> Packetizer {
        assert!(word_len > 0, "word_len must be positive");
        Packetizer { word_len }
    }

    /// Bits per data word.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// `u64`s per data word in the flat form.
    pub(crate) fn stride(&self) -> usize {
        self.word_len.div_ceil(64)
    }

    /// Number of words `byte_len` bytes packetize into.
    pub fn words_for(&self, byte_len: usize) -> usize {
        (8 * byte_len).div_ceil(self.word_len)
    }

    /// Splits `bytes` into data words (last one zero-padded).
    pub fn packetize(&self, bytes: &[u8]) -> Vec<BitVec> {
        self.packetize_words(bytes)
            .chunks(self.stride())
            .map(|w| BitVec::from_words(w, self.word_len))
            .collect()
    }

    /// [`Packetizer::packetize`] in the flat form.
    pub(crate) fn packetize_words(&self, bytes: &[u8]) -> Vec<u64> {
        let stride = self.stride();
        let mut words = vec![0u64; self.words_for(bytes.len()) * stride];
        // a bit reader: `held` stream bits wait in `acc`, lowest first
        let (mut acc, mut held) = (0u128, 0usize);
        let mut rest = bytes;
        for word in words.chunks_mut(stride) {
            for (j, chunk) in word.iter_mut().enumerate() {
                let bits = (self.word_len - 64 * j).min(64);
                if held < bits {
                    let mut next = [0u8; 8];
                    let n = rest.len().min(8);
                    next[..n].copy_from_slice(&rest[..n]);
                    rest = &rest[n..];
                    acc |= u128::from(u64::from_le_bytes(next)) << held;
                    held += 64;
                }
                *chunk = acc as u64 & mask64(bits);
                acc >>= bits;
                held -= bits;
            }
        }
        words
    }

    /// Reassembles `byte_len` bytes from data words, dropping the
    /// final word's padding.
    ///
    /// # Panics
    /// Panics if the words cannot cover `byte_len` bytes or have the
    /// wrong width.
    pub fn depacketize(&self, words: &[BitVec], byte_len: usize) -> Vec<u8> {
        let used = &words[..self.covering(words.len(), byte_len)];
        let mut flat = Vec::with_capacity(used.len() * self.stride());
        for w in used {
            assert_eq!(w.len(), self.word_len, "depacketize: word width");
            flat.extend_from_slice(w.words());
        }
        self.depacketize_words(&flat, byte_len)
    }

    /// [`Packetizer::depacketize`] in the flat form; bits at or beyond
    /// `word_len` in a word are ignored.
    ///
    /// # Panics
    /// Panics if the words cannot cover `byte_len` bytes or `words` is
    /// not a whole number of words.
    pub(crate) fn depacketize_words(&self, words: &[u64], byte_len: usize) -> Vec<u8> {
        let stride = self.stride();
        assert!(
            words.len().is_multiple_of(stride),
            "depacketize: ragged words"
        );
        let used = self.covering(words.len() / stride, byte_len);
        // a bit writer: `held` stream bits wait in `acc`, lowest first
        let mut bytes = Vec::with_capacity(byte_len + 8);
        let (mut acc, mut held) = (0u128, 0usize);
        for word in words[..used * stride].chunks(stride) {
            for (j, &chunk) in word.iter().enumerate() {
                let bits = (self.word_len - 64 * j).min(64);
                acc |= u128::from(chunk & mask64(bits)) << held;
                held += bits;
                if held >= 64 {
                    bytes.extend_from_slice(&(acc as u64).to_le_bytes());
                    acc >>= 64;
                    held -= 64;
                }
            }
        }
        bytes.extend_from_slice(&acc.to_le_bytes()[..held.div_ceil(8)]);
        bytes.truncate(byte_len);
        bytes
    }

    /// The number of leading words that cover `byte_len` bytes.
    fn covering(&self, available: usize, byte_len: usize) -> usize {
        let need = self.words_for(byte_len);
        assert!(
            available >= need,
            "depacketize: {available} words cannot cover {byte_len} bytes"
        );
        need
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_awkward_word_lengths() {
        let payload: Vec<u8> = (0..=255u8).collect();
        for word_len in [1, 7, 8, 16, 120, 2048] {
            let p = Packetizer::new(word_len);
            let words = p.packetize(&payload);
            assert_eq!(words.len(), p.words_for(payload.len()));
            assert_eq!(p.depacketize(&words, payload.len()), payload, "{word_len}");
        }
    }

    #[test]
    fn empty_stream_is_zero_words() {
        let p = Packetizer::new(16);
        assert!(p.packetize(&[]).is_empty());
        assert_eq!(p.depacketize(&[], 0), Vec::<u8>::new());
    }

    #[test]
    fn flat_form_matches_bitvec_words() {
        let payload: Vec<u8> = (0..=255u8).rev().collect();
        for word_len in [1, 7, 63, 64, 65, 120, 200] {
            let p = Packetizer::new(word_len);
            let flat = p.packetize_words(&payload);
            let words = p.packetize(&payload);
            let expect: Vec<u64> = words.iter().flat_map(|w| w.words().to_vec()).collect();
            assert_eq!(flat, expect, "{word_len}");
            for (i, w) in words.iter().enumerate() {
                for b in 0..word_len {
                    let bit = i * word_len + b;
                    let want = bit < 8 * payload.len() && payload[bit / 8] >> (bit % 8) & 1 == 1;
                    assert_eq!(w.get(b), want, "{word_len}: word {i} bit {b}");
                }
            }
            assert_eq!(p.depacketize_words(&flat, payload.len()), payload);
        }
    }

    #[test]
    fn padding_bits_are_zero() {
        let p = Packetizer::new(120);
        let words = p.packetize(&[0xFF; 16]); // 128 bits → 2 words
        assert_eq!(words.len(), 2);
        assert_eq!(words[1].count_ones(), 8); // 8 real bits, 112 padding
    }
}
