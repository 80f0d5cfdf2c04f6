//! Composite codes: several generators protecting one data word.
//!
//! §4.3 of the paper synthesizes a float32-specific scheme where the
//! bits of a data word are *mapped* to different generators — the
//! critical upper bits of a float to a strong code, the noise-tolerant
//! mantissa bits to a cheap one. A [`CompositeCode`] is that mapping: a
//! list of segments, each naming the data-bit indices a generator
//! protects. The segments partition `0..data_len`.

use crate::{CheckOutcome, Generator};
use fec_gf2::{BitMatrix, BitVec};
use std::fmt;

/// One generator together with the (data-word) bit indices it protects.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The protecting code; its `data_len` must equal `bits.len()`.
    pub generator: Generator,
    /// Indices into the composite data word, in sub-word bit order.
    pub bits: Vec<usize>,
}

/// A partition of a `data_len`-bit word into independently coded
/// segments (the paper's `map : bit → generator`).
#[derive(Clone, Debug)]
pub struct CompositeCode {
    segments: Vec<Segment>,
    data_len: usize,
}

impl CompositeCode {
    /// Builds a composite code from segments; validates that the
    /// segments exactly partition `0..data_len` and match their
    /// generators' data lengths.
    pub fn new(segments: Vec<Segment>, data_len: usize) -> Result<CompositeCode, String> {
        let mut covered = vec![false; data_len];
        for (i, seg) in segments.iter().enumerate() {
            if seg.generator.data_len() != seg.bits.len() {
                return Err(format!(
                    "segment {i}: generator expects {} bits, got {}",
                    seg.generator.data_len(),
                    seg.bits.len()
                ));
            }
            for &b in &seg.bits {
                if b >= data_len {
                    return Err(format!("segment {i}: bit {b} out of range {data_len}"));
                }
                if covered[b] {
                    return Err(format!("segment {i}: bit {b} covered twice"));
                }
                covered[b] = true;
            }
        }
        if let Some(hole) = covered.iter().position(|&c| !c) {
            return Err(format!("bit {hole} not covered by any segment"));
        }
        Ok(CompositeCode { segments, data_len })
    }

    /// Convenience: consecutive contiguous segments in order (e.g. the
    /// paper's `G_5^8 G_1^8 G_1^16` split of a 32-bit word, MSB first).
    ///
    /// `generators` are applied to consecutive bit ranges starting at
    /// the *top* of the word: the first generator takes the highest
    /// `k₀` bits, and so on downward.
    pub fn contiguous_msb_first(generators: Vec<Generator>) -> Result<CompositeCode, String> {
        let data_len: usize = generators.iter().map(Generator::data_len).sum();
        let mut segments = Vec::with_capacity(generators.len());
        let mut hi = data_len;
        for g in generators {
            let k = g.data_len();
            let lo = hi - k;
            segments.push(Segment {
                generator: g,
                bits: (lo..hi).collect(),
            });
            hi = lo;
        }
        CompositeCode::new(segments, data_len)
    }

    /// Builds from the paper's `map` form: `map[j]` = index of the
    /// generator protecting data bit `j`. A generator's sub-word
    /// collects its bits in ascending `j` order.
    pub fn from_map(generators: Vec<Generator>, map: &[usize]) -> Result<CompositeCode, String> {
        let mut bit_lists: Vec<Vec<usize>> = vec![Vec::new(); generators.len()];
        for (j, &gi) in map.iter().enumerate() {
            if gi >= generators.len() {
                return Err(format!("map[{j}] = {gi} out of range"));
            }
            bit_lists[gi].push(j);
        }
        let segments = generators
            .into_iter()
            .zip(bit_lists)
            .map(|(generator, bits)| Segment { generator, bits })
            .collect();
        CompositeCode::new(segments, map.len())
    }

    /// Total data length.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Total codeword length (data + all segments' check bits).
    pub fn codeword_len(&self) -> usize {
        self.data_len + self.check_len()
    }

    /// Total number of check bits — the "check" column of Table 2.
    pub fn check_len(&self) -> usize {
        self.segments.iter().map(|s| s.generator.check_len()).sum()
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The composite as one systematic generator: segment `s`'s
    /// coefficient row `i` sits on data bit `bits[i]`, in `s`'s check
    /// columns, and the columns follow segment order. Its codewords are
    /// exactly those [`CompositeCode::encode`] emits, so one encoder
    /// circuit covers the whole ensemble.
    pub fn generator(&self) -> Generator {
        let mut coeff = BitMatrix::zeros(self.data_len, self.check_len());
        let mut first_col = 0;
        for seg in &self.segments {
            let p = seg.generator.coefficients();
            for (i, &b) in seg.bits.iter().enumerate() {
                for c in 0..p.cols() {
                    if p.get(i, c) {
                        coeff.set(b, first_col + c, true);
                    }
                }
            }
            first_col += p.cols();
        }
        Generator::from_coefficients(coeff)
    }

    /// Encodes a composite data word: the data bits verbatim, followed
    /// by each segment's check bits in segment order.
    ///
    /// # Panics
    /// Panics if `data.len() != data_len`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(data.len(), self.data_len, "encode: wrong data length");
        let mut out = data.clone();
        for seg in &self.segments {
            let sub = self.gather(data, seg);
            let word = seg.generator.encode(&sub);
            let checks = word.slice(seg.bits.len()..word.len());
            out = out.concat(&checks);
        }
        out
    }

    /// `true` when every segment's syndrome is zero.
    pub fn is_valid(&self, word: &BitVec) -> bool {
        self.check_segments(word)
            .iter()
            .all(|o| *o == CheckOutcome::Valid)
    }

    /// Per-segment check outcomes for a received word.
    ///
    /// # Panics
    /// Panics if `word.len() != codeword_len`.
    pub fn check_segments(&self, word: &BitVec) -> Vec<CheckOutcome> {
        assert_eq!(
            word.len(),
            self.codeword_len(),
            "check: wrong codeword length"
        );
        let data = word.slice(0..self.data_len);
        let mut offset = self.data_len;
        let mut out = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            let c = seg.generator.check_len();
            let sub = self.gather(&data, seg);
            let checks = word.slice(offset..offset + c);
            out.push(seg.generator.check(&sub.concat(&checks)));
            offset += c;
        }
        out
    }

    /// Attempts per-segment single-bit correction; returns the repaired
    /// word when every segment is valid afterwards, or `None` if any
    /// segment reports an uncorrectable (multi-bit) error.
    ///
    /// Correction is independent per segment, so up to one bit error
    /// *per segment* is repaired — the composite scheme's advantage
    /// over one monolithic code of the same total check budget.
    pub fn correct(&self, word: &BitVec) -> Option<BitVec> {
        let outcomes = self.check_segments(word);
        let mut fixed = word.clone();
        let mut check_offset = self.data_len;
        for (seg, outcome) in self.segments.iter().zip(outcomes) {
            match outcome {
                CheckOutcome::Valid => {}
                CheckOutcome::MultiError => return None,
                CheckOutcome::SingleError { position } => {
                    // map the sub-codeword position back to the word
                    if position < seg.bits.len() {
                        fixed.flip(seg.bits[position]);
                    } else {
                        fixed.flip(check_offset + (position - seg.bits.len()));
                    }
                }
            }
            check_offset += seg.generator.check_len();
        }
        self.is_valid(&fixed).then_some(fixed)
    }

    fn gather(&self, data: &BitVec, seg: &Segment) -> BitVec {
        let mut sub = BitVec::zeros(seg.bits.len());
        for (i, &b) in seg.bits.iter().enumerate() {
            sub.set(i, data.get(b));
        }
        sub
    }
}

impl fmt::Display for CompositeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // paper-style name: G_c^k per segment, e.g. "G_5^8 G_1^8 G_1^16"
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(
                f,
                "G_{}^{}",
                seg.generator.check_len(),
                seg.generator.data_len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standards;

    fn float32_ensemble() -> CompositeCode {
        // the paper's G_5^8 G_1^8 G_1^16 (upper 8 strong, next 8 parity,
        // lower 16 parity)
        CompositeCode::contiguous_msb_first(vec![
            standards::shortened_hamming(8, 5).unwrap(),
            standards::parity_code(8),
            standards::parity_code(16),
        ])
        .unwrap()
    }

    #[test]
    fn shape_of_the_paper_ensemble() {
        let c = float32_ensemble();
        assert_eq!(c.data_len(), 32);
        assert_eq!(c.check_len(), 7); // the Table 2 "check = 7" row
        assert_eq!(c.codeword_len(), 39);
        assert_eq!(format!("{c}"), "G_5^8 G_1^8 G_1^16");
    }

    #[test]
    fn encode_then_check_valid() {
        let c = float32_ensemble();
        let data = BitVec::from_u128(0x41BE0000, 32); // 23.75f32
        let w = c.encode(&data);
        assert!(c.is_valid(&w));
        assert_eq!(w.len(), 39);
    }

    #[test]
    fn flips_are_caught_by_the_owning_segment() {
        let c = float32_ensemble();
        let data = BitVec::from_u128(0xDEADBEEF, 32);
        let w = c.encode(&data);
        // bit 31 (MSB) belongs to segment 0
        let mut bad = w.clone();
        bad.flip(31);
        let outcomes = c.check_segments(&bad);
        assert_ne!(outcomes[0], CheckOutcome::Valid);
        assert_eq!(outcomes[1], CheckOutcome::Valid);
        assert_eq!(outcomes[2], CheckOutcome::Valid);
        // bit 0 (LSB) belongs to segment 2
        let mut bad = w.clone();
        bad.flip(0);
        let outcomes = c.check_segments(&bad);
        assert_eq!(outcomes[0], CheckOutcome::Valid);
        assert_eq!(outcomes[1], CheckOutcome::Valid);
        assert_ne!(outcomes[2], CheckOutcome::Valid);
    }

    #[test]
    fn from_map_matches_paper_synthesis_result() {
        // §4.3: upper 8 bits of the 16-bit word → G_5^8, lower 8 → G_1^8.
        // Data bit index: 15..8 are "upper", 7..0 "lower".
        let map: Vec<usize> = (0..16).map(|j| usize::from(j < 8)).collect();
        let c = CompositeCode::from_map(
            vec![
                standards::shortened_hamming(8, 5).unwrap(), // gen 0: upper
                standards::parity_code(8),                   // gen 1: lower
            ],
            &map,
        );
        // map[j]=0 for j ≥ 8? No: j<8 → 1 (lower bits → parity). Upper
        // bits j ≥ 8 map to 0 (strong code).
        let c = c.unwrap();
        assert_eq!(c.check_len(), 6);
        assert_eq!(c.segments()[0].bits, (8..16).collect::<Vec<_>>());
        assert_eq!(c.segments()[1].bits, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_bad_partitions() {
        // hole
        let r = CompositeCode::new(
            vec![Segment {
                generator: standards::parity_code(8),
                bits: (0..8).collect(),
            }],
            9,
        );
        assert!(r.is_err());
        // overlap
        let r = CompositeCode::new(
            vec![
                Segment {
                    generator: standards::parity_code(8),
                    bits: (0..8).collect(),
                },
                Segment {
                    generator: standards::parity_code(8),
                    bits: (7..15).collect(),
                },
            ],
            15,
        );
        assert!(r.is_err());
        // wrong generator size
        let r = CompositeCode::new(
            vec![Segment {
                generator: standards::parity_code(4),
                bits: (0..8).collect(),
            }],
            8,
        );
        assert!(r.is_err());
    }

    #[test]
    fn corrects_one_error_per_strong_segment() {
        // segment 0 is md-3 (correctable); a single flip there repairs
        let c = float32_ensemble();
        let data = BitVec::from_u128(0x40490FDB, 32); // π
        let clean = c.encode(&data);
        for victim in [31usize, 28, 24] {
            let mut bad = clean.clone();
            bad.flip(victim);
            let fixed = c.correct(&bad).expect("single error in md-3 segment");
            assert_eq!(fixed, clean, "victim {victim}");
        }
    }

    #[test]
    fn corrects_simultaneous_errors_in_different_segments() {
        let c = CompositeCode::contiguous_msb_first(vec![
            standards::shortened_hamming(8, 5).unwrap(),
            standards::shortened_hamming(8, 5).unwrap(),
        ])
        .unwrap();
        let data = BitVec::from_u128(0xBEEF, 16);
        let clean = c.encode(&data);
        let mut bad = clean.clone();
        bad.flip(15); // segment 0 data bit
        bad.flip(0); // segment 1 data bit
        let fixed = c.correct(&bad).expect("one error per segment");
        assert_eq!(fixed, clean);
    }

    #[test]
    fn parity_segments_cannot_correct() {
        // a flip in a parity-protected segment is detected but the
        // syndrome is a bare check-bit indication: correct() repairs
        // only if the flip was the check bit itself; a data flip in a
        // parity segment yields SingleError pointing at the parity bit,
        // whose repair fails re-validation… unless it actually was the
        // check bit. Either way correct() must never return a word
        // differing from a valid codeword.
        let c = float32_ensemble();
        let data = BitVec::from_u128(0x3F800000, 32);
        let clean = c.encode(&data);
        let mut bad = clean.clone();
        bad.flip(3); // mantissa bit: parity segment
        match c.correct(&bad) {
            None => {}
            Some(w) => assert!(c.is_valid(&w)),
        }
    }

    /// splitmix64: the property's own stream, drawn from one seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random `from_map` partition of `k` bits over `segs` segments,
    /// each protected by a random coefficient matrix of 1–6 columns.
    fn random_composite(state: &mut u64, segs: usize, k: usize) -> CompositeCode {
        let mut map: Vec<usize> = (0..k)
            .map(|_| (next(state) % segs as u64) as usize)
            .collect();
        for (s, m) in map.iter_mut().take(segs).enumerate() {
            *m = s; // no empty segment
        }
        let generators = (0..segs)
            .map(|s| {
                let rows = map.iter().filter(|&&m| m == s).count();
                let cols = 1 + (next(state) % 6) as usize;
                let mut p = BitMatrix::zeros(rows, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        p.set(r, c, next(state) & 1 == 1);
                    }
                }
                Generator::from_coefficients(p)
            })
            .collect();
        CompositeCode::from_map(generators, &map).unwrap()
    }

    fn random_word(state: &mut u64, len: usize) -> BitVec {
        let v = u128::from(next(state)) | u128::from(next(state)) << 64;
        BitVec::from_u128(v, len)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// `generator()` is the composite as one code: it encodes every
        /// data word to the same codeword, and its syndrome agrees with
        /// the per-segment check on codewords, on every single flip of
        /// one, and on random words. Beside a random `from_map`
        /// partition, each case runs the paper's `G_5^8 G_1^8 G_1^16`,
        /// a contiguous and an interleaved Hamming + parity pair; their
        /// segments all have md ≥ 2, so every single flip is caught.
        #[test]
        fn prop_generator_is_the_composite(
            seed in proptest::prelude::any::<u64>(),
            segs in 2usize..4,
            k in 3usize..97,
        ) {
            let mut state = seed;
            let pair = || vec![
                standards::shortened_hamming(8, 4).unwrap(),
                standards::parity_code(8),
            ];
            let alternate: Vec<usize> = (0..16).map(|j| j % 2).collect();
            for (code, md2) in [
                (random_composite(&mut state, segs, k), false),
                (float32_ensemble(), true),
                (CompositeCode::contiguous_msb_first(pair()).unwrap(), true),
                (CompositeCode::from_map(pair(), &alternate).unwrap(), true),
            ] {
                let g = code.generator();
                proptest::prop_assert_eq!(g.data_len(), code.data_len());
                proptest::prop_assert_eq!(g.codeword_len(), code.codeword_len());
                for _ in 0..4 {
                    let data = random_word(&mut state, code.data_len());
                    let word = code.encode(&data);
                    proptest::prop_assert_eq!(&g.encode(&data), &word, "{}", code);
                    proptest::prop_assert!(g.is_valid(&word));
                    for b in 0..word.len() {
                        let mut bad = word.clone();
                        bad.flip(b);
                        proptest::prop_assert_eq!(
                            g.is_valid(&bad), code.is_valid(&bad), "{} flip {}", code, b
                        );
                        proptest::prop_assert!(!(md2 && g.is_valid(&bad)), "{} flip {}", code, b);
                    }
                    let noise = random_word(&mut state, code.codeword_len());
                    proptest::prop_assert_eq!(g.is_valid(&noise), code.is_valid(&noise));
                }
            }
        }
    }

    #[test]
    fn single_generator_composite_equals_plain_code() {
        let g = standards::hamming_7_4();
        let c = CompositeCode::contiguous_msb_first(vec![g.clone()]).unwrap();
        let d = BitVec::from_bitstring("0011").unwrap();
        assert_eq!(c.encode(&d), g.encode(&d));
    }
}
