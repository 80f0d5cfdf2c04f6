//! XOR-parity fountain outer layer: generation-scoped rateless repair
//! words for erasure recovery across packets.
//!
//! Data words are grouped into *generations* of up to 64 words. Each
//! generation carries `repair` extra words, every one the XOR of a
//! deterministic, seed-derived subset of the generation's data words
//! (repair 1 is always the full-generation parity, so any single
//! erasure is recoverable from it alone). The decoder sees a mix of
//! known data words and erasures (frames the inner code rejected) and
//! solves the surviving XOR equations by GF(2) Gauss–Jordan
//! elimination over the erased unknowns — the peeling decoder is the
//! special case where every pivot row ends up single-bit.
//!
//! Masks depend only on `(seed, generation, r)`, never on the data, so
//! sender and receiver agree without any mask transmission.

use fec_gf2::BitVec;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

pub(crate) fn mask64(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The deterministic data-word subset for repair word `r` (1-based) of
/// `generation`, over a generation of `chunk` data words.
///
/// # Panics
/// Panics if `chunk` is 0 or exceeds 64, or if `r` is 0.
pub fn repair_mask(chunk: usize, seed: u64, generation: u64, r: usize) -> u64 {
    assert!((1..=64).contains(&chunk), "generation size must be 1..=64");
    assert!(r >= 1, "repair words are 1-based");
    let full = mask64(chunk);
    if r == 1 {
        return full;
    }
    let mut rng = SmallRng::seed_from_u64(
        seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (r as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    loop {
        let m = rng.random::<u64>() & full;
        // a half-density mask, never empty and never a duplicate of
        // the full parity (those add no new equation)
        if m != 0 && m != full {
            return m;
        }
        if chunk == 1 {
            return full; // only one subset exists
        }
    }
}

/// Encodes the `repair` words for one generation of data words.
///
/// # Panics
/// Panics if `words` is empty, longer than 64, or ragged.
pub fn encode_repairs(words: &[BitVec], seed: u64, generation: u64, repair: usize) -> Vec<BitVec> {
    assert!(!words.is_empty() && words.len() <= 64);
    let word_len = words[0].len();
    let mut flat = Vec::with_capacity(words.len() * word_len.div_ceil(64));
    for w in words {
        assert_eq!(w.len(), word_len, "ragged generation");
        flat.extend_from_slice(w.words());
    }
    let stride = word_len.div_ceil(64).max(1);
    flat.resize(words.len() * stride, 0);
    let mut out = vec![0u64; repair * stride];
    encode_repair_words(&flat, stride, seed, generation, &mut out);
    out.chunks(stride)
        .map(|w| BitVec::from_words(w, word_len))
        .collect()
}

/// [`encode_repairs`] over flat words: the generation's data words
/// are `words`, `stride` `u64`s each, and repair word `r` (1-based) is
/// written to `out[(r-1)·stride..r·stride]`; `out` holds as many
/// repair words as it has room for.
///
/// # Panics
/// Panics if `stride` is zero, `words` is empty, holds more than 64
/// words or a partial one, or `out` holds a partial word.
pub(crate) fn encode_repair_words(
    words: &[u64],
    stride: usize,
    seed: u64,
    generation: u64,
    out: &mut [u64],
) {
    let chunk = whole_words(words, stride);
    assert!(
        out.len().is_multiple_of(stride),
        "encode_repair_words: partial repair word"
    );
    for (ri, acc) in out.chunks_mut(stride).enumerate() {
        let mask = repair_mask(chunk, seed, generation, ri + 1);
        acc.fill(0);
        for i in ones(mask) {
            xor_into(acc, &words[i * stride..(i + 1) * stride]);
        }
    }
}

/// Recovers erased data words of one generation in place.
///
/// `data[i] = None` marks an erasure; `repairs` pairs each repair
/// word's mask with its received value (`None` when the repair frame
/// itself was erased). Returns the recovered indices. Words the
/// surviving equations do not determine stay `None`.
pub fn recover_generation(
    data: &mut [Option<BitVec>],
    repairs: &[(u64, Option<BitVec>)],
    word_len: usize,
) -> Vec<usize> {
    let stride = word_len.div_ceil(64).max(1);
    let mut flat = vec![0u64; data.len() * stride];
    let mut erased = 0u64;
    for (i, slot) in data.iter().enumerate() {
        match slot {
            Some(w) => {
                assert_eq!(w.len(), word_len, "recover_generation: word width");
                flat[i * stride..i * stride + w.words().len()].copy_from_slice(w.words());
            }
            None => erased |= 1 << i,
        }
    }
    let equations = repairs.iter().map(|(mask, word)| {
        let word = word.as_ref().map(|w| {
            assert_eq!(w.len(), word_len, "recover_generation: repair width");
            w.words()
        });
        (*mask, word)
    });
    let recovered = recover_words(&mut flat, stride, erased, equations);
    ones(recovered)
        .inspect(|&i| data[i] = Some(BitVec::from_words(&flat[i * stride..], word_len)))
        .collect()
}

/// [`recover_generation`] over flat words: `data` holds the
/// generation's words, `stride` `u64`s each; bit `i` of `erased` marks
/// word `i` unknown (its contents are ignored and, when recovered,
/// overwritten). `repairs` yields each repair word's mask with its
/// received value, `None` when that frame was erased; a received word
/// shorter than `stride` reads as zero-padded. Returns the mask of
/// recovered words.
///
/// Gauss–Jordan elimination over the unknowns in ascending index
/// order: after full reduction a pivot row whose mask is a single bit
/// uniquely determines that unknown.
///
/// # Panics
/// Panics if `stride` is zero or `data` holds more than 64 words or a
/// partial one.
pub(crate) fn recover_words<'a>(
    data: &mut [u64],
    stride: usize,
    erased: u64,
    repairs: impl IntoIterator<Item = (u64, Option<&'a [u64]>)>,
) -> u64 {
    let chunk = whole_words(data, stride);
    let erased = erased & mask64(chunk);
    if erased == 0 {
        return 0;
    }
    // one row per surviving repair that touches an unknown: its mask
    // over the unknowns, and its right-hand side (the received word
    // minus the known words it covers) at the same index of `rhs`
    let mut masks: Vec<u64> = Vec::new();
    let mut rhs: Vec<u64> = Vec::new();
    for (mask, word) in repairs {
        let Some(word) = word else { continue };
        let mask = mask & mask64(chunk);
        if mask & erased == 0 {
            continue;
        }
        let row = rhs.len();
        rhs.resize(row + stride, 0);
        let n = word.len().min(stride);
        rhs[row..row + n].copy_from_slice(&word[..n]);
        for i in ones(mask & !erased) {
            xor_into(
                &mut rhs[row..row + stride],
                &data[i * stride..(i + 1) * stride],
            );
        }
        masks.push(mask & erased);
    }

    let mut pivots: Vec<(usize, usize)> = Vec::new(); // (column, row)
    for col in ones(erased) {
        let Some(pr) = (0..masks.len())
            .find(|&ri| masks[ri] >> col & 1 == 1 && pivots.iter().all(|&(_, r)| r != ri))
        else {
            continue;
        };
        let pmask = masks[pr];
        for ri in 0..masks.len() {
            if ri != pr && masks[ri] >> col & 1 == 1 {
                masks[ri] ^= pmask;
                for w in 0..stride {
                    rhs[ri * stride + w] ^= rhs[pr * stride + w];
                }
            }
        }
        pivots.push((col, pr));
    }

    let mut recovered = 0u64;
    for &(col, ri) in &pivots {
        if masks[ri] == 1 << col {
            data[col * stride..(col + 1) * stride]
                .copy_from_slice(&rhs[ri * stride..(ri + 1) * stride]);
            recovered |= 1 << col;
        }
    }
    recovered
}

/// The number of `stride`-wide words in `words`, checked.
fn whole_words(words: &[u64], stride: usize) -> usize {
    assert!(
        stride > 0 && words.len().is_multiple_of(stride),
        "partial word"
    );
    let count = words.len() / stride;
    assert!(count <= 64, "generation size must be ≤ 64");
    count
}

/// Indices of the set bits of `mask`, ascending.
pub(crate) fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

pub(crate) fn xor_into(acc: &mut [u64], word: &[u64]) {
    for (a, w) in acc.iter_mut().zip(word) {
        *a ^= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_words(n: usize, word_len: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut w = BitVec::zeros(word_len);
                for i in 0..word_len {
                    if rng.random::<u64>() & 1 == 1 {
                        w.set(i, true);
                    }
                }
                w
            })
            .collect()
    }

    #[test]
    fn masks_are_deterministic_and_first_is_full() {
        assert_eq!(repair_mask(16, 9, 3, 1), 0xFFFF);
        let a = repair_mask(16, 9, 3, 2);
        assert_eq!(a, repair_mask(16, 9, 3, 2));
        assert_ne!(a, 0);
        assert_ne!(repair_mask(16, 9, 4, 2), a, "masks vary by generation");
    }

    #[test]
    fn single_erasure_recovers_from_full_parity_alone() {
        let words = gen_words(16, 20, 1);
        let repairs = encode_repairs(&words, 7, 0, 1);
        for erased in [0, 7, 15] {
            let mut data: Vec<Option<BitVec>> = words.iter().cloned().map(Some).collect();
            data[erased] = None;
            let masks = vec![(repair_mask(16, 7, 0, 1), Some(repairs[0].clone()))];
            let rec = recover_generation(&mut data, &masks, 20);
            assert_eq!(rec, vec![erased]);
            assert_eq!(data[erased].as_ref(), Some(&words[erased]));
        }
    }

    #[test]
    fn burst_of_erasures_recovers_with_enough_repairs() {
        let words = gen_words(16, 20, 2);
        let seed = 11;
        let repair = 6;
        let repairs = encode_repairs(&words, seed, 5, repair);
        let mut data: Vec<Option<BitVec>> = words.iter().cloned().map(Some).collect();
        for slot in data.iter_mut().take(8).skip(4) {
            *slot = None; // a 4-erasure burst
        }
        let eqs: Vec<(u64, Option<BitVec>)> = (1..=repair)
            .map(|r| (repair_mask(16, seed, 5, r), Some(repairs[r - 1].clone())))
            .collect();
        let rec = recover_generation(&mut data, &eqs, 20);
        assert_eq!(rec, vec![4, 5, 6, 7]);
        for i in 0..16 {
            assert_eq!(data[i].as_ref(), Some(&words[i]));
        }
    }

    #[test]
    fn underdetermined_generations_report_not_guess() {
        let words = gen_words(8, 12, 3);
        // one repair, two erasures: must recover neither, corrupt nothing
        let repairs = encode_repairs(&words, 1, 0, 1);
        let mut data: Vec<Option<BitVec>> = words.iter().cloned().map(Some).collect();
        data[2] = None;
        data[5] = None;
        let eqs = vec![(repair_mask(8, 1, 0, 1), Some(repairs[0].clone()))];
        let rec = recover_generation(&mut data, &eqs, 12);
        assert!(rec.is_empty());
        assert!(data[2].is_none() && data[5].is_none());
        for i in [0, 1, 3, 4, 6, 7] {
            assert_eq!(data[i].as_ref(), Some(&words[i]));
        }
    }

    #[test]
    fn erased_repair_frames_just_drop_equations() {
        let words = gen_words(16, 20, 4);
        let repairs = encode_repairs(&words, 3, 2, 3);
        let mut data: Vec<Option<BitVec>> = words.iter().cloned().map(Some).collect();
        data[9] = None;
        // full parity erased; random-mask repairs may or may not cover 9
        let eqs: Vec<(u64, Option<BitVec>)> = vec![
            (repair_mask(16, 3, 2, 1), None),
            (repair_mask(16, 3, 2, 2), Some(repairs[1].clone())),
            (repair_mask(16, 3, 2, 3), Some(repairs[2].clone())),
        ];
        let rec = recover_generation(&mut data, &eqs, 20);
        for &i in &rec {
            assert_eq!(data[i].as_ref(), Some(&words[i]));
        }
    }
}
