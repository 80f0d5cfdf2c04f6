//! Bursty channels: the Gilbert–Elliott model and a block interleaver.
//!
//! The BSC assumes independent bit errors, but the optical/cellular
//! links that motivate FEC (paper §1) produce *bursts*. The
//! Gilbert–Elliott model is the standard two-state Markov channel:
//! a Good state with low bit-error rate and a Bad state with high one,
//! with configurable transition probabilities. Combined with the
//! [`BlockInterleaver`], it lets the experiments show *why* the
//! 802.3df stack concatenates a symbol-oriented outer code (KP4)
//! behind the inner Hamming code.

use fec_gf2::BitVec;
use rand::Rng;

/// A two-state Gilbert–Elliott channel.
#[derive(Clone, Copy, Debug)]
pub struct GilbertElliott {
    /// P(Good → Bad) per bit.
    pub p_gb: f64,
    /// P(Bad → Good) per bit.
    pub p_bg: f64,
    /// Bit-error rate in the Good state.
    pub ber_good: f64,
    /// Bit-error rate in the Bad state.
    pub ber_bad: f64,
}

/// Channel state carried between transmissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeState {
    Good,
    Bad,
}

impl GilbertElliott {
    /// A profile resembling a burst-prone optical link: long quiet
    /// stretches, short dense bursts.
    pub fn bursty() -> GilbertElliott {
        GilbertElliott {
            p_gb: 0.001,
            p_bg: 0.1,
            ber_good: 1e-4,
            ber_bad: 0.3,
        }
    }

    /// Stationary probability of being in the Bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run average bit-error rate.
    pub fn average_ber(&self) -> f64 {
        let pb = self.stationary_bad();
        pb * self.ber_bad + (1.0 - pb) * self.ber_good
    }

    /// Transmits `word` in place, evolving `state`. Returns the number
    /// of flips.
    pub fn transmit<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        state: &mut GeState,
        word: &mut BitVec,
    ) -> usize {
        self.transmit_cells(rng, state, 0..word.len(), |i| {
            word.flip(i);
        })
    }

    /// The channel's per-bit loop: one channel bit per item of `cells`,
    /// in order, calling `flip` with the item of every bit the channel
    /// flips. Each bit takes two draws, the error draw and then the
    /// state-transition draw. Returns the number of flips.
    ///
    /// A draw is compared as the raw 53-bit integer `m` that
    /// `rng.random::<f64>()` would scale to `m · 2⁻⁵³`; `m · 2⁻⁵³ < p`
    /// holds exactly when `m < ⌈p · 2⁵³⌉`, so the integer thresholds,
    /// computed once per call, reproduce the float comparison draw for
    /// draw.
    pub fn transmit_cells<R, I>(
        &self,
        rng: &mut R,
        state: &mut GeState,
        cells: I,
        mut flip: impl FnMut(I::Item),
    ) -> usize
    where
        R: Rng + ?Sized,
        I: IntoIterator,
    {
        // (error threshold, leave threshold) per state
        let good = (threshold(self.ber_good), threshold(self.p_gb));
        let bad = (threshold(self.ber_bad), threshold(self.p_bg));
        let mut in_bad = *state == GeState::Bad;
        let mut flips = 0;
        for cell in cells {
            let (ber, leave) = if in_bad { bad } else { good };
            if rng.next_u64() >> 11 < ber {
                flip(cell);
                flips += 1;
            }
            if rng.next_u64() >> 11 < leave {
                in_bad = !in_bad;
            }
        }
        *state = if in_bad { GeState::Bad } else { GeState::Good };
        flips
    }
}

/// `⌈p · 2⁵³⌉`, the number of 53-bit draws `m` with `m · 2⁻⁵³ < p`.
/// Scaling by a power of two is exact, and the saturating cast maps
/// NaN and negative `p` to 0 (never true) and `p ≥ 2¹¹` to `u64::MAX`
/// (always true), as the float comparison does.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// A rows × cols block interleaver: write row-major, read column-major,
/// so a burst of `b` consecutive channel bits lands in `⌈b/rows⌉`
/// different rows (codewords).
#[derive(Clone, Copy, Debug)]
pub struct BlockInterleaver {
    rows: usize,
    cols: usize,
}

impl BlockInterleaver {
    /// Creates an interleaver for `rows` codewords of `cols` bits.
    pub fn new(rows: usize, cols: usize) -> BlockInterleaver {
        assert!(rows > 0 && cols > 0);
        BlockInterleaver { rows, cols }
    }

    /// Total block size in bits.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Always `false`: construction rejects zero rows or columns.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The interleave order of a block holding its first `len`
    /// row-major bits: the `(row, col)` cell of each channel bit, in
    /// transmission order. Columns go out one after another, each from
    /// the top row down, skipping cells at or beyond `len`; a full
    /// block sends cell `(r, c)` as channel bit `c · rows + r`.
    ///
    /// # Panics
    /// Panics if `len > rows·cols`.
    pub fn channel_order(&self, len: usize) -> impl Iterator<Item = (usize, usize)> {
        assert!(len <= self.len(), "channel_order: block too long");
        ChannelOrder {
            cols: self.cols,
            len,
            row: 0,
            col: 0,
            height: len.div_ceil(self.cols),
        }
    }

    /// Interleaves: input bit `(r, c)` (row-major) moves to output
    /// position `c * rows + r`.
    pub fn interleave(&self, input: &BitVec) -> BitVec {
        assert_eq!(input.len(), self.len(), "interleave: wrong length");
        self.interleave_partial(input)
    }

    /// The inverse permutation.
    pub fn deinterleave(&self, input: &BitVec) -> BitVec {
        assert_eq!(input.len(), self.len(), "deinterleave: wrong length");
        self.deinterleave_partial(input)
    }

    /// [`BlockInterleaver::interleave`] for a final, partially filled
    /// block: any `input.len() ≤ rows·cols` is accepted. Output bits
    /// follow [`BlockInterleaver::channel_order`], so the result has
    /// exactly `input.len()` bits and agrees with the full permutation
    /// when the block is exactly full.
    pub fn interleave_partial(&self, input: &BitVec) -> BitVec {
        let l = input.len();
        assert!(l <= self.len(), "interleave_partial: input too long");
        let mut out = BitVec::zeros(l);
        for (o, (r, c)) in self.channel_order(l).enumerate() {
            if input.get(r * self.cols + c) {
                out.set(o, true);
            }
        }
        out
    }

    /// The inverse of [`BlockInterleaver::interleave_partial`]: exact
    /// round-trip for every length up to `rows·cols`.
    pub fn deinterleave_partial(&self, input: &BitVec) -> BitVec {
        let l = input.len();
        assert!(l <= self.len(), "deinterleave_partial: input too long");
        let mut out = BitVec::zeros(l);
        for (o, (r, c)) in self.channel_order(l).enumerate() {
            if input.get(o) {
                out.set(r * self.cols + c, true);
            }
        }
        out
    }
}

/// The iterator [`BlockInterleaver::channel_order`] returns.
struct ChannelOrder {
    cols: usize,
    len: usize,
    row: usize,
    col: usize,
    /// Rows of the current column: those `r` with `r·cols + col < len`.
    height: usize,
}

impl Iterator for ChannelOrder {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.row == self.height {
            self.col += 1;
            if self.col >= self.cols.min(self.len) {
                return None;
            }
            self.row = 0;
            self.height = (self.len - self.col).div_ceil(self.cols);
        }
        self.row += 1;
        Some((self.row - 1, self.col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    const REPLAY_P: [f64; 6] = [0.0, 1e-9, 1e-4, 0.001, 0.3, 1.0];

    #[test]
    fn integer_thresholds_replay_the_float_channel_step_for_step() {
        // the Good state runs at p, the Bad state at 0.3, so p = 1
        // also exercises every Bad-state branch
        for (i, &p) in REPLAY_P.iter().enumerate() {
            let ge = GilbertElliott {
                p_gb: p,
                p_bg: 0.3,
                ber_good: p,
                ber_bad: 0.3,
            };
            let mut fast = SmallRng::seed_from_u64(90 + i as u64);
            let mut float = fast.clone();
            let mut state = GeState::Good;
            let mut float_state = GeState::Good;
            let (mut flips, mut changes) = (0u64, 0u64);
            for step in 0..1_000_000 {
                let flipped = ge.transmit_cells(&mut fast, &mut state, [step], |_| {}) == 1;
                let (ber, leave) = match float_state {
                    GeState::Good => (ge.ber_good, ge.p_gb),
                    GeState::Bad => (ge.ber_bad, ge.p_bg),
                };
                let float_flipped = float.random::<f64>() < ber;
                let before = float_state;
                if float.random::<f64>() < leave {
                    float_state = match float_state {
                        GeState::Good => GeState::Bad,
                        GeState::Bad => GeState::Good,
                    };
                }
                assert_eq!(flipped, float_flipped, "p {p}: flip at step {step}");
                assert_eq!(state, float_state, "p {p}: state at step {step}");
                flips += u64::from(flipped);
                changes += u64::from(before != float_state);
            }
            assert_eq!(fast.random::<u64>(), float.random::<u64>(), "p {p}: draws");
            if p > 0.0 && p < 1e-6 {
                continue; // a 1e-9 channel rarely acts in 1 M steps
            }
            assert_eq!(p == 0.0, flips == 0 && changes == 0, "p {p}");
        }
    }

    #[test]
    fn thresholds_agree_with_the_float_comparison_at_the_boundary() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let odd = [
            0.5 + f64::EPSILON,
            5e-324,
            2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
        ];
        for p in REPLAY_P.into_iter().chain(odd) {
            let t = threshold(p);
            for m in [t.saturating_sub(1), t, t.saturating_add(1)] {
                if m < 1 << 53 {
                    assert_eq!(m as f64 * scale < p, m < t, "p {p}, m {m}");
                }
            }
        }
    }

    #[test]
    fn channel_order_matches_the_partial_permutation() {
        for (rows, cols) in [(1, 1), (3, 7), (4, 128), (64, 21)] {
            let il = BlockInterleaver::new(rows, cols);
            let lens = [0, 1, cols - 1, cols, cols + 1, il.len() - 1, il.len()];
            for len in lens.into_iter().filter(|&l| l <= il.len()) {
                let order: Vec<usize> = il.channel_order(len).map(|(r, c)| r * cols + c).collect();
                let expect: Vec<usize> = (0..il.len())
                    .map(|o| (o % rows) * cols + o / rows)
                    .filter(|&src| src < len)
                    .collect();
                assert_eq!(order, expect, "{rows}x{cols} len {len}");
            }
        }
    }

    #[test]
    fn stationary_math() {
        let ge = GilbertElliott::bursty();
        let pb = ge.stationary_bad();
        assert!((pb - 0.001 / 0.101).abs() < 1e-12);
        assert!(ge.average_ber() > ge.ber_good);
        assert!(ge.average_ber() < ge.ber_bad);
    }

    #[test]
    fn empirical_ber_matches_average() {
        let ge = GilbertElliott::bursty();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut state = GeState::Good;
        let mut flips = 0usize;
        let bits_per_word = 1000;
        let words = 2_000;
        for _ in 0..words {
            let mut w = BitVec::zeros(bits_per_word);
            flips += ge.transmit(&mut rng, &mut state, &mut w);
        }
        let rate = flips as f64 / (bits_per_word * words) as f64;
        let expect = ge.average_ber();
        assert!(
            (rate - expect).abs() / expect < 0.2,
            "empirical {rate} vs stationary {expect}"
        );
    }

    #[test]
    fn errors_are_bursty_not_independent() {
        // adjacent-flip frequency must far exceed the independent-BSC
        // expectation at the same average BER
        let ge = GilbertElliott::bursty();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut state = GeState::Good;
        let mut adjacent = 0usize;
        let mut total = 0usize;
        for _ in 0..4_000 {
            let mut w = BitVec::zeros(500);
            ge.transmit(&mut rng, &mut state, &mut w);
            total += w.count_ones();
            for i in 1..w.len() {
                if w.get(i) && w.get(i - 1) {
                    adjacent += 1;
                }
            }
        }
        let p = ge.average_ber();
        let independent_expectation = 4_000.0 * 499.0 * p * p;
        assert!(
            adjacent as f64 > independent_expectation * 10.0,
            "adjacent {adjacent} vs independent {independent_expectation} (total flips {total})"
        );
    }

    #[test]
    fn interleaver_round_trips() {
        let il = BlockInterleaver::new(4, 7);
        let mut v = BitVec::zeros(28);
        for i in [0, 3, 7, 13, 20, 27] {
            v.set(i, true);
        }
        assert_eq!(il.deinterleave(&il.interleave(&v)), v);
    }

    #[test]
    fn interleaver_spreads_bursts() {
        // an 8-bit channel burst across a 8×16 interleave touches every
        // row at most once
        let il = BlockInterleaver::new(8, 16);
        let mut channel_view = BitVec::zeros(il.len());
        for i in 40..48 {
            channel_view.set(i, true); // the burst, in channel order
        }
        let logical = il.deinterleave(&channel_view);
        for r in 0..8 {
            let row = logical.slice(r * 16..(r + 1) * 16);
            assert!(row.count_ones() <= 1, "row {r} got {}", row.count_ones());
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn interleaver_length_checked() {
        BlockInterleaver::new(2, 3).interleave(&BitVec::zeros(5));
    }
}
