//! The binary symmetric channel.

use fec_gf2::BitVec;
use rand::Rng;

/// Gaps below this are read from [`Bsc`]'s threshold table; longer
/// ones evaluate the formula.
const TABLE_GAPS: usize = 64;
/// Bits of the uniform draw, as `random::<f64>` takes them.
const DRAW_BITS: u32 = 53;
/// Top draw bits that index the start table.
const START_BITS: u32 = 8;

/// A binary symmetric channel: every transmitted bit flips
/// independently with probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct Bsc {
    p: f64,
    /// Pre-computed `1 / ln(1 - p)` for geometric skip sampling.
    inv_log_q: f64,
    /// `above[g]`: the smallest draw whose gap exceeds `g`, or `2^53`
    /// when none does.
    above: [u64; TABLE_GAPS],
    /// `start[b]`: the gap of the smallest draw whose top
    /// [`START_BITS`] bits are `b`, capped at [`TABLE_GAPS`].
    start: [u8; 1 << START_BITS],
}

impl Bsc {
    /// Creates a channel with bit-error probability `p ∈ [0, 1)`.
    ///
    /// Builds the gap tables by bisection, 64 × 53 evaluations of the
    /// gap formula (tens of µs): make one channel per worker, not one
    /// per word.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f64) -> Bsc {
        assert!(
            (0.0..1.0).contains(&p),
            "bit-error probability {p} out of range"
        );
        let mut bsc = Bsc {
            p,
            inv_log_q: if p > 0.0 { 1.0 / (1.0 - p).ln() } else { 0.0 },
            above: [1 << DRAW_BITS; TABLE_GAPS],
            start: [0; 1 << START_BITS],
        };
        let mut lo = 0;
        for g in 0..TABLE_GAPS {
            // the gap is monotone in the draw, so each threshold is at
            // or above the previous one
            let mut hi = 1u64 << DRAW_BITS;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if bsc.gap_of(mid) > g {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            bsc.above[g] = lo;
        }
        for (b, start) in bsc.start.iter_mut().enumerate() {
            let first = (b as u64) << (DRAW_BITS - START_BITS);
            *start = bsc.above.partition_point(|&t| t <= first) as u8;
        }
        bsc
    }

    /// The channel's bit-error probability.
    pub fn bit_error_rate(&self) -> f64 {
        self.p
    }

    /// Transmits `word`, flipping bits in place. Returns the number of
    /// flips.
    ///
    /// Uses geometric gap sampling: the distance to the next flipped
    /// bit is `⌊ln(1 − r)/ln(1 − p)⌋` for a uniform `r = x·2⁻⁵³`, so
    /// the cost is O(flips), not O(bits) — this is what makes the
    /// 10-million-word runs cheap.
    ///
    /// The gap is read from a table, not computed. The formula is
    /// monotone in the 53-bit draw `x`: `1 − x·2⁻⁵³` is exact in
    /// `f64` and falls as `x` grows, `ln` keeps that order, and the
    /// rounded product with the negative constant `1/ln(1 − p)` and
    /// the truncation reverse and keep it. So for each `g` the gap
    /// exceeds `g` from one threshold draw on, and [`Bsc::new`] finds
    /// the thresholds of `g < 64` by bisection on the formula itself.
    /// A gap is then a walk up the thresholds with integer compares,
    /// started at the gap of the first draw of `x`'s 8-bit bucket;
    /// only gaps of 64 and more evaluate `ln`. The walk returns the
    /// formula's gap for every draw, so a seed flips the same bits as
    /// evaluating the formula each time. This rests on the platform's
    /// `ln` being monotone; the tests check the table against the
    /// formula around every threshold and on a million random draws.
    pub fn transmit<R: Rng + ?Sized>(&self, rng: &mut R, word: &mut BitVec) -> usize {
        if self.p == 0.0 {
            return 0;
        }
        let mut flips = 0;
        let mut i = self.next_gap(rng);
        while i < word.len() {
            word.flip(i);
            flips += 1;
            i += 1 + self.next_gap(rng);
        }
        flips
    }

    /// Transmits the low `bits` of a packed word, flipping in place.
    pub fn transmit_u64<R: Rng + ?Sized>(&self, rng: &mut R, word: &mut u64, bits: usize) -> usize {
        debug_assert!(bits <= 64);
        if self.p == 0.0 {
            return 0;
        }
        let mut flips = 0;
        let mut i = self.next_gap(rng);
        while i < bits {
            *word ^= 1 << i;
            flips += 1;
            i += 1 + self.next_gap(rng);
        }
        flips
    }

    /// One geometric gap from the top 53 bits of one 64-bit draw.
    fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.gap_at(rng.next_u64() >> (64 - DRAW_BITS))
    }

    /// [`Bsc::gap_of`] through the tables.
    fn gap_at(&self, x: u64) -> usize {
        let mut g = usize::from(self.start[(x >> (DRAW_BITS - START_BITS)) as usize]);
        while g < TABLE_GAPS && x >= self.above[g] {
            g += 1;
        }
        if g < TABLE_GAPS {
            g
        } else {
            self.gap_of(x)
        }
    }

    /// The gap formula for the 53-bit draw `x`: `U = 1 − x·2⁻⁵³ ∈
    /// (0, 1]`, so `ln U` is finite, and `⌊ln U / ln(1 − p)⌋ ≥ 0`.
    fn gap_of(&self, x: u64) -> usize {
        let u = 1.0 - x as f64 * (1.0 / (1u64 << DRAW_BITS) as f64);
        (u.ln() * self.inv_log_q) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// The gap as the sampler computed it before the tables: one
    /// uniform `r = random::<f64>()`, then `⌊ln(1 − r)/ln(1 − p)⌋`
    /// with the division taken as a product with the reciprocal.
    fn formula_gap(p: f64, r: f64) -> usize {
        ((1.0 - r).ln() * (1.0 / (1.0 - p).ln())) as usize
    }

    const GAP_PROBABILITIES: [f64; 6] = [0.5, 0.25, 0.1, 0.01, 1e-3, 1e-6];

    #[test]
    fn table_gaps_equal_the_formula_at_every_threshold() {
        let scale = 1.0 / (1u64 << DRAW_BITS) as f64;
        for p in GAP_PROBABILITIES {
            let bsc = Bsc::new(p);
            let mut draws = vec![0, (1 << DRAW_BITS) - 1];
            for &t in &bsc.above {
                draws.extend((t.saturating_sub(2)..t + 3).filter(|&x| x < 1 << DRAW_BITS));
            }
            for x in draws {
                assert_eq!(
                    bsc.gap_at(x),
                    formula_gap(p, x as f64 * scale),
                    "p {p}, draw {x}"
                );
            }
            // a threshold is where the gap first exceeds its index
            for (g, &t) in bsc.above.iter().enumerate() {
                if t < 1 << DRAW_BITS {
                    assert!(bsc.gap_at(t) > g && (t == 0 || bsc.gap_at(t - 1) <= g));
                }
            }
        }
    }

    #[test]
    fn table_gaps_equal_the_formula_on_random_draws() {
        for p in GAP_PROBABILITIES {
            let bsc = Bsc::new(p);
            let mut table_rng = SmallRng::seed_from_u64(0xB5C);
            let mut formula_rng = SmallRng::seed_from_u64(0xB5C);
            let mut long = 0;
            for _ in 0..1_000_000 {
                let gap = bsc.next_gap(&mut table_rng);
                assert_eq!(gap, formula_gap(p, formula_rng.random::<f64>()), "p {p}");
                long += usize::from(gap >= TABLE_GAPS);
            }
            // p ≤ 0.1 draws gaps past the table; at 0.5 none exceed 53
            assert_eq!(long > 0, p <= 0.1, "p {p}: {long} gaps of 64 or more");
        }
    }

    #[test]
    fn zero_probability_never_flips() {
        let bsc = Bsc::new(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut w = BitVec::zeros(128);
        assert_eq!(bsc.transmit(&mut rng, &mut w), 0);
        assert!(w.is_zero());
    }

    #[test]
    fn flip_count_matches_reported() {
        let bsc = Bsc::new(0.3);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let mut w = BitVec::zeros(200);
            let flips = bsc.transmit(&mut rng, &mut w);
            assert_eq!(w.count_ones(), flips);
        }
    }

    #[test]
    fn empirical_rate_close_to_p() {
        let p = 0.1;
        let bsc = Bsc::new(p);
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 20_000;
        let bits = 64;
        let mut total = 0usize;
        for _ in 0..trials {
            let mut w = BitVec::zeros(bits);
            total += bsc.transmit(&mut rng, &mut w);
        }
        let rate = total as f64 / (trials * bits) as f64;
        assert!(
            (rate - p).abs() < 0.01,
            "empirical rate {rate} too far from {p}"
        );
    }

    #[test]
    fn u64_variant_matches_rate() {
        let p = 0.25;
        let bsc = Bsc::new(p);
        let mut rng = SmallRng::seed_from_u64(9);
        let trials = 20_000;
        let mut total = 0usize;
        for _ in 0..trials {
            let mut w = 0u64;
            total += bsc.transmit_u64(&mut rng, &mut w, 32);
            assert_eq!(w.count_ones() as usize, w.count_ones() as usize);
            assert_eq!(w >> 32, 0, "flips outside the advertised width");
        }
        let rate = total as f64 / (trials * 32) as f64;
        assert!((rate - p).abs() < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_p_of_one() {
        Bsc::new(1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let bsc = Bsc::new(0.1);
        let run = || {
            let mut rng = SmallRng::seed_from_u64(1234);
            let mut w = BitVec::zeros(512);
            bsc.transmit(&mut rng, &mut w);
            w
        };
        assert_eq!(run(), run());
    }
}
