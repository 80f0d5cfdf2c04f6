//! Classical coding-theory bounds over binary linear `[n, k, d]`
//! codes, with human-readable refutation certificates.
//!
//! The engine answers, in microseconds and without any solver, the
//! question CEGIS otherwise answers with a full SAT refutation: *can a
//! binary linear code with these parameters exist at all?* Upper
//! bounds (Singleton, sphere-packing, Plotkin, Griesmer) exclude
//! parameter points; the Gilbert–Varshamov bound guarantees points.
//! Between the two lies the `NeedsSearch` band where synthesis is
//! genuinely needed.
//!
//! Every exclusion carries a [`BoundCertificate`]: the bound's name
//! plus the concrete arithmetic that fails, so a `NoSolution` verdict
//! can be *blamed* on a one-line inequality instead of an opaque UNSAT
//! answer. Points not excluded directly are retried through the
//! shortening (`[n,k,d] ⇒ [n−1,k−1,d]`) and residual-code
//! (`[n,k,d] ⇒ [n−d,k−1,⌈d/2⌉]`) maps, which refute e.g. `[16,8,6]`
//! that every direct bound admits.
//!
//! All codes here are *binary linear*; since any linear code is
//! equivalent (up to a distance-preserving column permutation) to one
//! in systematic form `G = (I | P)`, the verdicts transfer exactly to
//! the synthesizer's search space.

use std::fmt;

/// How deep the shortening/residual refinement recurses. Each level
/// may map the point through both derivation rules; 4 levels decide
/// every small-grid point the differential suite exercises while
/// keeping certificates readable.
const REFINE_DEPTH: usize = 4;

/// A one-line arithmetic refutation of an `[n, k, d]` parameter point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundCertificate {
    /// Stable machine-readable bound name: `singleton`,
    /// `sphere-packing`, `plotkin`, `griesmer`, `length`,
    /// `shortening`, or `residual`.
    pub bound: &'static str,
    /// The refuted parameter point.
    pub n: usize,
    /// Code dimension.
    pub k: usize,
    /// Required minimum distance.
    pub d: usize,
    /// The failing arithmetic, fully evaluated.
    pub detail: String,
}

impl fmt::Display for BoundCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no binary linear [{}, {}, {}] code exists — {} bound: {}",
            self.n, self.k, self.d, self.bound, self.detail
        )
    }
}

/// Three-valued static verdict on an `[n, k, d]` requirement (`d` is a
/// *minimum*: the spec asks for distance at least `d`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PointVerdict {
    /// No such code exists; the certificate says why.
    Infeasible(BoundCertificate),
    /// The Gilbert–Varshamov bound guarantees such a code exists —
    /// synthesis is a search, not a question.
    TriviallyFeasible,
    /// Existence is open to the bounds: the best achievable distance
    /// at `[n, k]` lies somewhere in `d_lo..=d_hi`.
    NeedsSearch {
        /// Largest distance GV guarantees achievable.
        d_lo: usize,
        /// Largest distance the upper-bound battery admits.
        d_hi: usize,
    },
}

impl PointVerdict {
    /// Stable machine-readable verdict name.
    pub fn kind(&self) -> &'static str {
        match self {
            PointVerdict::Infeasible(_) => "infeasible",
            PointVerdict::TriviallyFeasible => "trivially-feasible",
            PointVerdict::NeedsSearch { .. } => "needs-search",
        }
    }
}

/// The volume `Σ_{i=0}^{t} C(n, i)` of a radius-`t` Hamming ball in
/// `{0,1}^n`: exact while it fits in a `u128`, otherwise its base-2
/// logarithm, correct to within [`log2_slack`]`(n)`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Volume {
    Exact(u128),
    Log2(f64),
}

fn ball(n: usize, t: usize) -> Volume {
    let t = t.min(n);
    let (mut term, mut sum) = (1u128, 1u128); // C(n, 0)
    for i in 0..t {
        // C(n, i+1) = C(n, i) · (n − i) / (i + 1); dividing by the gcd
        // first keeps every product within the result, so an overflow
        // means the result itself exceeds u128
        let g = gcd(term, (i + 1) as u128);
        let next = (term / g)
            .checked_mul((n - i) as u128 / ((i + 1) as u128 / g))
            .and_then(|next| Some((next, sum.checked_add(next)?)));
        match next {
            Some((next, total)) => (term, sum) = (next, total),
            None => return Volume::Log2(log2_ball(n, t)),
        }
    }
    Volume::Exact(sum)
}

/// `2^e`, or `None` past `u128`.
fn pow2(e: usize) -> Option<u128> {
    u32::try_from(e).ok().and_then(|e| 1u128.checked_shl(e))
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `log2 Σ_{i=0}^{t} C(n, i)`, summed term by term in the log domain.
fn log2_ball(n: usize, t: usize) -> f64 {
    let (mut term, mut sum) = (0.0f64, 0.0f64); // log2 C(n, 0)
    for i in 0..t {
        term += ((n - i) as f64).log2() - ((i + 1) as f64).log2();
        // log2(2^sum + 2^term)
        let (hi, lo) = if sum >= term {
            (sum, term)
        } else {
            (term, sum)
        };
        sum = hi + (lo - hi).exp2().ln_1p() / std::f64::consts::LN_2;
    }
    sum
}

/// A bound, in bits, on the rounding error [`log2_ball`] accumulates
/// over its at most `n` steps: each rounds running values of up to `n`
/// bits at f64 precision (≈ 2.2e-16·n) and adds two logarithms good to
/// ≈ 1.4e-14. The bound exceeds that total by more than 20×.
fn log2_slack(n: usize) -> f64 {
    let n = n as f64;
    1e-9 + 1e-14 * n * n
}

impl Volume {
    /// `true` only when the volume is certainly below `2^e`.
    fn certainly_below_pow2(self, n: usize, e: usize) -> bool {
        match self {
            Volume::Exact(v) => pow2(e).is_none_or(|p| v < p),
            Volume::Log2(l) => l < e as f64 - log2_slack(n),
        }
    }

    /// `true` only when the volume is certainly above `2^e`.
    fn certainly_above_pow2(self, n: usize, e: usize) -> bool {
        match self {
            Volume::Exact(v) => pow2(e).is_some_and(|p| v > p),
            Volume::Log2(l) => l > e as f64 + log2_slack(n),
        }
    }
}

/// `2^e` as a number when it fits in a `u128`, else as a power.
fn pow2_text(e: usize) -> String {
    pow2(e).map_or_else(|| format!("2^{e}"), |p| p.to_string())
}

/// The largest `d` in `1..=hi` for which `ok(d)` holds, by bisection.
/// `ok(1)` must hold, and the search trusts `ok` to stay false above
/// its last `true`: every bound here is monotone in `d`.
fn largest(hi: usize, ok: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (1, hi.max(1));
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Direct (non-recursive) refutation of `[n, k, d]`, or `None` if
/// every direct bound admits the point.
fn refute_direct(n: usize, k: usize, d: usize) -> Option<BoundCertificate> {
    let cert = |bound, detail| {
        Some(BoundCertificate {
            bound,
            n,
            k,
            d,
            detail,
        })
    };
    if d <= 1 {
        return None; // any injective encoding has distance ≥ 1
    }
    if k == 0 {
        return None; // the empty code vacuously has any distance
    }
    // a codeword of weight ≥ d needs d coordinates
    if d > n {
        return cert(
            "length",
            format!("minimum distance d = {d} exceeds the code length n = {n}"),
        );
    }
    if k == 1 {
        return None; // repetition code: [n, 1, n] exists, and d ≤ n
    }
    // Singleton: d ≤ n − k + 1
    let singleton = n - k + 1;
    if d > singleton {
        return cert(
            "singleton",
            format!("d <= n - k + 1 = {n} - {k} + 1 = {singleton}, but the spec requires d = {d}"),
        );
    }
    // Sphere-packing (Hamming): Σ_{i=0}^{t} C(n, i) ≤ 2^{n−k}
    let t = (d - 1) / 2;
    let vol = ball(n, t);
    if vol.certainly_above_pow2(n, n - k) {
        let vol = match vol {
            Volume::Exact(v) => format!("= {v}"),
            Volume::Log2(l) => format!("~ 2^{l:.3}"),
        };
        let cosets = pow2_text(n - k);
        return cert(
            "sphere-packing",
            format!(
                "2^k radius-{t} balls cannot pack {{0,1}}^{n}: \
                 sum(C({n}, i), i = 0..{t}) {vol} > 2^({n} - {k}) = {cosets}"
            ),
        );
    }
    // Plotkin: for even d with 2d > n, M ≤ 2⌊d / (2d − n)⌋; odd d maps
    // through A(n, d) = A(n+1, d+1)
    let (pn, pd) = if d % 2 == 1 { (n + 1, d + 1) } else { (n, d) };
    if 2 * pd > pn {
        let cap = 2 * (pd / (2 * pd - pn)) as u128;
        if pow2(k).is_none_or(|m| m > cap) {
            let m = pow2_text(k);
            return cert(
                "plotkin",
                format!(
                    "A({pn}, {pd}) <= 2 * floor({pd} / (2*{pd} - {pn})) = {cap}, \
                     but a dimension-{k} code has 2^{k} = {m} codewords"
                ),
            );
        }
    }
    // Griesmer: n ≥ Σ_{i=0}^{k−1} ⌈d / 2^i⌉. The terms are 1 from the
    // first i with 2^i ≥ d on, so that tail is summed as its length
    let term = |i: usize| d.div_ceil(1 << i.min(63));
    let ones_from = (0..k).find(|&i| term(i) == 1).unwrap_or(k);
    let g = (0..ones_from).map(term).sum::<usize>() + (k - ones_from);
    if n < g {
        let mut terms: Vec<String> = (0..ones_from).map(|i| term(i).to_string()).collect();
        if ones_from < k {
            terms.push(format!("{}*1", k - ones_from));
        }
        return cert(
            "griesmer",
            format!(
                "n >= sum(ceil(d / 2^i), i = 0..{}) = {} = {g}, but n = {n}",
                k - 1,
                terms.join(" + ")
            ),
        );
    }
    None
}

/// Refutation of `[n, k, d]` including `depth` levels of
/// shortening/residual-code refinement.
fn refute_depth(n: usize, k: usize, d: usize, depth: usize) -> Option<BoundCertificate> {
    if let Some(c) = refute_direct(n, k, d) {
        return Some(c);
    }
    if depth == 0 || k < 2 || d < 2 {
        return None;
    }
    // residual code: [n, k, d] ⇒ [n − d, k − 1, ⌈d/2⌉]
    if n > d {
        let (rn, rk, rd) = (n - d, k - 1, d.div_ceil(2));
        if let Some(inner) = refute_depth(rn, rk, rd, depth - 1) {
            return Some(BoundCertificate {
                bound: "residual",
                n,
                k,
                d,
                detail: format!(
                    "a [{n}, {k}, {d}] code would yield a residual [{rn}, {rk}, {rd}] code, \
                     which the {} bound refutes ({})",
                    inner.bound, inner.detail
                ),
            });
        }
    }
    // shortening: [n, k, d] ⇒ [n − 1, k − 1, d]
    if n > 1 {
        if let Some(inner) = refute_depth(n - 1, k - 1, d, depth - 1) {
            return Some(BoundCertificate {
                bound: "shortening",
                n,
                k,
                d,
                detail: format!(
                    "shortening a [{n}, {k}, {d}] code would yield a [{}, {}, {d}] code, \
                     which the {} bound refutes ({})",
                    n - 1,
                    k - 1,
                    inner.bound,
                    inner.detail
                ),
            });
        }
    }
    None
}

/// Why no binary linear `[n, k, d]` code can exist, or `None` when the
/// bound battery (with refinement) admits the point.
pub fn refute(n: usize, k: usize, d: usize) -> Option<BoundCertificate> {
    refute_depth(n, k, d, REFINE_DEPTH)
}

/// Largest `d` the upper-bound battery admits for an `[n, k]` code
/// (`k ≥ 1`): the analyzer's `d_hi`. Every achievable distance is
/// `≤` this value.
pub fn distance_upper_bound(n: usize, k: usize) -> usize {
    if k == 0 || n == 0 {
        return 0;
    }
    // sound even if the battery were not monotone: the bisection only
    // settles on `d` after refuting `d + 1` (or `d = n`), and no code
    // reaches a distance above one that none reaches
    largest(n, |d| refute(n, k, d).is_none())
}

/// Gilbert–Varshamov: `true` when a binary linear `[n, k, d]` code is
/// *guaranteed* to exist, because `Σ_{i=0}^{d−2} C(n−1, i) < 2^{n−k}`
/// lets a parity-check matrix be grown column by column with every
/// `d − 1` columns linearly independent.
pub fn gv_guarantees(n: usize, k: usize, d: usize) -> bool {
    if k > n {
        return false;
    }
    if d <= 1 {
        return true;
    }
    if d > n {
        return false;
    }
    if k == n {
        return d == 1;
    }
    ball(n - 1, d - 2).certainly_below_pow2(n - 1, n - k)
}

/// Largest `d` the Gilbert–Varshamov bound guarantees achievable at
/// `[n, k]`: the analyzer's `d_lo`.
pub fn distance_lower_bound(n: usize, k: usize) -> usize {
    if k == 0 || k > n {
        return 0;
    }
    largest(n, |d| gv_guarantees(n, k, d))
}

/// Static verdict for the requirement "an `[n, k]` code with distance
/// at least `d`".
pub fn analyze_point(n: usize, k: usize, d: usize) -> PointVerdict {
    if let Some(cert) = refute(n, k, d) {
        return PointVerdict::Infeasible(cert);
    }
    let d_lo = distance_lower_bound(n, k);
    if d <= d_lo {
        return PointVerdict::TriviallyFeasible;
    }
    PointVerdict::NeedsSearch {
        d_lo,
        d_hi: distance_upper_bound(n, k),
    }
}

/// Smallest check length `r ∈ lo..=hi` for which `[k + r, k, d]` is
/// not excluded by the bounds, or `None` when even `hi` is excluded.
/// CEGIS uses this to clamp minimize-check iteration: bounds below the
/// returned `r` cannot succeed, so the final SAT refutation of the
/// optimization loop is skipped.
pub fn min_feasible_check(k: usize, d: usize, lo: usize, hi: usize) -> Option<usize> {
    (lo..=hi).find(|&r| refute(k + r, k, d).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomials_and_balls() {
        assert_eq!(ball(7, 0), Volume::Exact(1));
        assert_eq!(ball(7, 1), Volume::Exact(8));
        assert_eq!(ball(7, 3), Volume::Exact(1 + 7 + 21 + 35));
        assert_eq!(ball(3, 7), Volume::Exact(8));
        // C(128, 4) = 10,668,000
        assert_eq!(
            ball(128, 4),
            Volume::Exact(1 + 128 + 8_128 + 341_376 + 10_668_000)
        );
        // 2^129 − 1 = Σ_{i<129} C(129, i) is past u128: log domain
        match ball(129, 128) {
            Volume::Log2(l) => assert!((l - 129.0).abs() < 1e-9, "{l}"),
            v => panic!("{v:?} fits in u128"),
        }
    }

    #[test]
    fn gv_is_exact_past_saturation() {
        // exact d_lo at k = 4, computed offline with big integers. The
        // saturating binomials of old under-counted the ball past
        // n ≈ 120 and claimed [130, 4, 60]: Σ_{i≤58} C(129, i) ≥ 2^126
        for (n, d_lo) in [
            (124, 56),
            (128, 58),
            (130, 59),
            (134, 61),
            (200, 92),
            (404, 191),
        ] {
            assert_eq!(distance_lower_bound(n, 4), d_lo, "[{n}, 4]");
        }
        assert!(!gv_guarantees(130, 4, 60));
        assert_eq!(
            analyze_point(130, 4, 60),
            PointVerdict::NeedsSearch { d_lo: 59, d_hi: 68 }
        );
    }

    #[test]
    fn singleton_refutes_8_4_6() {
        // the acceptance-criterion example: a Singleton-violating (8,4)
        // code with d = 6
        let c = refute(8, 4, 6).expect("must be refuted");
        assert_eq!(c.bound, "singleton");
        assert!(c.detail.contains("8 - 4 + 1 = 5"), "{}", c.detail);
        assert!(c.to_string().contains("[8, 4, 6]"));
    }

    #[test]
    fn hamming_points_are_admitted() {
        // perfect codes sit exactly on the sphere-packing bound
        assert!(refute(7, 4, 3).is_none());
        assert!(refute(127, 120, 3).is_none());
        // 802.3df (128,120) SEC-DED shape
        assert!(refute(128, 120, 4).is_none());
    }

    #[test]
    fn sphere_packing_refutes_one_check_short() {
        // [6, 4, 3]: 16 radius-1 balls of volume 7 cannot fit in 2^6
        let c = refute(6, 4, 3).expect("must be refuted");
        assert_eq!(c.bound, "sphere-packing");
    }

    #[test]
    fn residual_refinement_refutes_16_8_6() {
        // every direct bound admits [16, 8, 6]; the residual map to
        // [10, 7, 3] (sphere-packing-refuted) kills it
        assert!(refute_direct(16, 8, 6).is_none());
        let c = refute(16, 8, 6).expect("refined refutation");
        assert_eq!(c.bound, "residual");
        assert!(c.detail.contains("[10, 7, 3]"), "{}", c.detail);
    }

    #[test]
    fn plotkin_refutes_wide_distance() {
        // [10, 4, 6]: 2d > n and 2 * floor(6/2) = 6 < 16 codewords
        let c = refute(10, 4, 6).expect("must be refuted");
        assert_eq!(c.bound, "plotkin");
    }

    #[test]
    fn griesmer_refutes_table1_tail() {
        // k = 4, d = 9 needs n ≥ 9 + 5 + 3 + 2 = 19 > 18
        let c = refute(18, 4, 9).expect("must be refuted");
        assert_eq!(c.bound, "griesmer");
    }

    #[test]
    fn known_optimal_distances_bracketed() {
        // d_lo ≤ best-known d ≤ d_hi for classic [n, k] points
        for (n, k, best) in [
            (7usize, 4usize, 3usize), // Hamming
            (8, 4, 4),                // extended Hamming
            (11, 4, 5),
            (15, 11, 3),
            (23, 12, 7), // Golay
            (128, 120, 4),
        ] {
            assert!(
                distance_lower_bound(n, k) <= best,
                "GV above optimum at [{n},{k}]"
            );
            assert!(
                distance_upper_bound(n, k) >= best,
                "upper bound below optimum at [{n},{k}]"
            );
        }
    }

    #[test]
    fn gv_guarantees_are_conservative() {
        // GV guarantees parity and Hamming points — Σ C(6, i≤1) = 7
        // < 2^3, so even the perfect [7, 4, 3] code is GV-guaranteed
        assert!(gv_guarantees(5, 4, 2));
        assert!(gv_guarantees(7, 4, 3));
        // but one more distance is out of its reach
        assert!(!gv_guarantees(7, 4, 4));
        assert!(!gv_guarantees(10, 5, 4));
        // full-rate codes only reach d = 1
        assert!(gv_guarantees(4, 4, 1));
        assert!(!gv_guarantees(4, 4, 2));
    }

    #[test]
    fn verdicts_partition_the_axis() {
        // at [7, 4]: GV reaches the optimum, so d ≤ 3 is trivially
        // feasible and d = 4 is refuted — no search band at all
        assert_eq!(analyze_point(7, 4, 2), PointVerdict::TriviallyFeasible);
        assert_eq!(analyze_point(7, 4, 3), PointVerdict::TriviallyFeasible);
        assert!(matches!(
            analyze_point(7, 4, 4),
            PointVerdict::Infeasible(_)
        ));
        // at [10, 5]: GV only reaches d = 3, the bounds admit d = 4 —
        // that gap is where CEGIS is genuinely needed
        assert!(matches!(
            analyze_point(10, 5, 4),
            PointVerdict::NeedsSearch { d_lo: 3, d_hi: 4 }
        ));
    }

    #[test]
    fn bench_grid_verdict_counts() {
        // `analyze_bench`'s grid: k ∈ {4, 8}, r ∈ 1..=6, d ∈ 2..=6
        let (mut infeasible, mut trivial, mut open) = (0, 0, 0);
        for k in [4, 8] {
            for r in 1..=6 {
                for d in 2..=6 {
                    match analyze_point(k + r, k, d) {
                        PointVerdict::Infeasible(_) => infeasible += 1,
                        PointVerdict::TriviallyFeasible => trivial += 1,
                        PointVerdict::NeedsSearch { .. } => open += 1,
                    }
                }
            }
        }
        assert_eq!((infeasible, trivial, open), (35, 20, 5));
        // the bench's gate: at least half the grid decided statically
        assert!(2 * (infeasible + trivial) >= infeasible + trivial + open);
    }

    #[test]
    fn repetition_and_degenerate_points() {
        assert!(refute(5, 1, 5).is_none());
        assert_eq!(refute(5, 1, 6).expect("d > n").bound, "length");
        assert_eq!(distance_upper_bound(5, 1), 5);
        assert_eq!(analyze_point(5, 1, 5), PointVerdict::TriviallyFeasible);
        assert_eq!(analyze_point(9, 3, 1), PointVerdict::TriviallyFeasible);
    }

    #[test]
    fn min_feasible_check_matches_hamming_floor() {
        // md 3 at k = 4 needs ≥ 3 check bits (sphere-packing)
        assert_eq!(min_feasible_check(4, 3, 1, 14), Some(3));
        // md 2 is one parity bit
        assert_eq!(min_feasible_check(16, 2, 1, 14), Some(1));
        // d = 9 at k = 4 needs r ≥ 15 — outside the default window
        assert_eq!(min_feasible_check(4, 9, 1, 14), None);
    }
}
