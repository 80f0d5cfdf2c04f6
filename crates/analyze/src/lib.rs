//! fec-analyze: static spec analysis ahead of any solver.
//!
//! This crate owns everything about a specification that can be known
//! *without* running CEGIS:
//!
//! - [`spec`] — the Fig. 3 property language (syntax, parser,
//!   typechecker, concrete evaluator), moved here from `fec-synth` so
//!   the analyzer and the synthesizer share one definition of meaning.
//! - [`canon`] — the canonicalizer, the one front end a spec's meaning
//!   goes through: constant folding, comparison normalization,
//!   interval narrowing, dead-conjunct and contradiction lints, and a
//!   stable `fecspec-v1:` content hash, which `fecsynth analyze`
//!   prints beside the canonical form.
//! - [`shape`] — structural extraction of per-generator constraints
//!   from the canonical form ([`ProblemShape::from_prop`]), shared
//!   with the synthesizer: `fecsynth analyze` and `fecsynth synth`
//!   read every spec, and reject every contradictory one, alike.
//! - [`bounds`] — the coding-bounds feasibility engine: Singleton,
//!   sphere-packing, Plotkin, and Griesmer exclusions (refined through
//!   shortening/residual maps) with arithmetic certificates, plus the
//!   Gilbert–Varshamov existence guarantee.
//!
//! The top-level [`analyze`] runs the whole pipeline and returns a
//! per-generator three-valued verdict: `Infeasible` (with a
//! [`BoundCertificate`] naming the violated inequality),
//! `TriviallyFeasible` (GV guarantees a solution exists), or
//! `NeedsSearch` (with the bracket `d_lo..=d_hi` of achievable
//! distances) — exactly the contract `fecsynth analyze`, the CEGIS
//! pre-solve gate, and the benchmark sweep pruner consume.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod canon;
pub mod shape;
pub mod spec;

pub use bounds::{analyze_point, BoundCertificate, PointVerdict};
pub use canon::{canonical_hash, canonicalize, CanonReport, Lint, LintClass};
pub use shape::{GenShape, Objective, ProblemShape, SpecError};

use spec::Prop;

/// The static verdict for one generator of a spec.
#[derive(Clone, Debug)]
pub struct GenVerdict {
    /// Generator index.
    pub gen: usize,
    /// Code length at the *widest* admissible check length
    /// (`len_d + check_hi`): the most generous point, so `Infeasible`
    /// here is `Infeasible` everywhere in the window.
    pub n: usize,
    /// Data length (`len_d`).
    pub k: usize,
    /// Required minimum distance.
    pub d: usize,
    /// The three-valued bounds verdict.
    pub verdict: PointVerdict,
}

/// The full static-analysis result for a spec.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Canonical normal form, lints, and content hash.
    pub canon: CanonReport,
    /// The structural constraints the verdicts were derived from.
    pub shape: ProblemShape,
    /// One verdict per generator.
    pub gens: Vec<GenVerdict>,
}

impl Analysis {
    /// The first infeasibility certificate, if any generator is
    /// statically refuted.
    pub fn certificate(&self) -> Option<&BoundCertificate> {
        self.gens.iter().find_map(|g| match &g.verdict {
            PointVerdict::Infeasible(c) => Some(c),
            _ => None,
        })
    }

    /// Overall verdict kind: `infeasible` if any generator is refuted,
    /// `trivially-feasible` if every generator is guaranteed, else
    /// `needs-search`.
    pub fn overall_kind(&self) -> &'static str {
        if self.certificate().is_some() {
            "infeasible"
        } else if self
            .gens
            .iter()
            .all(|g| matches!(g.verdict, PointVerdict::TriviallyFeasible))
        {
            "trivially-feasible"
        } else {
            "needs-search"
        }
    }
}

/// Runs the full static pipeline on a parsed property: canonicalize,
/// extract the problem shape from the canonical form (the shape
/// [`ProblemShape::from_prop`] gives synthesis), and run the bounds
/// engine per generator.
///
/// `default_max_check` bounds the check-length window when the property
/// leaves it open (synthesis uses [`shape::DEFAULT_MAX_CHECK`]). Verdicts are
/// computed at `n = len_d + check_hi` — the widest point — so an
/// `Infeasible` verdict covers the whole window. `TriviallyFeasible`
/// is only reported for *pure* `[n, k, d]` shapes (no pinned cells, no
/// ones-count bounds): Gilbert–Varshamov guarantees an unconstrained
/// code exists, not one satisfying extra side conditions, so impure
/// shapes are downgraded to `NeedsSearch`.
pub fn analyze(prop: &Prop, default_max_check: usize) -> Result<Analysis, SpecError> {
    let canon = canonicalize(prop);
    let shape = ProblemShape::from_canon(&canon, default_max_check)?;
    let gens = shape
        .gens
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let (k, d) = (g.data_len, g.min_distance);
            let n = k + g.check_hi;
            let mut verdict = analyze_point(n, k, d);
            if verdict == PointVerdict::TriviallyFeasible && !g.is_pure_point() {
                // GV only promises an unconstrained code
                verdict = PointVerdict::NeedsSearch {
                    d_lo: bounds::distance_lower_bound(n, k),
                    d_hi: bounds::distance_upper_bound(n, k),
                };
            }
            GenVerdict {
                gen: i,
                n,
                k,
                d,
                verdict,
            }
        })
        .collect();
    Ok(Analysis { canon, shape, gens })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::parse_property;

    fn run(src: &str) -> Analysis {
        analyze(&parse_property(src).unwrap(), 14).unwrap()
    }

    #[test]
    fn acceptance_example_is_refuted_with_certificate() {
        // the (8, 4, 6) Singleton violation from the issue
        let a = run("len_d(G0) = 4 && len_c(G0) = 4 && md(G0) = 6");
        assert_eq!(a.overall_kind(), "infeasible");
        let c = a.certificate().expect("certificate");
        assert_eq!(c.bound, "singleton");
        assert_eq!((c.n, c.k, c.d), (8, 4, 6));
    }

    #[test]
    fn open_window_uses_default_max_check() {
        // md = 3 at k = 4 with the default 14-bit window is achievable
        let a = run("len_d(G0) = 4 && md(G0) = 3");
        assert_eq!(a.gens[0].n, 18);
        assert_eq!(a.overall_kind(), "trivially-feasible");
    }

    #[test]
    fn impure_shapes_never_trivially_feasible() {
        let a = run("len_d(G0) = 4 && md(G0) = 3 && len_1(G0) <= 6");
        assert_eq!(a.overall_kind(), "needs-search");
    }

    #[test]
    fn long_codes_analyze_in_under_a_second() {
        // n = 30,004: the d searches bisect, and balls past u128 are
        // summed in the log domain instead of as saturated binomials
        let start = std::time::Instant::now();
        let a = run("len_d(G0) = 4 && len_c(G0) = 30000 && md(G0) = 16000");
        let elapsed = start.elapsed();
        match a.gens[0].verdict {
            PointVerdict::NeedsSearch { d_lo, d_hi } => {
                assert!(d_lo < 16_000 && 16_000 <= d_hi, "[{d_lo}, {d_hi}]");
            }
            ref v => panic!("unexpected verdict {v:?}"),
        }
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "took {elapsed:?}"
        );
    }

    #[test]
    fn gap_point_needs_search() {
        // [10, 5, 4]: GV only guarantees d = 3, the bounds admit d = 4
        let a = run("len_d(G0) = 5 && len_c(G0) = 5 && md(G0) = 4");
        assert_eq!(a.overall_kind(), "needs-search");
        match &a.gens[0].verdict {
            PointVerdict::NeedsSearch { d_lo, d_hi } => {
                assert_eq!((*d_lo, *d_hi), (3, 4));
            }
            v => panic!("expected needs-search, got {v:?}"),
        }
    }

    #[test]
    fn multi_generator_verdicts_are_independent() {
        let a = run("len_G = 2 && len_d(G0) = 4 && len_c(G0) = 4 && md(G0) = 6 \
             && len_d(G1) = 4 && len_c(G1) = 4 && md(G1) = 2");
        assert_eq!(a.gens.len(), 2);
        assert!(matches!(a.gens[0].verdict, PointVerdict::Infeasible(_)));
        assert_eq!(a.gens[1].verdict, PointVerdict::TriviallyFeasible);
        assert_eq!(a.overall_kind(), "infeasible");
    }

    #[test]
    fn analysis_carries_the_canonical_hash() {
        let a = run("md(G0) = 3 && len_d(G0) = 4");
        let b = run("len_d(G0)=4 && md(G0)=3");
        assert_eq!(a.canon.hash, b.canon.hash);
        assert!(a.canon.hash.starts_with("fecspec-v1:"));
    }
}
