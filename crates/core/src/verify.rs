//! Stand-alone verification of concrete generators (§4.1).
//!
//! "Algorithm 1 can also be used as a stand-alone verifier, in which
//! case optimization constraints are ignored, the synthesizer steps
//! are skipped, and all props are provided to the verifier." This
//! module is that mode: SAT-backed minimum-distance queries over a
//! *concrete* generator (the §4.1 experiment verifies the 802.3df
//! (128,120) code this way), plus full property checking where `md`
//! sub-expressions are resolved by those queries.

use crate::spec::{typecheck, EvalContext, EvalError, Prop};
use fec_gf2::BitVec;
use fec_hamming::Generator;
use fec_smt::{Budget, Lit, PortfolioConfig, SmtResult, SmtSolver};
use fec_trace::Level;
use std::time::{Duration, Instant};

/// Outcome of a verification query.
#[derive(Clone, PartialEq, Debug)]
pub enum VerifyOutcome {
    /// The property holds.
    Holds,
    /// The property fails; for distance queries, `witness` is a
    /// non-zero data word whose codeword has weight below the bound.
    Fails { witness: Option<BitVec> },
    /// The solver budget ran out.
    Unknown,
}

/// Statistics for one verification run (the §4.1 table reports
/// runtime and RAM; we report runtime and solver effort). The last
/// three fields stay zero unless certification is enabled via
/// [`VerifyOptions::check_certificates`].
#[derive(Clone, Debug, Default)]
pub struct VerifyStats {
    pub elapsed: Duration,
    pub conflicts: u64,
    pub propagations: u64,
    pub solve_calls: u64,
    /// Learned clauses accepted by the independent RUP checker.
    pub lemmas_checked: u64,
    /// SAT models replayed against all input clauses.
    pub models_validated: u64,
    /// Unsat verdicts certified (refutation or failed-assumption RUP).
    pub unsat_certified: u64,
    /// One entry per portfolio query run with [`VerifyOptions::jobs`]
    /// > 1; empty on one worker.
    pub portfolio: Vec<PortfolioRunSummary>,
}

/// Per-query summary of a portfolio run, for reporting alongside the
/// certificate statistics.
#[derive(Clone, Debug, Default)]
pub struct PortfolioRunSummary {
    /// Number of workers raced.
    pub workers: usize,
    /// Winning worker id (`None` when the budget ran out first).
    pub winner: Option<usize>,
    /// Conflicts spent by each worker, indexed by worker id.
    pub per_worker_conflicts: Vec<u64>,
    /// Clauses exported to / accepted from peers, summed over workers.
    pub exported: u64,
    pub imported: u64,
    /// Imported clauses rejected by the importer's RUP filter.
    pub rejected: u64,
}

impl VerifyStats {
    fn absorb(&mut self, other: &VerifyStats) {
        self.elapsed += other.elapsed;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.solve_calls += other.solve_calls;
        self.lemmas_checked += other.lemmas_checked;
        self.models_validated += other.models_validated;
        self.unsat_certified += other.unsat_certified;
        self.portfolio.extend(other.portfolio.iter().cloned());
    }
}

/// Options for the verification entry points; the plain functions use
/// the defaults (no certification).
#[derive(Clone, Copy, Debug)]
pub struct VerifyOptions {
    /// Per-query solver budget.
    pub budget: Budget,
    /// Certify every solver answer with the independent `fec-drat`
    /// checker (RUP-check all learned clauses, replay SAT models,
    /// certify UNSAT verdicts). Panics on any discrepancy — this is the
    /// CLI's `--check-proofs` mode.
    pub check_certificates: bool,
    /// Number of portfolio workers racing each query; `1` (the
    /// default) is one inline worker, the plain incremental solver.
    /// This is the CLI's `--jobs N` mode.
    pub jobs: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            budget: Budget::unlimited(),
            check_certificates: false,
            jobs: 1,
        }
    }
}

impl VerifyOptions {
    fn solver(&self) -> SmtSolver {
        SmtSolver::with_config(PortfolioConfig {
            certify: self.check_certificates,
            ..PortfolioConfig::with_jobs(self.jobs)
        })
    }
}

/// SAT query: does `g` have a non-zero codeword of weight ≤ `w`?
///
/// Builds the φ_md circuit over a symbolic data word with the
/// *concrete* coefficient matrix folded in (each check-bit parity is an
/// XOR over the data bits its column selects).
pub fn has_codeword_of_weight_at_most(
    g: &Generator,
    w: usize,
    budget: Budget,
) -> (SmtResult, Option<BitVec>, VerifyStats) {
    has_codeword_of_weight_at_most_with(
        g,
        w,
        VerifyOptions {
            budget,
            ..VerifyOptions::default()
        },
    )
}

/// [`has_codeword_of_weight_at_most`] with full [`VerifyOptions`].
pub fn has_codeword_of_weight_at_most_with(
    g: &Generator,
    w: usize,
    opts: VerifyOptions,
) -> (SmtResult, Option<BitVec>, VerifyStats) {
    let start = Instant::now();
    let _sp = fec_trace::span!(
        Level::Info,
        "verify.query",
        "weight" => w,
        "data_len" => g.data_len(),
        "check_len" => g.check_len(),
        "jobs" => opts.jobs,
    );
    let mut s = opts.solver();
    let k = g.data_len();
    let xs: Vec<Lit> = (0..k).map(|_| s.fresh_lit()).collect();
    s.add_clause(&xs); // non-zero data word
    let mut all = xs.clone();
    for j in 0..g.check_len() {
        let selected: Vec<Lit> = (0..k)
            .filter(|&y| g.coefficients().get(y, j))
            .map(|y| xs[y])
            .collect();
        let parity = s.xor_all(&selected);
        all.push(parity);
    }
    s.at_most_k(&all, w);
    let result = s.solve_with_budget(&[], opts.budget);
    let witness = (result == SmtResult::Sat)
        .then(|| BitVec::from_bools(&xs.iter().map(|&l| s.model_lit(l)).collect::<Vec<_>>()));
    let cert = s.certificate_stats().unwrap_or_default();
    let portfolio = s
        .last_portfolio()
        .map(|run| PortfolioRunSummary {
            workers: run.workers.len(),
            winner: run.winner,
            per_worker_conflicts: run.workers.iter().map(|w| w.conflicts).collect(),
            exported: run.total.exported_clauses,
            imported: run.total.imported_clauses,
            rejected: run.total.rejected_clauses,
        })
        .into_iter()
        .collect();
    fec_trace::event!(
        Level::Info,
        "verify.verdict",
        "weight" => w,
        "result" => match result {
            SmtResult::Sat => "sat",
            SmtResult::Unsat => "unsat",
            SmtResult::Unknown => "unknown",
        },
        "conflicts" => s.stats().conflicts,
    );
    let stats = VerifyStats {
        elapsed: start.elapsed(),
        conflicts: s.stats().conflicts,
        propagations: s.stats().propagations,
        solve_calls: s.stats().solve_calls,
        lemmas_checked: cert.lemmas_checked,
        models_validated: cert.models_validated,
        unsat_certified: cert.unsat_certified,
        portfolio,
    };
    (result, witness, stats)
}

/// Verifies `md(g) ≥ d` (no non-zero codeword of weight < d).
pub fn verify_min_distance_at_least(
    g: &Generator,
    d: usize,
    budget: Budget,
) -> (VerifyOutcome, VerifyStats) {
    verify_min_distance_at_least_with(
        g,
        d,
        VerifyOptions {
            budget,
            ..VerifyOptions::default()
        },
    )
}

/// [`verify_min_distance_at_least`] with full [`VerifyOptions`].
pub fn verify_min_distance_at_least_with(
    g: &Generator,
    d: usize,
    opts: VerifyOptions,
) -> (VerifyOutcome, VerifyStats) {
    if d <= 1 {
        return (VerifyOutcome::Holds, VerifyStats::default());
    }
    let (r, witness, stats) = has_codeword_of_weight_at_most_with(g, d - 1, opts);
    let outcome = match r {
        SmtResult::Unsat => VerifyOutcome::Holds,
        SmtResult::Sat => VerifyOutcome::Fails { witness },
        SmtResult::Unknown => VerifyOutcome::Unknown,
    };
    (outcome, stats)
}

/// Verifies `md(g) = d` exactly: weight ≥ d for all non-zero codewords
/// *and* some codeword of weight exactly d exists (witnessed).
pub fn verify_min_distance_exact(
    g: &Generator,
    d: usize,
    budget: Budget,
) -> (VerifyOutcome, VerifyStats) {
    verify_min_distance_exact_with(
        g,
        d,
        VerifyOptions {
            budget,
            ..VerifyOptions::default()
        },
    )
}

/// [`verify_min_distance_exact`] with full [`VerifyOptions`].
pub fn verify_min_distance_exact_with(
    g: &Generator,
    d: usize,
    opts: VerifyOptions,
) -> (VerifyOutcome, VerifyStats) {
    let (lower, mut stats) = verify_min_distance_at_least_with(g, d, opts);
    if lower != VerifyOutcome::Holds {
        return (lower, stats);
    }
    let (r, witness, s2) = has_codeword_of_weight_at_most_with(g, d, opts);
    stats.absorb(&s2);
    let outcome = match r {
        SmtResult::Sat => VerifyOutcome::Holds, // witness of weight d exists
        SmtResult::Unsat => VerifyOutcome::Fails { witness },
        SmtResult::Unknown => VerifyOutcome::Unknown,
    };
    (outcome, stats)
}

/// Computes the exact minimum distance by iterative-deepening SAT
/// queries: the smallest `w` with a weight-≤-w codeword.
///
/// Returns `None` if the budget is exhausted (per query).
pub fn sat_min_distance(g: &Generator, budget: Budget) -> (Option<usize>, VerifyStats) {
    sat_min_distance_with(
        g,
        VerifyOptions {
            budget,
            ..VerifyOptions::default()
        },
    )
}

/// [`sat_min_distance`] with full [`VerifyOptions`].
pub fn sat_min_distance_with(g: &Generator, opts: VerifyOptions) -> (Option<usize>, VerifyStats) {
    let _sp = fec_trace::span!(
        Level::Info,
        "verify.min_distance",
        "data_len" => g.data_len(),
        "check_len" => g.check_len(),
    );
    let mut stats = VerifyStats::default();
    for w in 1..=g.codeword_len() {
        let (r, _, s) = has_codeword_of_weight_at_most_with(g, w, opts);
        stats.absorb(&s);
        match r {
            SmtResult::Sat => return (Some(w), stats),
            SmtResult::Unknown => return (None, stats),
            SmtResult::Unsat => {}
        }
    }
    (None, stats)
}

/// Verifies an arbitrary property of concrete generators, resolving
/// `md(Gi)` and `corr(Gi)` sub-expressions with SAT queries (so it
/// works for codes far beyond exhaustive range, like (128,120)).
///
/// `minimal`/`maximal` directives are ignored, as in the paper's
/// verifier mode. A property that has no truth value for these
/// generators (`md(G1)` of one generator, a cell past the matrix) is
/// an [`EvalError`], not a verdict.
pub fn verify_props(
    generators: &[Generator],
    prop: &Prop,
    budget: Budget,
) -> Result<(VerifyOutcome, VerifyStats), EvalError> {
    verify_props_with(
        generators,
        prop,
        VerifyOptions {
            budget,
            ..VerifyOptions::default()
        },
    )
}

/// [`verify_props`] with full [`VerifyOptions`].
pub fn verify_props_with(
    generators: &[Generator],
    prop: &Prop,
    opts: VerifyOptions,
) -> Result<(VerifyOutcome, VerifyStats), EvalError> {
    let mut stats = VerifyStats::default();
    // resolve every generator's md up front if the property reads some
    // md(Gi) or corr(Gi), or may (an ill-typed one: eval reports it)
    let mut ctx = EvalContext::from_generators(generators.to_vec());
    if typecheck(prop).map_or(true, |summary| summary.uses_distance) {
        let mut mds = Vec::with_capacity(generators.len());
        for g in generators {
            let (md, s) = sat_min_distance_with(g, opts);
            stats.absorb(&s);
            match md {
                Some(d) => mds.push(d),
                None => return Ok((VerifyOutcome::Unknown, stats)),
            }
        }
        ctx.md_overrides = mds;
    }
    let outcome = if ctx.eval_prop(prop)? {
        VerifyOutcome::Holds
    } else {
        VerifyOutcome::Fails { witness: None }
    };
    Ok((outcome, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;
    use fec_hamming::{distance, standards};

    #[test]
    fn verifies_hamming74_distance_exactly_3() {
        let g = standards::hamming_7_4();
        let (o, _) = verify_min_distance_exact(&g, 3, Budget::unlimited());
        assert_eq!(o, VerifyOutcome::Holds);
        let (o, _) = verify_min_distance_exact(&g, 4, Budget::unlimited());
        assert!(matches!(o, VerifyOutcome::Fails { .. }));
    }

    #[test]
    fn witness_is_a_real_low_weight_codeword() {
        let g = standards::parity_code(8); // md = 2
        let (o, _) = verify_min_distance_at_least(&g, 3, Budget::unlimited());
        let VerifyOutcome::Fails { witness: Some(x) } = o else {
            panic!("expected a witness");
        };
        let w = g.encode(&x);
        assert!(w.count_ones() < 3);
        assert!(!x.is_zero());
    }

    #[test]
    fn sat_min_distance_agrees_with_exhaustive() {
        for g in [
            standards::hamming_7_4(),
            standards::hamming_extended_8_4(),
            standards::parity_code(12),
            standards::shortened_hamming(10, 5).unwrap(),
            standards::paper_g4_5(),
        ] {
            let exhaustive = distance::min_distance_exhaustive(&g);
            let (sat, _) = sat_min_distance(&g, Budget::unlimited());
            assert_eq!(sat, Some(exhaustive), "{g:?}");
        }
    }

    #[test]
    fn verifies_8023df_code_128_120() {
        // the §4.1 experiment, both directions
        let g = standards::ieee_8023df_128_120();
        let (o, stats) = verify_min_distance_exact(&g, 3, Budget::unlimited());
        assert_eq!(o, VerifyOutcome::Holds, "after {:?}", stats.elapsed);
        let (o, _) = verify_min_distance_exact(&g, 4, Budget::unlimited());
        assert!(matches!(o, VerifyOutcome::Fails { .. }));
    }

    #[test]
    fn certified_verification_of_hamming74() {
        // --check-proofs mode: every UNSAT answer certified by the
        // independent RUP checker, every SAT model replayed
        let g = standards::hamming_7_4();
        let opts = VerifyOptions {
            check_certificates: true,
            ..VerifyOptions::default()
        };
        let (o, stats) = verify_min_distance_exact_with(&g, 3, opts);
        assert_eq!(o, VerifyOutcome::Holds);
        assert!(stats.unsat_certified >= 1, "{stats:?}");
        assert!(stats.models_validated >= 1, "{stats:?}");

        let p = parse_property("md(G0) = 3").unwrap();
        let (o, stats) = verify_props_with(&[g], &p, opts).unwrap();
        assert_eq!(o, VerifyOutcome::Holds);
        assert!(stats.unsat_certified >= 1, "{stats:?}");
    }

    #[test]
    fn verify_props_resolves_md_by_sat() {
        let g = standards::hamming_7_4();
        let p = parse_property("md(G0) = 3 && len_c(G0) = 3 && len_1(G0) = 9").unwrap();
        let (o, _) = verify_props(std::slice::from_ref(&g), &p, Budget::unlimited()).unwrap();
        assert_eq!(o, VerifyOutcome::Holds);
        let p = parse_property("md(G0) = 4").unwrap();
        let (o, _) = verify_props(&[g], &p, Budget::unlimited()).unwrap();
        assert!(matches!(o, VerifyOutcome::Fails { .. }));
    }

    #[test]
    fn verify_props_negated_distance() {
        // §4.1 also verifies the NEGATION: the code does NOT have md 4
        let g = standards::ieee_8023df_128_120();
        let p = parse_property("!(md(G0) = 4)").unwrap();
        let (o, _) = verify_props(&[g], &p, Budget::unlimited()).unwrap();
        assert_eq!(o, VerifyOutcome::Holds);
    }

    #[test]
    fn portfolio_verification_matches_single() {
        let g = standards::hamming_7_4();
        let opts = VerifyOptions {
            jobs: 4,
            ..VerifyOptions::default()
        };
        let (o, stats) = verify_min_distance_exact_with(&g, 3, opts);
        assert_eq!(o, VerifyOutcome::Holds);
        // both queries went through the portfolio
        assert_eq!(stats.portfolio.len(), 2, "{stats:?}");
        for run in &stats.portfolio {
            assert_eq!(run.workers, 4);
            assert!(run.winner.is_some());
            assert_eq!(run.per_worker_conflicts.len(), 4);
        }
        let (o, _) = verify_min_distance_exact_with(&g, 4, opts);
        assert!(matches!(o, VerifyOutcome::Fails { .. }));
    }

    #[test]
    fn certified_portfolio_verification() {
        // --jobs composed with --check-proofs: the winning worker's
        // self-contained proof is certified per query
        let g = standards::hamming_7_4();
        let opts = VerifyOptions {
            jobs: 3,
            check_certificates: true,
            ..VerifyOptions::default()
        };
        let (o, stats) = verify_min_distance_exact_with(&g, 3, opts);
        assert_eq!(o, VerifyOutcome::Holds);
        assert!(stats.unsat_certified >= 1, "{stats:?}");
        assert!(stats.models_validated >= 1, "{stats:?}");
        assert_eq!(stats.portfolio.len(), 2);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let g = standards::ieee_8023df_128_120();
        let tiny = Budget {
            max_conflicts: 1,
            timeout: None,
        };
        let (o, _) = verify_min_distance_exact(&g, 3, tiny);
        assert_eq!(o, VerifyOutcome::Unknown);
    }

    #[test]
    fn multi_generator_properties() {
        let p = parse_property("md(G0) = 3 && md(G1) = 2 && len_G = 2").unwrap();
        let gens = vec![standards::hamming_7_4(), standards::parity_code(16)];
        let (o, _) = verify_props(&gens, &p, Budget::unlimited()).unwrap();
        assert_eq!(o, VerifyOutcome::Holds);
    }
}
