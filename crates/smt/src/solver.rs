//! The incremental solver shell: scopes, fresh variables, budgets.

use fec_drat::Checker;
use fec_portfolio::{Pool, PoolOutcome, PortfolioConfig, PortfolioStats};
use fec_sat::{Budget, Lit, SolveResult, SolverStats, Var};

/// Which solve engine answers [`SmtSolver`] queries: how many workers
/// the pool behind it runs.
///
/// The theory layer (scopes, gadgets, cardinality, certification
/// counters) is identical either way.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum SolveBackend {
    /// One worker on the calling thread: the plain incremental CDCL
    /// solver.
    #[default]
    Single,
    /// A resident warm portfolio of diversified workers racing each
    /// query (see `fec_portfolio::Pool`). The workers persist across
    /// queries — learned clauses, VSIDS activities, saved phases, and
    /// previously imported clauses all stay warm — and each query
    /// ships only the clause *delta* added since the previous one.
    Portfolio(PortfolioConfig),
}

/// Outcome of an [`SmtSolver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmtResult {
    /// Satisfiable; read the model with [`SmtSolver::model_lit`] etc.
    Sat,
    /// Unsatisfiable under the active scopes and assumptions.
    Unsat,
    /// Budget exhausted before a verdict.
    Unknown,
}

/// An incremental finite-domain solver with `push`/`pop` scopes.
///
/// Scopes are implemented with *activation literals*: each `push`
/// allocates a guard `g`; clauses added inside the scope become
/// `¬g ∨ clause`, and `solve` assumes every live guard. `pop` asserts
/// the unit `¬g`, permanently disabling the scope's clauses. Because
/// learnt clauses carry the guards they were derived from, they remain
/// sound across pops — this is the standard MiniSat-style incremental
/// construction and exactly what Algorithm 1's `push`/`pop` calls need.
///
/// Every query runs on a `fec_portfolio::Pool`: one inline worker by
/// default, or racing worker threads (see [`SmtSolver::with_config`]).
/// The activation-literal discipline keeps the formula monotone, so the
/// warm workers only ever receive new clauses.
pub struct SmtSolver {
    pool: Pool,
    /// Variables allocated so far; the workers grow to match before
    /// each clause and query.
    num_vars: usize,
    guards: Vec<Lit>,
    true_lit: Option<Lit>,
    /// Certification mode: one stitching checker per worker. Each
    /// query's per-worker DRAT segments are appended to that worker's
    /// checker, reconstructing its complete stream, so warm answers
    /// certify exactly like cold ones. Empty when not certifying.
    checkers: Vec<Checker>,
    cert_stats: CertificateStats,
    /// Statistics of the most recent query of a multi-worker pool.
    last_run: Option<PortfolioStats>,
    /// Worker statistics summed over every query so far (per-query
    /// deltas, so the sum counts each unit of work exactly once).
    stats: SolverStats,
    /// Clauses handed to `raw_add_clause` so far (encoding size metric).
    clauses_added: u64,
    /// Nesting depth of encoder attribution scopes (see `enc_begin`):
    /// only the outermost constraint family claims the vars/clauses it
    /// allocates, so a constraint built from other gadgets is counted
    /// once, under its own family.
    enc_depth: u32,
}

/// Snapshot opening an encoding-attribution scope (see
/// [`SmtSolver::enc_begin`]).
pub(crate) struct EncMark {
    vars: usize,
    clauses: u64,
    armed: bool,
}

/// Counters from certification mode (see [`SmtSolver::with_config`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertificateStats {
    /// Lemmas accepted by the RUP checker across all queries.
    pub lemmas_checked: u64,
    /// Satisfying assignments replayed against all input clauses.
    pub models_validated: u64,
    /// Unsat answers certified (refutation or failed-assumption RUP).
    pub unsat_certified: u64,
}

impl Default for SmtSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SmtSolver {
    /// An empty solver on one inline worker.
    pub fn new() -> SmtSolver {
        Self::with_config(PortfolioConfig::default())
    }

    /// An empty, non-certifying solver answering queries through
    /// `backend`.
    pub fn with_backend(backend: SolveBackend) -> SmtSolver {
        match backend {
            SolveBackend::Single => Self::new(),
            SolveBackend::Portfolio(config) => Self::with_config(PortfolioConfig {
                certify: false,
                ..config
            }),
        }
    }

    /// An empty solver on a pool of `config.jobs` workers.
    ///
    /// With `config.certify` the solver runs in certification mode:
    /// every worker logs a DRAT stream for the pool's lifetime, each
    /// query's per-worker segments are stitched into persistent
    /// `fec-drat` checkers (imports are RUP-filtered by the workers,
    /// see `fec-portfolio`), and the verdict is certified against the
    /// winner's stitched stream. Every learned clause is validated by
    /// reverse unit propagation, every satisfying assignment is
    /// replayed against all input clauses, and every unsatisfiable
    /// answer must come with a checkable refutation (or, under
    /// assumptions, a failed-assumption clause derivable by RUP).
    ///
    /// A certification failure **panics** with a diagnostic naming the
    /// first rejected lemma: the solver and the checker disagreeing
    /// means one of them is wrong, and no downstream result can be
    /// trusted.
    pub fn with_config(config: PortfolioConfig) -> SmtSolver {
        let pool = Pool::new(&config);
        let checkers = if config.certify {
            (0..pool.jobs()).map(|_| Checker::new()).collect()
        } else {
            Vec::new()
        };
        SmtSolver {
            pool,
            num_vars: 0,
            guards: Vec::new(),
            true_lit: None,
            checkers,
            cert_stats: CertificateStats::default(),
            last_run: None,
            stats: SolverStats::default(),
            clauses_added: 0,
            enc_depth: 0,
        }
    }

    /// `true` when this solver certifies its answers.
    pub fn is_certifying(&self) -> bool {
        !self.checkers.is_empty()
    }

    /// Certification counters; `None` unless built in certifying mode.
    pub fn certificate_stats(&self) -> Option<CertificateStats> {
        self.is_certifying().then_some(self.cert_stats)
    }

    /// Statistics of the most recent query when workers race; `None`
    /// on one worker or before the first query.
    pub fn last_portfolio(&self) -> Option<&PortfolioStats> {
        self.last_run.as_ref()
    }

    /// Hands a clause to the pool's workers.
    fn raw_add_clause(&mut self, lits: &[Lit]) {
        self.clauses_added += 1;
        self.pool.add_clause(self.num_vars, lits);
    }

    /// Total clauses added so far.
    pub fn clauses_added(&self) -> u64 {
        self.clauses_added
    }

    /// Opens an encoding-attribution scope for one constraint family.
    /// Pair with [`SmtSolver::enc_end`]; the outermost scope emits
    /// `smt.enc.<family>.{vars,clauses}` counters when tracing is on.
    pub(crate) fn enc_begin(&mut self) -> EncMark {
        let armed = self.enc_depth == 0 && fec_trace::enabled(fec_trace::Level::Debug);
        self.enc_depth += 1;
        EncMark {
            vars: self.num_vars,
            clauses: self.clauses_added,
            armed,
        }
    }

    /// Closes an encoding-attribution scope, attributing the variables
    /// and clauses allocated since `mark` to `family`.
    pub(crate) fn enc_end(&mut self, family: &str, mark: EncMark) {
        self.enc_depth -= 1;
        if !mark.armed {
            return;
        }
        let vars = self.num_vars - mark.vars;
        let clauses = self.clauses_added - mark.clauses;
        if vars > 0 {
            fec_trace::counter(
                fec_trace::Level::Debug,
                &format!("smt.enc.{family}.vars"),
                vars as i64,
            );
        }
        if clauses > 0 {
            fec_trace::counter(
                fec_trace::Level::Debug,
                &format!("smt.enc.{family}.clauses"),
                clauses as i64,
            );
        }
    }

    /// Certifies one answer: every worker's new proof steps extend that
    /// worker's stitched stream — winners and losers alike, since the
    /// next query's answer may depend on clauses any of them derived
    /// (or imported) now — and the verdict is checked against the
    /// winner's stream, which spans the whole warm session, so an
    /// answer that leans on a clause learned three queries ago still
    /// checks.
    fn certify(&mut self, out: &PoolOutcome, assumptions: &[Lit]) {
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "cert.check",
            "verdict" => match out.result {
                SolveResult::Sat => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Unknown => "unknown",
            },
        );
        for (w, seg) in out.proof_segments.iter().enumerate() {
            let checker = &mut self.checkers[w];
            let before = checker.lemmas_accepted();
            if let Err(e) = checker.process_all(seg) {
                panic!(
                    "certification failed: {e} (worker {w}, verdict {:?})",
                    out.result
                );
            }
            self.cert_stats.lemmas_checked += (checker.lemmas_accepted() - before) as u64;
        }
        match out.result {
            SolveResult::Sat => {
                let checker = &self.checkers[out.stats.winner.expect("sat has a winner")];
                let pool = &self.pool;
                if let Err(e) = checker.validate_model(|v| pool.value(v), assumptions) {
                    panic!("model validation failed: {e}");
                }
                self.cert_stats.models_validated += 1;
            }
            SolveResult::Unsat => {
                // either the stream refuted the formula outright, or
                // the failed-assumption clause ¬a₁ ∨ … ∨ ¬aₖ is RUP
                // over inputs + accepted lemmas
                let checker = &mut self.checkers[out.stats.winner.expect("unsat has a winner")];
                let negated: Vec<Lit> = out.failed_assumptions.iter().map(|&a| !a).collect();
                if !checker.is_refuted() && !checker.is_rup(&negated) {
                    panic!(
                        "unsat certification failed: failed-assumption clause \
                         {negated:?} is not RUP and the formula is not refuted"
                    );
                }
                self.cert_stats.unsat_certified += 1;
            }
            SolveResult::Unknown => {}
        }
    }

    /// A fresh boolean variable, returned as its positive literal.
    pub fn fresh_lit(&mut self) -> Lit {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        Lit::pos(v)
    }

    /// A literal constrained to be true (lazily created).
    pub fn lit_true(&mut self) -> Lit {
        match self.true_lit {
            Some(t) => t,
            None => {
                let t = self.fresh_lit();
                self.raw_add_clause(&[t]);
                self.true_lit = Some(t);
                t
            }
        }
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Adds a clause in the current scope. With no open scope, the
    /// clause is permanent.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        match self.guards.last() {
            None => {
                self.raw_add_clause(lits);
            }
            Some(&g) => {
                let mut c = Vec::with_capacity(lits.len() + 1);
                c.push(!g);
                c.extend_from_slice(lits);
                self.raw_add_clause(&c);
            }
        }
    }

    /// Adds a clause to the *root* scope (permanent), regardless of the
    /// currently open scopes.
    pub fn add_clause_permanent(&mut self, lits: &[Lit]) {
        self.raw_add_clause(lits);
    }

    /// Runs `f` with the scope stack temporarily emptied, so every
    /// clause it adds (including gadget definitions) is permanent.
    /// Used for facts that are sound regardless of scope, e.g. CEGIS
    /// counterexamples derived inside an optimization bound.
    pub fn at_root<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let saved = std::mem::take(&mut self.guards);
        let r = f(self);
        self.guards = saved;
        r
    }

    /// Opens a new scope.
    pub fn push(&mut self) {
        let g = self.fresh_lit();
        self.guards.push(g);
    }

    /// Closes the innermost scope, discarding its clauses.
    ///
    /// # Panics
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let g = self.guards.pop().expect("pop without matching push");
        self.raw_add_clause(&[!g]);
    }

    /// Solves under the active scopes plus `extra` assumption literals,
    /// with no resource limit.
    pub fn solve(&mut self, extra: &[Lit]) -> SmtResult {
        self.solve_with_budget(extra, Budget::unlimited())
    }

    /// Budgeted solve (the paper's per-query 120 s timeout maps here).
    pub fn solve_with_budget(&mut self, extra: &[Lit], budget: Budget) -> SmtResult {
        let mut assumptions = self.guards.clone();
        assumptions.extend_from_slice(extra);
        let racing = self.pool.jobs() > 1;
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "smt.solve",
            "vars" => self.num_vars,
            "clauses" => self.clauses_added,
            "assumptions" => assumptions.len(),
            "backend" => if racing { "portfolio" } else { "single" },
        );
        let out = self
            .pool
            .solve(self.num_vars, Vec::new(), &assumptions, budget);
        self.stats.merge(&out.stats.total);
        if self.is_certifying() {
            self.certify(&out, &assumptions);
        }
        let result = match out.result {
            SolveResult::Sat => SmtResult::Sat,
            SolveResult::Unsat => SmtResult::Unsat,
            SolveResult::Unknown => SmtResult::Unknown,
        };
        if racing {
            self.last_run = Some(out.stats);
        }
        fec_trace::event!(
            fec_trace::Level::Trace,
            "smt.verdict",
            "result" => match result {
                SmtResult::Sat => "sat",
                SmtResult::Unsat => "unsat",
                SmtResult::Unknown => "unknown",
            },
        );
        result
    }

    /// Model value of a literal after a `Sat` answer. Unconstrained
    /// variables read as `false`.
    pub fn model_lit(&self, l: Lit) -> bool {
        let v = self.pool.value(l.var()).unwrap_or(false);
        if l.is_pos() {
            v
        } else {
            !v
        }
    }

    /// Underlying SAT statistics: the field-wise sum over every worker
    /// of every query so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of SAT variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A certifying solver on `jobs` workers.
    fn certifying(jobs: usize) -> SmtSolver {
        SmtSolver::with_config(PortfolioConfig {
            certify: true,
            ..PortfolioConfig::with_jobs(jobs)
        })
    }

    #[test]
    fn push_pop_restores_satisfiability() {
        let mut s = SmtSolver::new();
        let x = s.fresh_lit();
        s.add_clause(&[x]);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        s.push();
        s.add_clause(&[!x]);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(x));
    }

    #[test]
    fn nested_scopes() {
        let mut s = SmtSolver::new();
        let (x, y) = (s.fresh_lit(), s.fresh_lit());
        s.push();
        s.add_clause(&[x]);
        s.push();
        s.add_clause(&[!x, y]);
        s.add_clause(&[!y]);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(x));
        s.pop();
    }

    #[test]
    fn permanent_clause_survives_pop() {
        let mut s = SmtSolver::new();
        let x = s.fresh_lit();
        s.push();
        s.add_clause_permanent(&[x]);
        s.pop();
        s.push();
        s.add_clause(&[!x]);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
    }

    #[test]
    fn assumptions_compose_with_scopes() {
        let mut s = SmtSolver::new();
        let (x, y) = (s.fresh_lit(), s.fresh_lit());
        s.push();
        s.add_clause(&[x, y]);
        assert_eq!(s.solve(&[!x]), SmtResult::Sat);
        assert!(s.model_lit(y));
        assert_eq!(s.solve(&[!x, !y]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[!x, !y]), SmtResult::Sat);
    }

    #[test]
    fn const_lits() {
        let mut s = SmtSolver::new();
        let t = s.lit_true();
        let f = s.lit_false();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(t));
        assert!(!s.model_lit(f));
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn pop_without_push_panics() {
        SmtSolver::new().pop();
    }

    #[test]
    fn certifying_solver_matches_plain_solver() {
        // the full scope/assumption workout, now with every answer
        // independently certified
        let mut s = certifying(1);
        assert!(s.is_certifying());
        let x = s.fresh_lit();
        s.add_clause(&[x]);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        s.push();
        s.add_clause(&[!x]);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(x));
        let stats = s.certificate_stats().unwrap();
        assert_eq!(stats.models_validated, 2);
        assert_eq!(stats.unsat_certified, 1);
    }

    #[test]
    fn portfolio_backend_scope_workout() {
        // the push/pop/assumption workout from the single-mode tests,
        // answered by a 4-worker portfolio
        let backend = SolveBackend::Portfolio(PortfolioConfig::with_jobs(4));
        let mut s = SmtSolver::with_backend(backend);
        let (x, y) = (s.fresh_lit(), s.fresh_lit());
        s.push();
        s.add_clause(&[x, y]);
        assert_eq!(s.solve(&[!x]), SmtResult::Sat);
        assert!(s.model_lit(y));
        assert_eq!(s.solve(&[!x, !y]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[!x, !y]), SmtResult::Sat);
        let run = s.last_portfolio().expect("portfolio ran");
        assert_eq!(run.workers.len(), 4);
        assert!(run.winner.is_some());
        assert_eq!(s.stats().solve_calls, 12); // 3 queries × 4 workers
    }

    #[test]
    fn certifying_portfolio_backend() {
        let mut s = certifying(3);
        assert!(s.is_certifying());
        let xs: Vec<Lit> = (0..6).map(|_| s.fresh_lit()).collect();
        s.at_most_k(&xs, 2);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert_eq!(s.solve(&[xs[0], xs[1], xs[2]]), SmtResult::Unsat);
        s.push();
        for x in &xs[..3] {
            s.add_clause(&[*x]);
        }
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        let stats = s.certificate_stats().unwrap();
        assert_eq!(stats.models_validated, 2);
        assert_eq!(stats.unsat_certified, 2);
        assert!(stats.lemmas_checked > 0 || stats.unsat_certified > 0);
    }

    #[test]
    fn pooled_workers_receive_only_per_query_deltas() {
        // the re-mirroring regression test: clause transfer into the
        // warm workers is O(delta) per query, never O(total formula)
        let backend = SolveBackend::Portfolio(PortfolioConfig::with_jobs(2));
        let mut s = SmtSolver::with_backend(backend);
        let xs: Vec<Lit> = (0..8).map(|_| s.fresh_lit()).collect();
        for w in xs.windows(2) {
            s.add_clause(&[!w[0], w[1]]); // implication chain, 7 clauses
        }
        assert_eq!(s.solve(&[xs[0]]), SmtResult::Sat);
        let run = s.last_portfolio().unwrap();
        assert_eq!(
            run.shipped_clauses,
            7 * 2,
            "cold query ships the delta once per worker"
        );
        // assumption-only query: nothing ships, the warm DBs carry it
        assert_eq!(s.solve(&[!xs[7]]), SmtResult::Sat);
        assert_eq!(s.last_portfolio().unwrap().shipped_clauses, 0);
        // one new clause: exactly one clause per worker, not the
        // whole 8-clause formula again
        s.add_clause(&[xs[7]]);
        assert_eq!(s.solve(&[xs[0]]), SmtResult::Sat);
        assert_eq!(s.last_portfolio().unwrap().shipped_clauses, 2);
    }

    #[test]
    fn single_backend_is_plain_solver() {
        // one worker reports no portfolio run, before or after a query
        let mut s = SmtSolver::with_backend(SolveBackend::Single);
        assert!(s.last_portfolio().is_none());
        let x = s.fresh_lit();
        s.add_clause(&[x]);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(x));
        assert!(s.last_portfolio().is_none());
        assert_eq!(s.stats().solve_calls, 1);
    }

    #[test]
    fn certifying_solver_handles_cardinality_workout() {
        let mut s = certifying(1);
        let xs: Vec<Lit> = (0..6).map(|_| s.fresh_lit()).collect();
        s.at_most_k(&xs, 2);
        s.at_least_k(&xs, 1);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert_eq!(s.solve(&[xs[0], xs[1], xs[2]]), SmtResult::Unsat);
        s.push();
        for x in &xs[..3] {
            s.add_clause(&[*x]);
        }
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        let stats = s.certificate_stats().unwrap();
        assert_eq!(stats.models_validated, 2);
        assert_eq!(stats.unsat_certified, 2);
        assert_eq!(SmtSolver::new().certificate_stats(), None);
    }

    /// A scripted incremental session: a totalizer bound over an
    /// implication chain, then nested scopes whose every push and pop
    /// flips a verdict.
    fn scripted_session(s: &mut SmtSolver) -> Vec<SmtResult> {
        let xs: Vec<Lit> = (0..8).map(|_| s.fresh_lit()).collect();
        let count = s.counting_register(&xs, xs.len());
        s.constrain_register_at_most(&count, 5);
        for w in xs.windows(2) {
            s.add_clause(&[!w[0], w[1]]); // x_i → x_{i+1}
        }
        let mut verdicts = vec![s.solve(&[])];
        // scope 1: x4 forces x4..x7, four true, within the bound
        s.push();
        s.add_clause(&[xs[4]]);
        verdicts.push(s.solve(&[]));
        // x2 would force six
        verdicts.push(s.solve(&[xs[2]]));
        // nested scope 2: a bound of three contradicts scope 1
        s.push();
        s.constrain_register_at_most(&count, 3);
        verdicts.push(s.solve(&[]));
        s.pop();
        verdicts.push(s.solve(&[]));
        s.pop();
        // root: scope 1's x4 is gone
        verdicts.push(s.solve(&[!xs[4]]));
        verdicts
    }

    #[test]
    fn scripted_session_agrees_across_backends() {
        use SmtResult::{Sat, Unsat};
        let expected = [Sat, Sat, Unsat, Unsat, Sat, Sat];
        let portfolio = || SolveBackend::Portfolio(PortfolioConfig::with_jobs(3));
        assert_eq!(scripted_session(&mut SmtSolver::new()), expected);
        let mut port = SmtSolver::with_backend(portfolio());
        assert_eq!(scripted_session(&mut port), expected);
        for mut s in [certifying(1), certifying(3)] {
            assert_eq!(scripted_session(&mut s), expected);
            let stats = s.certificate_stats().unwrap();
            assert_eq!(stats.models_validated, 4);
            assert_eq!(stats.unsat_certified, 2);
        }
    }
}
