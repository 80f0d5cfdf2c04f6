//! The incremental solver shell: scopes, fresh variables, budgets.

use fec_drat::Checker;
use fec_portfolio::{Pool, PortfolioConfig, PortfolioStats};
use fec_sat::{
    Budget, DratTextLogger, Lit, MemoryProofLogger, SolveResult, Solver, SolverStats,
    TeeProofLogger,
};

/// Which solve engine answers [`SmtSolver`] queries.
///
/// The theory layer (scopes, gadgets, cardinality, certification
/// counters) is identical either way; only the engine behind
/// [`SmtSolver::solve_with_budget`] changes.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum SolveBackend {
    /// One incremental CDCL solver (the historical behaviour).
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
pub struct SmtSolver {
    sat: Solver,
    guards: Vec<Lit>,
    true_lit: Option<Lit>,
    cert: Option<Certifier>,
    portfolio: Option<Box<PortfolioState>>,
    /// Clauses handed to `raw_add_clause` so far (encoding size metric).
    clauses_added: u64,
    /// Nesting depth of encoder attribution scopes (see `enc_begin`):
    /// only the outermost constraint family claims the vars/clauses it
    /// allocates, so a PB constraint built from ITE gadgets is counted
    /// once, as PB.
    enc_depth: u32,
}

/// Snapshot opening an encoding-attribution scope (see
/// [`SmtSolver::enc_begin`]).
pub(crate) struct EncMark {
    vars: usize,
    clauses: u64,
    armed: bool,
}

/// State of the portfolio backend.
///
/// The incremental `sat` instance keeps allocating variables as usual,
/// but queries are answered by a resident [`Pool`] of warm workers.
/// Clauses buffer in `pending` until the next pool interaction, so
/// each query ships only the delta since the previous one — the warm
/// workers' own clause databases (inputs + learnts + imports) carry
/// the rest, which is sound because the activation-literal discipline
/// keeps the formula monotone.
struct PortfolioState {
    config: PortfolioConfig,
    /// Clauses added since the last pool interaction: the next
    /// query's delta. Replaces the old full-formula mirror — the fix
    /// for the per-query re-shipping cost.
    pending: Vec<Vec<Lit>>,
    /// The resident warm pool, spawned lazily at the first query.
    pool: Option<Pool>,
    /// One stitching checker per worker (certify mode): each query's
    /// per-worker DRAT segments are appended to that worker's checker,
    /// reconstructing its complete stream so warm answers certify
    /// exactly like cold ones.
    checkers: Vec<Checker>,
    /// Winner's model of the most recent `Sat` answer.
    last_model: Option<Vec<Option<bool>>>,
    /// Statistics of the most recent query.
    last_run: Option<PortfolioStats>,
    /// Worker statistics accumulated over all queries (per-query
    /// deltas, so the sum counts each unit of work exactly once).
    agg: SolverStats,
    /// Certification counters (when `config.certify`).
    cert_stats: CertificateStats,
}

/// Pending clauses stream to an already-running pool in batches of
/// this size, overlapping encoding with worker-side clause ingestion.
const PRELOAD_BATCH: usize = 4096;

/// Independent certification state: the solver's proof stream is
/// replayed through the `fec-drat` RUP checker after every query.
struct Certifier {
    log: MemoryProofLogger,
    checker: Checker,
    stats: CertificateStats,
}

/// Counters from certification mode (see [`SmtSolver::new_certifying`]).
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
    /// An empty solver.
    pub fn new() -> SmtSolver {
        SmtSolver {
            sat: Solver::new(),
            guards: Vec::new(),
            true_lit: None,
            cert: None,
            portfolio: None,
            clauses_added: 0,
            enc_depth: 0,
        }
    }

    /// An empty solver answering queries through `backend`.
    pub fn with_backend(backend: SolveBackend) -> SmtSolver {
        let mut s = SmtSolver::new();
        s.install_backend(backend, false);
        s
    }

    /// Like [`SmtSolver::new_certifying`], but answering queries
    /// through `backend`. In portfolio mode every warm worker logs a
    /// DRAT stream for the pool's lifetime; each query's per-worker
    /// segments are stitched into persistent `fec-drat` checkers and
    /// the verdict is certified against the winner's stitched stream
    /// (imports are RUP-filtered by the workers, see `fec-portfolio`).
    /// Certification failures panic, exactly as in single mode.
    pub fn new_certifying_with_backend(backend: SolveBackend) -> SmtSolver {
        match backend {
            SolveBackend::Single => Self::new_certifying(),
            SolveBackend::Portfolio(_) => {
                let mut s = SmtSolver::new();
                s.install_backend(backend, true);
                s
            }
        }
    }

    fn install_backend(&mut self, backend: SolveBackend, certify: bool) {
        if let SolveBackend::Portfolio(mut config) = backend {
            config.certify = certify;
            self.portfolio = Some(Box::new(PortfolioState {
                config,
                pending: Vec::new(),
                pool: None,
                checkers: Vec::new(),
                last_model: None,
                last_run: None,
                agg: SolverStats::default(),
                cert_stats: CertificateStats::default(),
            }));
        }
    }

    /// An empty solver in certification mode: every clause the SAT core
    /// learns is validated by reverse unit propagation in the
    /// independent `fec-drat` checker, every satisfying assignment is
    /// replayed against all input clauses, and every unsatisfiable
    /// answer must come with a checkable refutation (or, under
    /// assumptions, a failed-assumption clause derivable by RUP).
    ///
    /// A certification failure **panics** with a diagnostic naming the
    /// first rejected lemma: the solver and the checker disagreeing
    /// means one of them is wrong, and no downstream result can be
    /// trusted.
    pub fn new_certifying() -> SmtSolver {
        let log = MemoryProofLogger::new();
        let mut sat = Solver::new();
        sat.set_proof_logger(Box::new(log.clone()));
        Self::with_certifier(sat, log)
    }

    /// Like [`SmtSolver::new_certifying`], but additionally streams the
    /// proof to `sink` in standard DRAT text format (learned clauses as
    /// `lits 0`, deletions as `d lits 0`, input clauses as `c i lits 0`
    /// comments) so it can be cross-checked by an external tool such as
    /// `drat-trim`.
    pub fn new_certifying_with_drat(sink: Box<dyn std::io::Write>) -> SmtSolver {
        let log = MemoryProofLogger::new();
        let mut sat = Solver::new();
        sat.set_proof_logger(Box::new(TeeProofLogger(
            log.clone(),
            DratTextLogger::new(sink),
        )));
        Self::with_certifier(sat, log)
    }

    fn with_certifier(sat: Solver, log: MemoryProofLogger) -> SmtSolver {
        SmtSolver {
            sat,
            guards: Vec::new(),
            true_lit: None,
            cert: Some(Certifier {
                log,
                checker: Checker::new(),
                stats: CertificateStats::default(),
            }),
            portfolio: None,
            clauses_added: 0,
            enc_depth: 0,
        }
    }

    /// `true` when this solver certifies its answers.
    pub fn is_certifying(&self) -> bool {
        self.cert.is_some() || self.portfolio.as_ref().is_some_and(|p| p.config.certify)
    }

    /// Certification counters; `None` unless built in certifying mode.
    pub fn certificate_stats(&self) -> Option<CertificateStats> {
        if let Some(c) = self.cert.as_ref() {
            return Some(c.stats);
        }
        self.portfolio
            .as_ref()
            .filter(|p| p.config.certify)
            .map(|p| p.cert_stats)
    }

    /// Statistics of the most recent portfolio query; `None` in single
    /// mode or before the first query.
    pub fn last_portfolio(&self) -> Option<&PortfolioStats> {
        self.portfolio.as_ref().and_then(|p| p.last_run.as_ref())
    }

    /// Adds a clause to the incremental core and (in portfolio mode)
    /// the pending delta buffer for the warm workers.
    fn raw_add_clause(&mut self, lits: &[Lit]) {
        self.clauses_added += 1;
        if let Some(p) = self.portfolio.as_mut() {
            p.pending.push(lits.to_vec());
            // eager preload: once the pool is running, large encodings
            // stream to the workers in batches (fire-and-forget) so
            // the solve call itself ships only the tail of the delta
            if p.pending.len() >= PRELOAD_BATCH {
                if let Some(pool) = p.pool.as_mut() {
                    pool.load(self.sat.num_vars(), std::mem::take(&mut p.pending));
                }
            }
        }
        self.sat.add_clause(lits);
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
            vars: self.sat.num_vars(),
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
        let vars = self.sat.num_vars() - mark.vars;
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

    /// Replays the proof stream produced since the last call through
    /// the independent checker, then certifies the verdict itself.
    fn certify(&mut self, verdict: SolveResult, assumptions: &[Lit]) {
        let Some(cert) = self.cert.as_mut() else {
            return;
        };
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "cert.check",
            "verdict" => match verdict {
                SolveResult::Sat => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Unknown => "unknown",
            },
        );
        let steps = cert.log.take_steps();
        let before = cert.checker.lemmas_accepted();
        if let Err(e) = cert.checker.process_all(&steps) {
            panic!("certification failed: {e} (verdict {verdict:?})");
        }
        cert.stats.lemmas_checked += (cert.checker.lemmas_accepted() - before) as u64;
        match verdict {
            SolveResult::Sat => {
                let sat = &self.sat;
                if let Err(e) = cert.checker.validate_model(|v| sat.value(v), assumptions) {
                    panic!("model validation failed: {e}");
                }
                cert.stats.models_validated += 1;
            }
            SolveResult::Unsat => {
                // either the stream refuted the formula outright, or
                // the failed-assumption clause ¬a₁ ∨ … ∨ ¬aₖ is RUP
                // over inputs + accepted lemmas
                let negated: Vec<Lit> = self.sat.failed_assumptions().iter().map(|&a| !a).collect();
                if !cert.checker.is_refuted() && !cert.checker.is_rup(&negated) {
                    panic!(
                        "unsat certification failed: failed-assumption clause \
                         {negated:?} is not RUP and the formula is not refuted"
                    );
                }
                cert.stats.unsat_certified += 1;
            }
            SolveResult::Unknown => {}
        }
    }

    /// A fresh boolean variable, returned as its positive literal.
    pub fn fresh_lit(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
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

    /// Converts a constant to a literal.
    pub fn lit_const(&mut self, b: bool) -> Lit {
        if b {
            self.lit_true()
        } else {
            self.lit_false()
        }
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

    /// Number of open scopes.
    pub fn scope_depth(&self) -> usize {
        self.guards.len()
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
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "smt.solve",
            "vars" => self.sat.num_vars(),
            "clauses" => self.clauses_added,
            "assumptions" => assumptions.len(),
            "backend" => if self.portfolio.is_some() { "portfolio" } else { "single" },
        );
        let result = if self.portfolio.is_some() {
            self.solve_portfolio(&assumptions, budget)
        } else {
            let verdict = self.sat.solve_with_budget(&assumptions, budget);
            self.certify(verdict, &assumptions);
            match verdict {
                SolveResult::Sat => SmtResult::Sat,
                SolveResult::Unsat => SmtResult::Unsat,
                SolveResult::Unknown => SmtResult::Unknown,
            }
        };
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

    /// Answers one query through the resident warm pool, shipping only
    /// the clause delta since the previous pool interaction. In
    /// certifying mode every worker's per-query DRAT segment is
    /// appended to that worker's persistent stitching checker, and the
    /// verdict is certified against the *winner's* checker — whose
    /// stream now spans the whole warm session, so an answer that
    /// leans on a clause learned three queries ago still checks.
    fn solve_portfolio(&mut self, assumptions: &[Lit], budget: Budget) -> SmtResult {
        let num_vars = self.sat.num_vars();
        let p = self.portfolio.as_mut().expect("portfolio backend");
        let config = p.config;
        let pool = p.pool.get_or_insert_with(|| Pool::new(&config));
        let delta = std::mem::take(&mut p.pending);
        let out = pool.solve(num_vars, delta, assumptions.to_vec(), budget);
        if p.checkers.is_empty() && config.certify {
            p.checkers = (0..pool.jobs()).map(|_| Checker::new()).collect();
        }
        p.agg.merge(&out.stats.total);
        if config.certify {
            // stitch: every worker's segment extends its own stream,
            // winners and losers alike — next query's answer may
            // depend on clauses any of them derived (or imported) now
            let mut accepted = 0u64;
            for (w, seg) in out.proof_segments.iter().enumerate() {
                let before = p.checkers[w].lemmas_accepted();
                if let Err(e) = p.checkers[w].process_all(seg) {
                    panic!(
                        "portfolio certification failed: {e} (worker {w}, verdict {:?})",
                        out.result
                    );
                }
                accepted += (p.checkers[w].lemmas_accepted() - before) as u64;
            }
            p.cert_stats.lemmas_checked += accepted;
            match out.result {
                SolveResult::Sat => {
                    let checker = &p.checkers[out.stats.winner.expect("sat has a winner")];
                    let model = out.model.as_ref().expect("sat winner carries a model");
                    let value = |v: fec_sat::Var| model.get(v.index()).copied().flatten();
                    if let Err(e) = checker.validate_model(value, assumptions) {
                        panic!("portfolio model validation failed: {e}");
                    }
                    p.cert_stats.models_validated += 1;
                }
                SolveResult::Unsat => {
                    let checker = &mut p.checkers[out.stats.winner.expect("unsat has a winner")];
                    let negated: Vec<Lit> = out.failed_assumptions.iter().map(|&a| !a).collect();
                    if !checker.is_refuted() && !checker.is_rup(&negated) {
                        panic!(
                            "portfolio unsat certification failed: failed-assumption \
                             clause {negated:?} is not RUP and the formula is not refuted"
                        );
                    }
                    p.cert_stats.unsat_certified += 1;
                }
                SolveResult::Unknown => {}
            }
        }
        let verdict = out.result;
        if verdict == SolveResult::Sat {
            p.last_model = out.model;
        }
        p.last_run = Some(out.stats);
        match verdict {
            SolveResult::Sat => SmtResult::Sat,
            SolveResult::Unsat => SmtResult::Unsat,
            SolveResult::Unknown => SmtResult::Unknown,
        }
    }

    /// Model value of a literal after a `Sat` answer. Unconstrained
    /// variables read as `false`.
    pub fn model_lit(&self, l: Lit) -> bool {
        let v = match self.portfolio.as_ref() {
            Some(p) => p
                .last_model
                .as_ref()
                .and_then(|m| m.get(l.var().index()).copied().flatten())
                .unwrap_or(false),
            None => self.sat.value(l.var()).unwrap_or(false),
        };
        if l.is_pos() {
            v
        } else {
            !v
        }
    }

    /// Underlying SAT statistics. In portfolio mode this is the
    /// field-wise sum over every worker of every query so far.
    pub fn stats(&self) -> fec_sat::SolverStats {
        match self.portfolio.as_ref() {
            Some(p) => p.agg,
            None => self.sat.stats(),
        }
    }

    /// Number of SAT variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.sat.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(s.scope_depth(), 0);
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
        assert_eq!(s.lit_const(true), t);
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
        let mut s = SmtSolver::new_certifying();
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
        let backend = SolveBackend::Portfolio(PortfolioConfig::with_jobs(3));
        let mut s = SmtSolver::new_certifying_with_backend(backend);
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
        let mut s = SmtSolver::with_backend(SolveBackend::Single);
        assert!(s.last_portfolio().is_none());
        let x = s.fresh_lit();
        s.add_clause(&[x]);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(x));
    }

    #[test]
    fn certifying_solver_handles_cardinality_workout() {
        let mut s = SmtSolver::new_certifying();
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
        let count = crate::UnaryInt::from_register(
            s.counting_register(&xs, crate::CardEncoding::Totalizer),
        );
        count.assert_le(s, 5);
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
        count.assert_le(s, 3);
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
        for mut s in [
            SmtSolver::new_certifying(),
            SmtSolver::new_certifying_with_backend(portfolio()),
        ] {
            assert_eq!(scripted_session(&mut s), expected);
            let stats = s.certificate_stats().unwrap();
            assert_eq!(stats.models_validated, 4);
            assert_eq!(stats.unsat_certified, 2);
        }
    }
}
