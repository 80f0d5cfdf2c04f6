//! Algorithm 1: counterexample-guided inductive synthesis of
//! generators, with bound-tightening optimization.
//!
//! Two solver instances cooperate, exactly as in §3.3/§3.4:
//!
//! - the **synthesizer** holds symbolic generators, the structural
//!   constraints extracted from the property (lengths, cell pins,
//!   `len_1` cardinality), and the accumulated counterexamples;
//! - one **verifier** per generator holds the φ_md distance-violation
//!   circuit over its own symbolic cells; a candidate is checked by
//!   *assuming* its cell values (`makeAssertion`), which keeps the
//!   verifier fully incremental across iterations.
//!
//! Optimization (`minimal(e)` / `maximal(e)`) runs the outer
//! bound-tightening loop of Algorithm 1: each successful synthesis
//! tightens the bound past the achieved value until the solver fails
//! or the run's timeout expires. Every intermediate optimum is kept
//! (the paper's §4.4 uses exactly those 82 intermediate generators).
//! `maximal(md(Gi))` is one more bound of that loop: the verifier of
//! `Gi` counts codeword weight in a unary register, and bound `d` is the
//! single assumption `¬weight[d − 1]` beside the candidate pins.

use crate::encode::{CexMode, SymbolicGenerator};
use crate::spec::Prop;
use fec_analyze::bounds;
use fec_analyze::shape::{SpecError, DEFAULT_MAX_CHECK};
use fec_gf2::BitVec;
use fec_hamming::Generator;
use fec_smt::{Budget, Lit, PortfolioConfig, SmtResult, SmtSolver};
use fec_trace::Level;
use std::fmt;
use std::time::{Duration, Instant};

/// Tunables for a synthesis run.
#[derive(Clone, Copy, Debug)]
pub struct SynthesisConfig {
    /// Wall-clock budget for the whole run — the paper's "solver
    /// timeout of 120 s". Every bound of an optimization and every
    /// solver call inside it share one deadline; when it cuts an
    /// optimization short, the best solution so far comes back with
    /// [`SynthesisResult::optimal`] unset.
    pub timeout: Duration,
    /// Counterexample generalization mode (ablation axis).
    pub cex_mode: CexMode,
    /// Keep counterexamples across optimization bounds (sound in both
    /// modes; the paper re-derives them per bound — set `false` for
    /// paper-faithful behaviour).
    pub persist_counterexamples: bool,
    /// Certify every solver verdict: learned clauses are re-validated
    /// by the independent `fec-drat` RUP checker, models are replayed
    /// against the input clauses, and each verifier UNSAT (the step
    /// that declares a candidate correct) must come with a checkable
    /// certificate. A disagreement panics — see
    /// [`fec_smt::SmtSolver::with_config`].
    pub check_certificates: bool,
    /// Number of portfolio workers racing each solver query; `1` (the
    /// default) is one inline worker per solver, the plain incremental
    /// solver (the CLI's `--jobs N`).
    pub jobs: usize,
    /// Run the `fec-analyze` coding-bounds gate before building any
    /// solver: parameter points the bounds refute return `NoSolution`
    /// instantly (with the certificate on the trace), minimize-check
    /// iteration is clamped above the statically-infeasible window,
    /// and maximize-distance iteration stops at the static `d_hi`.
    /// The default is on; the differential soundness suite turns it
    /// off to compare raw CEGIS verdicts against the analyzer.
    pub static_analysis: bool,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            timeout: Duration::from_secs(120),
            cex_mode: CexMode::DataWord,
            persist_counterexamples: true,
            check_certificates: false,
            jobs: 1,
            static_analysis: true,
        }
    }
}

/// Synthesis failure.
#[derive(Clone, PartialEq, Debug)]
pub enum SynthError {
    /// The property uses a construct the structural extractor does not
    /// support (the paper's tool has the same shape: props are compiled
    /// into solver assertions, not interpreted).
    Unsupported(String),
    /// The property is structurally inconsistent (e.g. conflicting
    /// equalities).
    Inconsistent(String),
    /// The constraints admit no generator.
    NoSolution,
    /// Budget exhausted before any solution was found.
    Timeout,
}

impl SynthError {
    /// Stable machine-readable kind, used by the CLI's structured
    /// error lines (`error kind=<kind> ...`).
    pub fn kind(&self) -> &'static str {
        match self {
            SynthError::Unsupported(_) => "unsupported",
            SynthError::Inconsistent(_) => "inconsistent",
            SynthError::NoSolution => "no-solution",
            SynthError::Timeout => "timeout",
        }
    }
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Unsupported(s) => write!(f, "unsupported property: {s}"),
            SynthError::Inconsistent(s) => write!(f, "inconsistent property: {s}"),
            SynthError::NoSolution => write!(f, "no generator satisfies the property"),
            SynthError::Timeout => write!(f, "timeout before any solution"),
        }
    }
}

impl std::error::Error for SynthError {}

impl From<SpecError> for SynthError {
    fn from(e: SpecError) -> SynthError {
        match e {
            SpecError::Unsupported(s) => SynthError::Unsupported(s),
            SpecError::Inconsistent(s) => SynthError::Inconsistent(s),
        }
    }
}

/// A successful synthesis.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// The final (best) generators.
    pub generators: Vec<Generator>,
    /// Total CEGIS iterations (synthesizer proposals), the paper's
    /// "iterations" column.
    pub iterations: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Every optimization success, as (objective value, generators) —
    /// e.g. the 82 intermediate generators of §4.4.
    pub intermediates: Vec<(i64, Vec<Generator>)>,
    /// `false` when the timeout ended the bound loop, so `generators`
    /// is the best solution found rather than a proven optimum; `true`
    /// when the loop ran to its end (or there was nothing to optimize).
    pub optimal: bool,
}

// The property language, structural extraction (`ProblemShape`,
// `GenShape`, `Objective`), and the coding-bounds engine live in
// `fec-analyze`; re-exported here so existing `cegis::ProblemShape`
// call sites keep compiling.
pub use fec_analyze::shape::{GenShape, Objective, ProblemShape};

/// One verifier instance: symbolic cells plus the φ_md circuit.
pub(crate) struct VerifierInstance {
    pub(crate) solver: SmtSolver,
    pub(crate) sym: SymbolicGenerator,
    witness_lits: Vec<Lit>,
    /// The codeword-weight register of the `maximal(md)` generator,
    /// whose distance is a per-bound assumption; `None` when the
    /// spec's fixed distance is a unit clause in the solver.
    weight: Option<Vec<Lit>>,
}

impl VerifierInstance {
    /// The violating data word of the last SAT answer.
    pub(crate) fn witness(&self) -> BitVec {
        BitVec::from_bools(
            &self
                .witness_lits
                .iter()
                .map(|&l| self.solver.model_lit(l))
                .collect::<Vec<_>>(),
        )
    }
}

/// The live solver state of one CEGIS run: the synthesizer, its
/// symbolic generators, and one distance verifier per generator. It is
/// built once per run and only grows: learned clauses, VSIDS
/// activities, and saved phases persist from one iteration (and one
/// bound) to the next, which is sound because consecutive queries
/// differ only by added constraints under the activation-literal
/// discipline.
pub(crate) struct SynthState {
    pub(crate) syn: SmtSolver,
    pub(crate) syms: Vec<SymbolicGenerator>,
    pub(crate) verifiers: Vec<Option<VerifierInstance>>,
    /// The `len_1` counting register of a `minimal`/`maximal(len_1)`
    /// generator, built once so each bound is one unit clause (empty
    /// for other objectives).
    ones: Vec<Lit>,
}

/// A bound of the optimization loop: the objective and its value.
pub(crate) type Bound = Option<(Objective, i64)>;

/// The Algorithm 1 driver.
pub struct Synthesizer {
    pub(crate) config: SynthesisConfig,
}

impl Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Synthesizer {
        Synthesizer { config }
    }

    /// Runs synthesis for a parsed property.
    pub fn run(&mut self, prop: &Prop) -> Result<SynthesisResult, SynthError> {
        let shape = self.shape_of(prop)?;
        self.run_shape(&shape)
    }

    /// The structural constraints of a parsed property, read from its
    /// canonical form as `fecsynth analyze` reads them; an open check
    /// window ends at [`DEFAULT_MAX_CHECK`].
    pub(crate) fn shape_of(&self, prop: &Prop) -> Result<ProblemShape, SynthError> {
        crate::spec::typecheck(prop).map_err(|e| SynthError::Unsupported(e.to_string()))?;
        Ok(ProblemShape::from_prop(prop, DEFAULT_MAX_CHECK)?)
    }

    /// A solver honoring the configured certification and worker count.
    fn new_solver(&self) -> SmtSolver {
        SmtSolver::with_config(PortfolioConfig {
            certify: self.config.check_certificates,
            ..PortfolioConfig::with_jobs(self.config.jobs)
        })
    }

    /// Runs synthesis for pre-extracted structural constraints.
    pub fn run_shape(&mut self, shape: &ProblemShape) -> Result<SynthesisResult, SynthError> {
        let start = Instant::now();
        let deadline = start + self.config.timeout;
        let _run = fec_trace::span!(
            Level::Info,
            "cegis.run",
            "generators" => shape.gens.len(),
            "optimizing" => shape.objective.is_some(),
            "jobs" => self.config.jobs,
        );
        let shape = self.prepare(shape)?;
        let mut state = self.build(&shape);
        self.optimize(&shape, start, |bound, iterations| match bound {
            None => self.cegis(&mut state, &shape, None, deadline, iterations),
            Some((obj, b)) => {
                // the bound lives in a scope; counterexamples persist
                // inside the solver (at_root/permanent)
                state.syn.push();
                self.assert_bound(&mut state, obj, b);
                let r = self.cegis(&mut state, &shape, bound, deadline, iterations);
                state.syn.pop();
                r
            }
        })
    }

    /// Algorithm 1's outer loop: one `cegis_at(bound)` call without an
    /// objective, else one per bound while `canBeFurtherOptimized`,
    /// tightening past each achieved value until the solver fails or
    /// the run's deadline passes. The caller owns the solvers, so the
    /// warm driver and the from-scratch reference share this loop.
    pub(crate) fn optimize(
        &self,
        shape: &ProblemShape,
        start: Instant,
        mut cegis_at: impl FnMut(Bound, &mut u64) -> CegisOutcome,
    ) -> Result<SynthesisResult, SynthError> {
        let mut iterations = 0u64;
        let mut best: Option<Vec<Generator>> = None;
        let mut intermediates: Vec<(i64, Vec<Generator>)> = Vec::new();
        let mut optimal = true;
        match shape.objective {
            None => match cegis_at(None, &mut iterations) {
                CegisOutcome::Found(gens) => best = Some(gens),
                CegisOutcome::Exhausted => return Err(SynthError::NoSolution),
                CegisOutcome::Timeout => return Err(SynthError::Timeout),
            },
            Some(obj) => {
                let (mut bound, last) = self.bound_range(shape, obj);
                let step = match obj {
                    Objective::MinCheckLen(_) | Objective::MinOnes(_) => -1,
                    _ => 1,
                };
                // Algorithm 1 line 2: canBeFurtherOptimized
                while (last - bound) * step >= 0 {
                    fec_trace::event!(Level::Info, "synth.bound", "bound" => bound);
                    match cegis_at(Some((obj, bound)), &mut iterations) {
                        CegisOutcome::Found(gens) => {
                            let achieved = objective_value(&gens, obj, bound);
                            fec_trace::event!(Level::Info, "synth.optimum", "value" => achieved);
                            intermediates.push((achieved, gens.clone()));
                            best = Some(gens);
                            // o.success(): tighten past the achieved value
                            bound = achieved + step;
                        }
                        CegisOutcome::Exhausted => break, // o.failure()
                        // ran out of time before the first solution:
                        // that is a timeout, not a proof that no
                        // generator exists
                        CegisOutcome::Timeout if best.is_none() => return Err(SynthError::Timeout),
                        CegisOutcome::Timeout => {
                            optimal = false;
                            break;
                        }
                    }
                }
            }
        }
        let generators = best.ok_or(SynthError::NoSolution)?;
        fec_trace::event!(
            Level::Info,
            "cegis.done",
            "iterations" => iterations,
            "intermediates" => intermediates.len(),
            "optimal" => optimal,
            "elapsed_us" => start.elapsed().as_micros() as u64,
        );
        Ok(SynthesisResult {
            generators,
            iterations,
            elapsed: start.elapsed(),
            intermediates,
            optimal,
        })
    }

    /// With `static_analysis`, runs the coding-bounds gate and clamps
    /// the minimize-check window; then rejects what the solvers cannot
    /// express.
    pub(crate) fn prepare(&self, shape: &ProblemShape) -> Result<ProblemShape, SynthError> {
        let mut shape = shape.clone();
        if self.config.static_analysis {
            self.static_gate(&shape)?;
            self.clamp_min_check(&mut shape);
        }
        for gs in &shape.gens {
            if let Some(&(_, c, _)) = gs.pinned_cells.iter().find(|p| p.1 >= gs.check_hi) {
                return Err(SynthError::Inconsistent(format!(
                    "pinned cell column {c} exceeds check bound {}",
                    gs.check_hi
                )));
            }
        }
        Ok(shape)
    }

    /// Builds the synthesizer solver, its symbolic generators, and one
    /// distance verifier per generator that needs one: each with a
    /// fixed `md ≥ 2`, plus the `maximal(md)` generator, whose distance
    /// stays an assumption.
    pub(crate) fn build(&self, shape: &ProblemShape) -> SynthState {
        let mut syn = self.new_solver();
        let mut syms = Vec::with_capacity(shape.gens.len());
        for gs in &shape.gens {
            let sym = SymbolicGenerator::new(&mut syn, gs.data_len, gs.check_hi);
            syn.constrain_register_at_least(sym.len_c(), gs.check_lo);
            for &(r, c, v) in &gs.pinned_cells {
                let lit = sym.cell(r, c);
                syn.add_clause(&[if v { lit } else { !lit }]);
            }
            let cells = sym.all_cells();
            if let Some(hi) = gs.ones_hi {
                syn.at_most_k(&cells, hi);
            }
            if let Some(lo) = gs.ones_lo {
                syn.at_least_k(&cells, lo);
            }
            syms.push(sym);
        }

        let verifiers = (0..shape.gens.len())
            .map(|i| {
                let gs = &shape.gens[i];
                let per_bound = shape.objective == Some(Objective::MaxDistance(i));
                (per_bound || gs.min_distance >= 2).then(|| {
                    let mut solver = self.new_solver();
                    let sym = SymbolicGenerator::new(&mut solver, gs.data_len, gs.check_hi);
                    // the register counts as far as the largest distance
                    // this verifier is asked about
                    let max_d = if per_bound {
                        self.max_distance(gs)
                    } else {
                        gs.min_distance
                    };
                    let (witness_lits, weight) = sym.assert_distance_violation(&mut solver, max_d);
                    if !per_bound {
                        solver.constrain_register_at_most(&weight, gs.min_distance - 1);
                    }
                    VerifierInstance {
                        solver,
                        sym,
                        witness_lits,
                        weight: per_bound.then_some(weight),
                    }
                })
            })
            .collect();
        let ones = match shape.objective {
            Some(Objective::MinOnes(i) | Objective::MaxOnes(i)) => {
                let cells = syms[i].all_cells();
                syn.counting_register(&cells, cells.len())
            }
            _ => Vec::new(),
        };
        SynthState {
            syn,
            syms,
            verifiers,
            ones,
        }
    }

    /// The pre-solve feasibility gate: `NoSolution` without any solver
    /// when the coding bounds refute a generator's `[n, k, d]` point.
    /// Checked at the widest admissible check length, so a refutation
    /// covers the generator's whole check window; the certificate goes
    /// out as an `analyze.infeasible` trace event.
    fn static_gate(&self, shape: &ProblemShape) -> Result<(), SynthError> {
        for (i, g) in shape.gens.iter().enumerate() {
            let n = g.data_len + g.check_hi;
            if let Some(cert) = bounds::refute(n, g.data_len, g.min_distance) {
                fec_trace::event!(
                    Level::Info,
                    "analyze.infeasible",
                    "generator" => i,
                    "bound" => cert.bound,
                    "certificate" => cert.to_string(),
                );
                return Err(SynthError::NoSolution);
            }
        }
        Ok(())
    }

    /// Raises `check_lo` past check lengths the bounds refute, so the
    /// minimize-check loop terminates on arithmetic instead of proving
    /// the floor with one last UNSAT solver call.
    fn clamp_min_check(&self, shape: &mut ProblemShape) {
        let Some(Objective::MinCheckLen(i)) = shape.objective else {
            return;
        };
        let g = &mut shape.gens[i];
        let Some(r) =
            bounds::min_feasible_check(g.data_len, g.min_distance, g.check_lo, g.check_hi)
        else {
            return; // whole window refuted — static_gate already fired
        };
        if r > g.check_lo {
            fec_trace::event!(
                Level::Info,
                "analyze.clamp",
                "generator" => i,
                "check_lo" => g.check_lo,
                "clamped_to" => r,
            );
            g.check_lo = r;
        }
    }

    /// The bound the loop starts from and the last one it may try.
    /// `maximal(md)` stops at the static `d_hi` (with the gate on) or
    /// at `n`, since no distance exceeds the codeword length.
    fn bound_range(&self, shape: &ProblemShape, obj: Objective) -> (i64, i64) {
        let (Objective::MinCheckLen(i)
        | Objective::MaxCheckLen(i)
        | Objective::MinOnes(i)
        | Objective::MaxOnes(i)
        | Objective::MaxDistance(i)) = obj;
        let g = &shape.gens[i];
        let cells = g.data_len * g.check_hi;
        let ones_lo = g.ones_lo.unwrap_or(0);
        let ones_hi = g.ones_hi.map_or(cells, |hi| hi.min(cells));
        let (first, last) = match obj {
            Objective::MinCheckLen(_) => (g.check_hi, g.check_lo),
            Objective::MaxCheckLen(_) => (g.check_lo, g.check_hi),
            Objective::MinOnes(_) => (ones_hi, ones_lo),
            Objective::MaxOnes(_) => (ones_lo, ones_hi),
            Objective::MaxDistance(_) => {
                let d_hi = self.max_distance(g);
                if self.config.static_analysis {
                    fec_trace::event!(
                        Level::Info,
                        "analyze.clamp",
                        "generator" => i,
                        "d_hi" => d_hi,
                    );
                }
                (g.min_distance.max(1), d_hi)
            }
        };
        (first as i64, last as i64)
    }

    /// The last distance a `maximal(md)` loop tries: the static `d_hi`
    /// with the gate on, else `n`, since no distance exceeds the
    /// codeword length.
    fn max_distance(&self, g: &GenShape) -> usize {
        let n = g.data_len + g.check_hi;
        if self.config.static_analysis {
            bounds::distance_upper_bound(n, g.data_len)
        } else {
            n
        }
    }

    /// Asserts one bound on the synthesizer: a unit clause on the
    /// `len_c` or `len_1` register. `maximal(md)` has nothing to assert
    /// here: its bound is a verifier assumption.
    pub(crate) fn assert_bound(&self, state: &mut SynthState, obj: Objective, bound: i64) {
        let (syn, b) = (&mut state.syn, bound as usize);
        match obj {
            Objective::MinCheckLen(i) => syn.constrain_register_at_most(state.syms[i].len_c(), b),
            Objective::MaxCheckLen(i) => syn.constrain_register_at_least(state.syms[i].len_c(), b),
            Objective::MinOnes(_) => syn.constrain_register_at_most(&state.ones, b),
            Objective::MaxOnes(_) => syn.constrain_register_at_least(&state.ones, b),
            Objective::MaxDistance(_) => {}
        }
    }

    /// The inner synthesize–verify loop (Algorithm 1 lines 6–18).
    ///
    /// `state` is only ever extended: every synthesizer and verifier
    /// query reuses the learned clauses, VSIDS activities, and saved
    /// phases of all previous ones.
    fn cegis(
        &self,
        state: &mut SynthState,
        shape: &ProblemShape,
        bound: Bound,
        deadline: Instant,
        iterations: &mut u64,
    ) -> CegisOutcome {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return CegisOutcome::Timeout;
            }
            let budget = Budget::with_timeout(deadline - now);
            *iterations += 1;
            fec_trace::counter!(Level::Info, "cegis.iterations", 1);
            // each iteration is forward progress for the watchdog
            fec_trace::advance();
            let iter_start = Instant::now();
            let synth_verdict = {
                // "cegis.synth" vs "cegis.verify" span totals in the
                // metrics report give the synthesis/verification split
                let _sp = fec_trace::span!(Level::Info, "cegis.synth", "iteration" => *iterations);
                state.syn.solve_with_budget(&[], budget)
            };
            let synth_us = iter_start.elapsed().as_micros() as u64;
            match synth_verdict {
                SmtResult::Unsat => return CegisOutcome::Exhausted,
                SmtResult::Unknown => return CegisOutcome::Timeout,
                SmtResult::Sat => {}
            }
            let candidates: Vec<Generator> =
                state.syms.iter().map(|s| s.extract(&state.syn)).collect();
            fec_trace::event!(Level::Debug, "cegis.candidate", "iteration" => *iterations);
            let mut all_verified = true;
            let mut cex_this_iter = 0u64;
            let mut verify_us = 0u64;
            for (i, cand) in candidates.iter().enumerate() {
                let Some(ver) = state.verifiers[i].as_mut() else {
                    continue; // md ≤ 1: nothing to verify
                };
                let now = Instant::now();
                if now >= deadline {
                    return CegisOutcome::Timeout;
                }
                let budget = Budget::with_timeout(deadline - now);
                let d = required_distance(shape, bound, i);
                let mut assumptions = ver.sym.pin_assumptions(cand);
                if let Some(weight) = &ver.weight {
                    assumptions.push(!weight[d - 1]);
                }
                let verify_started = Instant::now();
                let verify_verdict = {
                    let _sp = fec_trace::span!(Level::Info, "cegis.verify", "generator" => i);
                    ver.solver.solve_with_budget(&assumptions, budget)
                };
                verify_us += verify_started.elapsed().as_micros() as u64;
                match verify_verdict {
                    SmtResult::Unsat => {} // verifier succeeded for this gen
                    SmtResult::Unknown => return CegisOutcome::Timeout,
                    SmtResult::Sat => {
                        all_verified = false;
                        cex_this_iter += 1;
                        fec_trace::counter!(Level::Info, "cegis.counterexamples", 1);
                        // both kinds are sound for every later bound (a
                        // maximal(md) bound only grows), so with
                        // persistence they go to the root
                        let persist = self.config.persist_counterexamples;
                        match self.config.cex_mode {
                            CexMode::BlockCandidate => {
                                let clause = state.syms[i].blocking_clause(&state.syn, cand);
                                if persist {
                                    state.syn.add_clause_permanent(&clause);
                                } else {
                                    state.syn.add_clause(&clause);
                                }
                            }
                            CexMode::DataWord => {
                                let x = ver.witness();
                                let sym = &state.syms[i];
                                if persist {
                                    state
                                        .syn
                                        .at_root(|s| sym.add_dataword_counterexample(s, &x, d));
                                } else {
                                    sym.add_dataword_counterexample(&mut state.syn, &x, d);
                                }
                            }
                        }
                    }
                }
            }
            // one self-describing record per iteration: how many
            // candidates were synthesized, how many counterexamples
            // came back, and where the time went (synth vs verify)
            let iter_us = iter_start.elapsed().as_micros() as u64;
            fec_trace::event!(
                Level::Debug,
                "cegis.iteration",
                "iteration" => *iterations,
                "candidates" => candidates.len(),
                "counterexamples" => cex_this_iter,
                "synth_us" => synth_us,
                "verify_us" => verify_us,
                "iter_us" => iter_us,
            );
            fec_trace::hist!(Level::Debug, "cegis.iter_us", iter_us);
            if all_verified {
                return CegisOutcome::Found(candidates);
            }
        }
    }
}

/// The distance generator `i` must reach at `bound`: the bound itself
/// for the `maximal(md)` generator, else the spec's fixed `md`.
fn required_distance(shape: &ProblemShape, bound: Bound, i: usize) -> usize {
    match bound {
        Some((Objective::MaxDistance(g), d)) if g == i => d as usize,
        _ => shape.gens[i].min_distance,
    }
}

/// The value a solution achieved at `bound`. For `maximal(md)` that is
/// the bound itself: the verifier proved `md ≥ bound`, nothing more.
fn objective_value(gens: &[Generator], obj: Objective, bound: i64) -> i64 {
    match obj {
        Objective::MinCheckLen(i) | Objective::MaxCheckLen(i) => gens[i].check_len() as i64,
        Objective::MinOnes(i) | Objective::MaxOnes(i) => gens[i].coefficient_ones() as i64,
        Objective::MaxDistance(_) => bound,
    }
}

pub(crate) enum CegisOutcome {
    Found(Vec<Generator>),
    Exhausted,
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;
    use fec_hamming::distance;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            timeout: Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn huge_check_window_verifier_is_linear_in_n() {
        // the fixed-md verifier's weight register counts only to md,
        // so a 30,004-bit codeword costs O(n · md) clauses, not the
        // full register's ~(n/2)² in its top merge alone
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 30000 && md(G0) = 3").unwrap();
        let synth = Synthesizer::new(quick_config());
        let state = synth.build(&synth.shape_of(&p).unwrap());
        let verifier = state.verifiers[0].as_ref().expect("md 3 needs a verifier");
        let n = 4 + 30_000;
        let clauses = verifier.solver.clauses_added();
        assert!(clauses < 40 * n, "{clauses} clauses for n = {n}");
    }

    #[test]
    fn portfolio_backend_synthesizes_hamming74() {
        let config = SynthesisConfig {
            jobs: 2,
            ..quick_config()
        };
        let p = parse_property("len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4").unwrap();
        let r = Synthesizer::new(config).run(&p).unwrap();
        let g = &r.generators[0];
        assert_eq!(g.data_len(), 4);
        assert!(g.check_len() <= 4);
        assert!(distance::min_distance_exhaustive(g) >= 3);
    }

    #[test]
    fn spec_errors_map_to_synth_errors() {
        // shape-extraction tests themselves live in fec-analyze; here
        // we only check the error mapping at the synthesis entry point
        let p = parse_property("len_d(G0) = 4 && len_d(G0) = 5").unwrap();
        let e = Synthesizer::new(quick_config()).run(&p).unwrap_err();
        assert!(matches!(e, SynthError::Inconsistent(_)), "{e:?}");
        assert_eq!(e.kind(), "inconsistent");
        let p = parse_property("len_d(G0) = 4 && sum_w < 3").unwrap();
        let e = Synthesizer::new(quick_config()).run(&p).unwrap_err();
        assert_eq!(e.kind(), "unsupported");
        // a contradiction is an error in any conjunct order, corr is
        // checked against a fixed md, and strict or constant conjuncts
        // read as the canonical form normalizes them
        let spec = |rest: &str| parse_property(&format!("len_d(G0) = 4 && {rest}")).unwrap();
        for rest in [
            "len_c(G0) = 4 && len_c(G0) = 5 && md(G0) = 3",
            "len_1(G0) = 3 && len_1(G0) = 9 && md(G0) = 2 && len_c(G0) = 3",
            "md(G0) = 3 && md(G0) >= 5 && len_c(G0) <= 8",
            "md(G0) = 3 && corr(G0) = 2 && len_c(G0) <= 8",
            "corr(G0) = 2 && md(G0) = 3 && len_c(G0) <= 8",
            "md(G0) = 3 && 2 < 1",
            "len_c(G0) = 4.5 && md(G0) = 3",
            "len_c(G0) = 3 && G0(0, 4) = 1 && G0(0, 4) = 0 && md(G0) = 3",
        ] {
            let e = Synthesizer::new(quick_config())
                .run(&spec(rest))
                .unwrap_err();
            assert_eq!(e.kind(), "inconsistent", "{rest}: {e}");
        }
        let synth = Synthesizer::new(quick_config());
        let shape = |rest: &str| synth.shape_of(&spec(rest)).map(|s| format!("{s:?}"));
        for (rest, same_as) in [
            (
                "md(G0) = 4 && corr(G0) >= 1 && len_c(G0) <= 6",
                "md(G0) >= 4 && len_c(G0) <= 6",
            ),
            (
                "corr(G0) = 1 && md(G0) = 4 && len_c(G0) <= 6",
                "md(G0) >= 4 && len_c(G0) <= 6",
            ),
            (
                "md(G0) >= 3 && md(G0) = 4 && len_c(G0) <= 6",
                "md(G0) >= 4 && len_c(G0) <= 6",
            ),
            (
                "md(G0) > 2 && len_c(G0) <= 4",
                "md(G0) >= 3 && len_c(G0) <= 4",
            ),
            ("md(G0) = 3 && 1 < 2", "md(G0) >= 3"),
            (
                "len_c(G0) < 4.0 && md(G0) = 3",
                "md(G0) >= 3 && len_c(G0) <= 3",
            ),
            (
                "len_c(G0) < 4.5 && md(G0) = 3",
                "md(G0) >= 3 && len_c(G0) <= 4",
            ),
            (
                "md(G0) >= 2.5 && len_c(G0) <= 4",
                "md(G0) >= 3 && len_c(G0) <= 4",
            ),
            (
                "len_c(G0) = 3 && G0(0, 4) = 1 && G0(0, 4) = 1 && md(G0) = 3",
                "len_c(G0) = 3 && G0(0, 4) = 1 && md(G0) = 3",
            ),
        ] {
            assert_eq!(shape(rest), shape(same_as), "{rest}");
            assert!(shape(rest).is_ok(), "{rest}");
        }
    }

    #[test]
    fn synthesizes_the_paper_74_example() {
        let p = parse_property(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        let g = &r.generators[0];
        assert_eq!(g.data_len(), 4);
        assert_eq!(g.check_len(), 3, "optimal Hamming (7,4) check length");
        assert_eq!(distance::min_distance_exhaustive(g), 3);
        assert!(r.iterations >= 1);
    }

    #[test]
    fn certified_synthesis_of_the_74_example() {
        // the full CEGIS loop under --check-proofs: every synthesizer
        // model validated and every verifier UNSAT (the step that
        // declares a candidate correct) certified by fec-drat
        let mut cfg = quick_config();
        cfg.check_certificates = true;
        let p = parse_property(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        let r = Synthesizer::new(cfg).run(&p).unwrap();
        let g = &r.generators[0];
        assert_eq!(g.check_len(), 3);
        assert_eq!(distance::min_distance_exhaustive(g), 3);
    }

    #[test]
    fn synthesizes_parity_code_md2() {
        // §4.3: "we first synthesized a generator with a single check
        // bit and minimum distance of 2 … functions exactly as an
        // even-parity bit"
        let p = parse_property("len_d(G0) = 16 && len_c(G0) = 1 && md(G0) = 2").unwrap();
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        let g = &r.generators[0];
        assert_eq!(g.check_len(), 1);
        // the only md-2 single-check-bit code is the all-ones column
        assert_eq!(g.coefficient_ones(), 16);
    }

    #[test]
    fn synthesizes_md4_with_minimized_checks() {
        let p = parse_property(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 8 && md(G0) = 4 && minimal(len_c(G0))",
        )
        .unwrap();
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        let g = &r.generators[0];
        assert_eq!(distance::min_distance_exhaustive(g), 4);
        // the optimal [8,4,4] extended Hamming shape
        assert_eq!(g.check_len(), 4, "known optimum for [n,4,4]");
        assert!(!r.intermediates.is_empty());
        assert!(r.optimal, "the descent ended on UNSAT, not the clock");
    }

    #[test]
    fn infeasible_distance_is_no_solution() {
        // md 3 with one check bit is impossible
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 1 && md(G0) = 3").unwrap();
        let e = Synthesizer::new(quick_config()).run(&p).unwrap_err();
        assert_eq!(e, SynthError::NoSolution);
    }

    #[test]
    fn block_candidate_mode_also_converges() {
        let mut cfg = quick_config();
        cfg.cex_mode = CexMode::BlockCandidate;
        let p = parse_property("len_d(G0) = 3 && len_c(G0) = 3 && md(G0) = 3").unwrap();
        let r = Synthesizer::new(cfg).run(&p).unwrap();
        assert_eq!(distance::min_distance_exhaustive(&r.generators[0]), 3);
    }

    #[test]
    fn pinned_cells_are_respected() {
        // force P[0][0] = 1 and P[0][1] = 0 via full-matrix coordinates
        // (columns 4 and 5 of the 4-data-bit generator)
        let p = parse_property(
            "len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 3 && G0(0, 4) = 1 && G0(0, 5) = 0",
        )
        .unwrap();
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        let g = &r.generators[0];
        assert!(g.coefficients().get(0, 0));
        assert!(!g.coefficients().get(0, 1));
        assert_eq!(distance::min_distance_exhaustive(g), 3);
    }

    #[test]
    fn multi_generator_synthesis() {
        let p = parse_property(
            "len_G = 2 && len_d(G0) = 4 && len_c(G0) = 3 && md(G0) = 3 \
             && len_d(G1) = 8 && len_c(G1) = 1 && md(G1) = 2",
        )
        .unwrap();
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        assert_eq!(r.generators.len(), 2);
        assert_eq!(distance::min_distance_exhaustive(&r.generators[0]), 3);
        assert_eq!(distance::min_distance_exhaustive(&r.generators[1]), 2);
    }

    #[test]
    fn corr_property_lowers_to_distance() {
        // §6: "number of correctable bit errors as a property" —
        // corr ≥ 2 ⟺ md ≥ 5; known optimum for [n,4,5] is 7 check bits,
        // far below the 11 of the paper's manual construction
        let p = parse_property(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && corr(G0) >= 2 && minimal(len_c(G0))",
        )
        .unwrap();
        let shape = ProblemShape::from_prop(&p, DEFAULT_MAX_CHECK).unwrap();
        assert_eq!(shape.gens[0].min_distance, 5);
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        let g = &r.generators[0];
        assert!(distance::min_distance_exhaustive(g) >= 5);
        assert_eq!(g.check_len(), 7, "[11,4,5] is the optimum");
        // and the synthesized code really corrects every 2-bit error
        let ctx = crate::spec::EvalContext::from_generators(vec![g.clone()]);
        let check = parse_property("corr(G0) >= 2").unwrap();
        assert!(ctx.eval_prop(&check).unwrap());
    }

    #[test]
    fn maximal_objective_grows_ones() {
        // a len_1 cap above the 9 cells must stop the climb at 9, not
        // ask the register for a 10th one
        for cap in ["", " && len_1(G0) <= 20"] {
            let p = parse_property(&format!(
                "len_d(G0) = 3 && len_c(G0) = 3 && md(G0) = 2 && maximal(len_1(G0)){cap}"
            ))
            .unwrap();
            let r = Synthesizer::new(quick_config()).run(&p).unwrap();
            // all 9 coefficient bits set still has md ≥ 2 (rows weight 3)
            assert_eq!(r.generators[0].coefficient_ones(), 9);
            assert!(r.optimal);
        }
    }

    #[test]
    fn minimize_ones_reaches_structural_floor() {
        // md 3 requires every row of P to have weight ≥ 2 → floor is 2k
        let p =
            parse_property("len_d(G0) = 4 && len_c(G0) = 4 && md(G0) = 3 && minimal(len_1(G0))")
                .unwrap();
        let r = Synthesizer::new(quick_config()).run(&p).unwrap();
        let g = &r.generators[0];
        assert_eq!(distance::min_distance_exhaustive(g), 3);
        assert_eq!(g.coefficient_ones(), 8, "2 per row is the floor");
    }

    #[test]
    fn static_gate_and_solver_agree_on_infeasible_point() {
        // the Singleton-violating (8, 4, 6) acceptance example: the
        // gate refutes it by arithmetic; with the gate off, CEGIS must
        // reach the same verdict the slow way
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 4 && md(G0) = 6").unwrap();
        let e = Synthesizer::new(quick_config()).run(&p).unwrap_err();
        assert_eq!(e, SynthError::NoSolution);
        let mut cfg = quick_config();
        cfg.static_analysis = false;
        let e = Synthesizer::new(cfg).run(&p).unwrap_err();
        assert_eq!(e, SynthError::NoSolution);
    }

    #[test]
    fn maximal_distance_finds_the_hamming_optimum() {
        // champion hunt at [7, 4]: the best achievable distance is 3,
        // and the static d_hi = 3 clamp ends the loop without a final
        // failing synthesis pass; one verifier answers d = 1, 2, 3 by
        // assumption, on the single solver and on the certified pool
        for cfg in [
            quick_config(),
            SynthesisConfig {
                jobs: 2,
                check_certificates: true,
                ..quick_config()
            },
        ] {
            let p = parse_property("len_d(G0) = 4 && len_c(G0) = 3 && maximal(md(G0))").unwrap();
            let r = Synthesizer::new(cfg).run(&p).unwrap();
            let g = &r.generators[0];
            assert_eq!(distance::min_distance_exhaustive(g), 3);
            let climb: Vec<i64> = r.intermediates.iter().map(|(d, _)| *d).collect();
            assert_eq!(climb, [1, 2, 3]);
            assert!(r.optimal);
        }
    }

    #[test]
    fn timeout_covers_the_whole_descent() {
        // [n, 10, 5] with len_c descending from 14: the first bounds
        // fall in milliseconds, but proving the last one takes far
        // longer than the timeout. One deadline for the whole run must
        // end it on time, with the best code found and no claim of
        // optimality (a per-bound deadline would restart the clock at
        // every bound).
        let timeout = Duration::from_secs(2);
        let p = parse_property(
            "len_d(G0) = 10 && 2 <= len_c(G0) <= 14 && md(G0) = 5 && minimal(len_c(G0))",
        )
        .unwrap();
        let started = Instant::now();
        let r = Synthesizer::new(SynthesisConfig {
            timeout,
            ..quick_config()
        })
        .run(&p)
        .unwrap();
        let elapsed = started.elapsed();
        assert!(!r.optimal, "a timed-out descent claimed its optimum");
        assert!(
            elapsed < timeout + Duration::from_millis(1500),
            "ran {elapsed:?} on a {timeout:?} budget"
        );
        assert!(distance::min_distance_exhaustive(&r.generators[0]) >= 5);
        assert_eq!(
            r.intermediates.last().unwrap().0,
            r.generators[0].check_len() as i64
        );
    }

    #[test]
    fn maximal_distance_without_analysis_matches() {
        // gate off: the loop must instead terminate on solver UNSAT at
        // d = 4 and still report the same champion
        let mut cfg = quick_config();
        cfg.static_analysis = false;
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 3 && maximal(md(G0))").unwrap();
        let r = Synthesizer::new(cfg).run(&p).unwrap();
        assert_eq!(distance::min_distance_exhaustive(&r.generators[0]), 3);
    }
}
