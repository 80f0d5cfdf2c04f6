//! Independent DRAT/RUP proof checker and model validator.
//!
//! This crate re-derives the solver's verdicts from first principles.
//! It shares only the *vocabulary* with `fec-sat` ([`Lit`], [`Var`],
//! [`ProofStep`]) — the propagation engine, clause storage, and checking
//! logic are written from scratch so that a bug in the solver cannot
//! silently agree with itself.
//!
//! # What is checked
//!
//! The solver (with proof logging enabled) emits a chronological
//! stream of [`ProofStep`]s. [`Checker::process`] replays that stream:
//!
//! - **Input** clauses are admitted without justification — they *are*
//!   the formula.
//! - **Learn** clauses must have the RUP property (reverse unit
//!   propagation): assuming the negation of every literal of the lemma
//!   and running unit propagation over the live clause database must
//!   produce a conflict. A lemma that fails is rejected with a
//!   diagnostic naming the step and the offending clause.
//! - **Delete** steps remove one live clause with the given literal
//!   set; deleting a clause that is not in the database is an error.
//!
//! A refutation is certified when the stream derives the empty clause
//! (directly, or because unit propagation of admitted clauses is
//! already contradictory) — see [`Checker::is_refuted`].
//!
//! Checking is *forward*: each lemma is validated against the clauses
//! live at its position in the stream, the operational DRAT semantics
//! used by drat-trim.
//!
//! One deliberate laxity, shared with drat-trim: literals fixed by unit
//! propagation stay fixed even if a clause that implied them is later
//! deleted. The solver does delete such clauses — a problem clause
//! satisfied at level 0 goes, even when it is the reason of the
//! root-level literal that satisfies it — but every deleted clause was
//! part of the formula or an accepted lemma, and every lemma was
//! justified at its own acceptance time, so the final refutation
//! remains sound.
//!
//! # Model validation
//!
//! For satisfiable answers, [`Checker::validate_model`] replays the
//! claimed assignment against every recorded input clause (as given,
//! before the solver normalizes it) and against the assumption
//! literals of the query.

#![forbid(unsafe_code)]

use fec_sat::{Lit, ProofStep, Var};
use std::collections::HashMap;
use std::fmt;

/// Why a proof stream or model was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// A learned clause is not derivable by reverse unit propagation
    /// from the clauses live at its position in the stream.
    RejectedLemma {
        /// 0-based index of the offending step in the stream.
        step_index: usize,
        /// 0-based ordinal among `Learn` steps.
        lemma_index: usize,
        /// The rejected clause.
        lemma: Vec<Lit>,
    },
    /// A `Delete` step names a clause that is not live.
    UnknownDeletion {
        /// 0-based index of the offending step in the stream.
        step_index: usize,
        /// The clause the stream tried to delete.
        clause: Vec<Lit>,
    },
    /// The claimed model falsifies an input clause.
    ModelClauseViolated {
        /// 0-based index into the recorded input clauses.
        clause_index: usize,
        /// The violated clause.
        clause: Vec<Lit>,
    },
    /// The claimed model does not satisfy an assumption of the query.
    ModelAssumptionViolated {
        /// The violated assumption literal.
        assumption: Lit,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::RejectedLemma {
                step_index,
                lemma_index,
                lemma,
            } => write!(
                f,
                "step {step_index}: lemma #{lemma_index} {} is not RUP",
                fmt_clause(lemma)
            ),
            CheckError::UnknownDeletion { step_index, clause } => write!(
                f,
                "step {step_index}: deletion of unknown clause {}",
                fmt_clause(clause)
            ),
            CheckError::ModelClauseViolated {
                clause_index,
                clause,
            } => write!(
                f,
                "model falsifies input clause #{clause_index} {}",
                fmt_clause(clause)
            ),
            CheckError::ModelAssumptionViolated { assumption } => {
                write!(f, "model falsifies assumption {assumption}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

fn fmt_clause(lits: &[Lit]) -> String {
    let mut s = String::from("(");
    for (i, l) in lits.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&l.to_string());
    }
    s.push(')');
    s
}

struct CClause {
    /// Sorted, deduplicated literals.
    lits: Vec<Lit>,
    /// Positions of the two watched literals (meaningful iff `watched`).
    w: [u32; 2],
    watched: bool,
    deleted: bool,
}

/// Forward RUP checker over a solver proof stream.
///
/// ```
/// use fec_sat::{Solver, Lit, SolveResult};
/// use fec_drat::Checker;
///
/// let mut s = Solver::new();
/// s.enable_proof();
/// let v = s.new_var();
/// s.add_clause(&[Lit::pos(v)]);
/// s.add_clause(&[Lit::neg(v)]);
/// assert_eq!(s.solve(&[]), SolveResult::Unsat);
///
/// let mut checker = Checker::new();
/// checker.process_all(&s.take_proof()).expect("proof accepted");
/// assert!(checker.is_refuted());
/// ```
#[derive(Default)]
pub struct Checker {
    /// Per-variable value: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    clauses: Vec<CClause>,
    /// `watches[l.index()]` lists clauses currently watching `l`.
    watches: Vec<Vec<u32>>,
    /// Sorted literal set → live clause ids, for deletion lookup.
    by_key: HashMap<Vec<Lit>, Vec<u32>>,
    /// Input clauses exactly as logged (pre-normalization), for model
    /// validation.
    inputs: Vec<Vec<Lit>>,
    refuted: bool,
    steps: usize,
    lemmas_seen: usize,
    lemmas_accepted: usize,
}

impl Checker {
    /// An empty checker: no clauses, nothing derived.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// `true` once the stream has certified unsatisfiability (the empty
    /// clause was derived, or unit propagation of the admitted clauses
    /// is contradictory).
    pub fn is_refuted(&self) -> bool {
        self.refuted
    }

    /// Number of lemmas accepted so far.
    pub fn lemmas_accepted(&self) -> usize {
        self.lemmas_accepted
    }

    /// The input clauses recorded so far, as logged.
    pub fn inputs(&self) -> &[Vec<Lit>] {
        &self.inputs
    }

    /// Processes one step of the proof stream.
    pub fn process(&mut self, step: &ProofStep) -> Result<(), CheckError> {
        let step_index = self.steps;
        self.steps += 1;
        match step {
            ProofStep::Input(lits) => {
                self.inputs.push(lits.clone());
                self.insert_clause(lits);
                Ok(())
            }
            ProofStep::Learn(lits) => {
                let lemma_index = self.lemmas_seen;
                self.lemmas_seen += 1;
                if !self.is_rup(lits) {
                    return Err(CheckError::RejectedLemma {
                        step_index,
                        lemma_index,
                        lemma: lits.clone(),
                    });
                }
                self.lemmas_accepted += 1;
                self.insert_clause(lits);
                Ok(())
            }
            ProofStep::Delete(lits) => {
                let key = normalize(lits);
                let slot = self.by_key.get_mut(&key).and_then(|ids| ids.pop());
                match slot {
                    Some(cid) => {
                        self.clauses[cid as usize].deleted = true;
                        Ok(())
                    }
                    None => Err(CheckError::UnknownDeletion {
                        step_index,
                        clause: lits.clone(),
                    }),
                }
            }
        }
    }

    /// Processes a whole stream, stopping at the first error.
    pub fn process_all<'a, I>(&mut self, steps: I) -> Result<(), CheckError>
    where
        I: IntoIterator<Item = &'a ProofStep>,
    {
        for s in steps {
            self.process(s)?;
        }
        Ok(())
    }

    /// Transient RUP test: is `lemma` derivable by unit propagation
    /// from the live clauses, *without* adding it? This is how an
    /// assumption-UNSAT answer is certified: the solver claims the
    /// clause ¬a₁ ∨ … ∨ ¬aₖ over its failed assumptions, which must be
    /// RUP with respect to inputs plus accepted lemmas.
    pub fn is_rup(&mut self, lemma: &[Lit]) -> bool {
        if self.refuted {
            return true; // everything follows from a refuted formula
        }
        for l in lemma {
            self.ensure_var(l.var());
        }
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in lemma {
            match self.value(!l) {
                1 => {} // already assumed (duplicate literal)
                -1 => {
                    // l is true — as a fixed fact or an opposite
                    // assumption of this very lemma — so the negated
                    // lemma is contradictory outright
                    conflict = true;
                    break;
                }
                _ => self.assign_true(!l),
            }
        }
        let conflict = conflict || self.propagate();
        // undo the transient assignments
        for i in mark..self.trail.len() {
            self.assign[self.trail[i].var().index()] = 0;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        conflict
    }

    /// Validates a satisfying assignment: every recorded input clause
    /// must contain a literal the model makes true, and every
    /// assumption of the query must hold.
    ///
    /// `value` maps a variable to its claimed truth value (`None` is
    /// treated as unassigned and satisfies nothing).
    pub fn validate_model<F>(&self, value: F, assumptions: &[Lit]) -> Result<(), CheckError>
    where
        F: Fn(Var) -> Option<bool>,
    {
        for &a in assumptions {
            if value(a.var()) != Some(a.is_pos()) {
                return Err(CheckError::ModelAssumptionViolated { assumption: a });
            }
        }
        for (clause_index, clause) in self.inputs.iter().enumerate() {
            let satisfied = clause.iter().any(|&l| value(l.var()) == Some(l.is_pos()));
            if !satisfied {
                return Err(CheckError::ModelClauseViolated {
                    clause_index,
                    clause: clause.clone(),
                });
            }
        }
        Ok(())
    }

    // ---- internals ----------------------------------------------------

    fn ensure_var(&mut self, v: Var) {
        let need = v.index() + 1;
        if self.assign.len() < need {
            self.assign.resize(need, 0);
            self.watches.resize(need * 2, Vec::new());
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var().index()];
        if l.is_pos() {
            a
        } else {
            -a
        }
    }

    /// Assigns `l` true. Caller must have checked `l` is unassigned.
    #[inline]
    fn assign_true(&mut self, l: Lit) {
        self.assign[l.var().index()] = if l.is_pos() { 1 } else { -1 };
        self.trail.push(l);
    }

    /// Unit propagation from the current queue head; `true` on a
    /// conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let falsified = !p;
            let ws = std::mem::take(&mut self.watches[falsified.index()]);
            let mut keep: Vec<u32> = Vec::with_capacity(ws.len());
            let mut i = 0;
            while i < ws.len() {
                let cid = ws[i];
                i += 1;
                let (watched, deleted, w, other) = {
                    let c = &self.clauses[cid as usize];
                    let slot = usize::from(c.lits[c.w[0] as usize] != falsified);
                    let other = c.lits[c.w[1 - slot] as usize];
                    (c.watched, c.deleted, slot, other)
                };
                if deleted || !watched {
                    continue; // stale entry of a removed clause
                }
                if self.value(other) == 1 {
                    keep.push(cid);
                    continue;
                }
                // look for an unfalsified literal to watch instead
                let mut replacement = None;
                {
                    let c = &self.clauses[cid as usize];
                    for (j, &lj) in c.lits.iter().enumerate() {
                        if j as u32 == c.w[0] || j as u32 == c.w[1] {
                            continue;
                        }
                        if self.value(lj) != -1 {
                            replacement = Some((j as u32, lj));
                            break;
                        }
                    }
                }
                match replacement {
                    Some((j, lj)) => {
                        self.clauses[cid as usize].w[w] = j;
                        self.watches[lj.index()].push(cid);
                    }
                    None => {
                        keep.push(cid);
                        if self.value(other) == -1 {
                            // every literal false: conflict
                            keep.extend_from_slice(&ws[i..]);
                            self.watches[falsified.index()] = keep;
                            self.qhead = self.trail.len();
                            return true;
                        }
                        self.assign_true(other);
                    }
                }
            }
            self.watches[falsified.index()] = keep;
        }
        false
    }

    /// Admits a clause into the live database, watching it / fixing its
    /// unit consequence as the current fixed assignment dictates.
    fn insert_clause(&mut self, raw: &[Lit]) {
        for l in raw {
            self.ensure_var(l.var());
        }
        let lits = normalize(raw);
        let cid = self.clauses.len() as u32;
        self.by_key.entry(lits.clone()).or_default().push(cid);
        let tautology = lits.windows(2).any(|w| w[1] == !w[0]);
        self.clauses.push(CClause {
            lits,
            w: [0, 0],
            watched: false,
            deleted: false,
        });
        if self.refuted || tautology {
            return;
        }
        let mut satisfied = false;
        let mut free: Vec<u32> = Vec::new();
        for (j, &l) in self.clauses[cid as usize].lits.iter().enumerate() {
            match self.value(l) {
                1 => {
                    satisfied = true;
                    break;
                }
                0 => free.push(j as u32),
                _ => {}
            }
        }
        if satisfied {
            // a permanently-true literal satisfies it in every
            // extension of the fixed assignment: no watches needed
            return;
        }
        match free.len() {
            0 => {
                // falsified outright by fixed literals — the formula is
                // refuted (this is how an explicit empty clause, and a
                // clause the fixed assignment contradicts, both land)
                self.refuted = true;
            }
            1 => {
                let u = self.clauses[cid as usize].lits[free[0] as usize];
                self.assign_true(u);
                self.refuted = self.propagate();
            }
            _ => {
                let c = &mut self.clauses[cid as usize];
                c.w = [free[0], free[1]];
                c.watched = true;
                let (w0, w1) = (c.lits[free[0] as usize], c.lits[free[1] as usize]);
                self.watches[w0.index()].push(cid);
                self.watches[w1.index()].push(cid);
            }
        }
    }
}

/// Sorted, deduplicated literal set — the identity of a clause for
/// deletion matching (the solver permutes literals during search).
fn normalize(lits: &[Lit]) -> Vec<Lit> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(x: i32) -> Lit {
        Lit::with_sign(Var::from_index((x.unsigned_abs() - 1) as usize), x > 0)
    }

    fn clause(xs: &[i32]) -> Vec<Lit> {
        xs.iter().map(|&x| lit(x)).collect()
    }

    fn inputs(cnf: &[&[i32]]) -> Vec<ProofStep> {
        cnf.iter().map(|c| ProofStep::Input(clause(c))).collect()
    }

    #[test]
    fn accepts_resolution_refutation() {
        // (1 2)(−1 2)(1 −2)(−1 −2) refuted via lemmas (2) then ()
        let mut steps = inputs(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        steps.push(ProofStep::Learn(clause(&[2])));
        steps.push(ProofStep::Learn(vec![]));
        let mut ck = Checker::new();
        ck.process_all(&steps).unwrap();
        assert!(ck.is_refuted());
        assert_eq!(ck.lemmas_accepted(), 2);
    }

    #[test]
    fn rejects_non_rup_lemma() {
        let mut steps = inputs(&[&[1, 2]]);
        steps.push(ProofStep::Learn(clause(&[1]))); // not implied
        let mut ck = Checker::new();
        let err = ck.process_all(&steps).unwrap_err();
        assert_eq!(
            err,
            CheckError::RejectedLemma {
                step_index: 1,
                lemma_index: 0,
                lemma: clause(&[1]),
            }
        );
    }

    #[test]
    fn rejects_premature_empty_clause() {
        let mut steps = inputs(&[&[1, 2], &[-1, 2]]);
        steps.push(ProofStep::Learn(vec![]));
        let mut ck = Checker::new();
        assert!(matches!(
            ck.process_all(&steps),
            Err(CheckError::RejectedLemma { step_index: 2, .. })
        ));
    }

    #[test]
    fn unit_conflict_in_inputs_refutes_without_lemmas() {
        let steps = inputs(&[&[1], &[-1, 2], &[-2]]);
        let mut ck = Checker::new();
        ck.process_all(&steps).unwrap();
        assert!(ck.is_refuted());
    }

    #[test]
    fn deletion_removes_clause_from_propagation() {
        let mut ck = Checker::new();
        ck.process(&ProofStep::Input(clause(&[-1, 2]))).unwrap();
        assert!(ck.is_rup(&clause(&[-1, 2])));
        ck.process(&ProofStep::Delete(clause(&[2, -1]))).unwrap(); // order-insensitive
        assert!(!ck.is_rup(&clause(&[-1, 2])));
    }

    #[test]
    fn deleting_unknown_clause_is_an_error() {
        let mut ck = Checker::new();
        ck.process(&ProofStep::Input(clause(&[1, 2]))).unwrap();
        let err = ck.process(&ProofStep::Delete(clause(&[1, 3]))).unwrap_err();
        assert!(matches!(
            err,
            CheckError::UnknownDeletion { step_index: 1, .. }
        ));
    }

    #[test]
    fn transient_rup_does_not_pollute_state() {
        let mut ck = Checker::new();
        ck.process_all(&inputs(&[&[1, 2], &[-2, 3]])).unwrap();
        assert!(ck.is_rup(&clause(&[1, 3]))); // ¬1 ∧ ¬3 propagates 2 then conflict on (−2 3)
        assert!(!ck.is_rup(&clause(&[1])));
        // repeated checks see the same (clean) fixed state
        assert!(ck.is_rup(&clause(&[1, 3])));
    }

    #[test]
    fn model_validation_accepts_and_rejects() {
        let mut ck = Checker::new();
        ck.process_all(&inputs(&[&[1, 2], &[-1, 3]])).unwrap();
        let good = |v: Var| Some([true, false, true][v.index()]);
        ck.validate_model(good, &[]).unwrap();
        ck.validate_model(good, &[lit(1), lit(3)]).unwrap();
        let err = ck.validate_model(good, &[lit(2)]).unwrap_err();
        assert_eq!(
            err,
            CheckError::ModelAssumptionViolated { assumption: lit(2) }
        );
        let bad = |v: Var| Some([true, false, false][v.index()]);
        let err = ck.validate_model(bad, &[]).unwrap_err();
        assert!(matches!(
            err,
            CheckError::ModelClauseViolated {
                clause_index: 1,
                ..
            }
        ));
    }
}
