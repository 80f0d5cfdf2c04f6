//! DRAT proof logging.
//!
//! When a [`ProofLogger`](crate::ProofLogger) is installed on a
//! [`Solver`](crate::Solver), the solver emits a chronological stream of
//! [`ProofStep`]s:
//!
//! - [`ProofStep::Input`] — every clause handed to `add_clause`,
//!   *before* the solver normalizes it, so the stream doubles as a
//!   faithful record of the input formula;
//! - [`ProofStep::Learn`] — every clause derived by conflict analysis
//!   (including learned units and the empty clause on a level-0
//!   refutation), logged after minimization;
//! - [`ProofStep::Delete`] — every learnt clause tombstoned by database
//!   reduction.
//!
//! Learn/Delete steps are exactly DRAT addition and deletion lines; an
//! independent checker (the `fec-drat` crate) validates each learned
//! clause by reverse unit propagation over the inputs plus previously
//! accepted lemmas. Because the solver only ever *appends* to the
//! stream, incremental solving (multiple `solve` calls, clause additions
//! in between) is certified by replaying one stream.
//!
//! The logger is behind an `Option` checked once per learned/deleted
//! clause — never in the propagation loop — so a disabled logger costs
//! one never-taken branch per *conflict*, which is unmeasurable (see the
//! `sat_proof_overhead` bench).

use crate::types::Lit;
use std::cell::RefCell;
use std::rc::Rc;

/// One entry of a proof stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStep {
    /// A clause added by the user (before normalization).
    Input(Vec<Lit>),
    /// A clause derived by the solver (DRAT addition line).
    Learn(Vec<Lit>),
    /// A learnt clause removed from the database (DRAT deletion line).
    Delete(Vec<Lit>),
}

/// Receiver for the solver's proof stream.
///
/// Implementations must not panic on any well-formed input; the solver
/// calls these from inside its search loop.
pub trait ProofLogger {
    /// An input clause, exactly as passed to `add_clause`.
    fn input(&mut self, lits: &[Lit]);
    /// A derived clause (empty slice = the empty clause / refutation).
    fn learn(&mut self, lits: &[Lit]);
    /// A deleted learnt clause.
    fn delete(&mut self, lits: &[Lit]);
}

/// Collects the proof stream in memory.
///
/// Cloning yields a second handle to the *same* stream, which is how a
/// caller keeps access after moving one handle into the solver:
///
/// ```
/// use fec_sat::{MemoryProofLogger, Solver, Lit, SolveResult};
///
/// let log = MemoryProofLogger::new();
/// let mut s = Solver::new();
/// s.set_proof_logger(Box::new(log.clone()));
/// let v = s.new_var();
/// s.add_clause(&[Lit::pos(v)]);
/// s.add_clause(&[Lit::neg(v)]);
/// assert_eq!(s.solve(&[]), SolveResult::Unsat);
/// assert!(!log.take_steps().is_empty());
/// ```
#[derive(Clone, Default)]
pub struct MemoryProofLogger {
    steps: Rc<RefCell<Vec<ProofStep>>>,
}

impl MemoryProofLogger {
    /// An empty stream.
    pub fn new() -> MemoryProofLogger {
        MemoryProofLogger::default()
    }

    /// Removes and returns all steps logged since the last call.
    pub fn take_steps(&self) -> Vec<ProofStep> {
        std::mem::take(&mut self.steps.borrow_mut())
    }

    /// Number of steps currently buffered.
    pub fn len(&self) -> usize {
        self.steps.borrow().len()
    }

    /// `true` when no steps are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ProofLogger for MemoryProofLogger {
    fn input(&mut self, lits: &[Lit]) {
        self.steps
            .borrow_mut()
            .push(ProofStep::Input(lits.to_vec()));
    }
    fn learn(&mut self, lits: &[Lit]) {
        self.steps
            .borrow_mut()
            .push(ProofStep::Learn(lits.to_vec()));
    }
    fn delete(&mut self, lits: &[Lit]) {
        self.steps
            .borrow_mut()
            .push(ProofStep::Delete(lits.to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lit(x: i32) -> Lit {
        Lit::with_sign(Var::from_index((x.unsigned_abs() - 1) as usize), x > 0)
    }

    #[test]
    fn memory_logger_shares_stream_across_clones() {
        let a = MemoryProofLogger::new();
        let mut b = a.clone();
        b.learn(&[lit(1), lit(-2)]);
        assert_eq!(a.len(), 1);
        let steps = a.take_steps();
        assert_eq!(steps, vec![ProofStep::Learn(vec![lit(1), lit(-2)])]);
        assert!(a.is_empty() && b.is_empty());
    }
}
