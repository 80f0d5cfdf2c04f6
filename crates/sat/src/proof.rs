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
use std::io::Write;
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

/// Streams the proof as standard DRAT text (one clause per line,
/// DIMACS literals, `0`-terminated; deletions prefixed with `d`).
/// Input clauses are emitted as `c i ...` comment lines so one file
/// carries both the formula and the proof for external cross-checking;
/// standard DRAT tools ignore comment lines.
pub struct DratTextLogger<W: Write> {
    out: W,
}

impl<W: Write> DratTextLogger<W> {
    /// Wraps a writer. Buffer it (`BufWriter`) for file targets.
    pub fn new(out: W) -> DratTextLogger<W> {
        DratTextLogger { out }
    }

    /// Unwraps the inner writer (e.g. to flush or inspect).
    pub fn into_inner(self) -> W {
        self.out
    }

    fn write_clause(&mut self, prefix: &str, lits: &[Lit]) {
        let mut line = String::with_capacity(prefix.len() + 6 * lits.len() + 2);
        line.push_str(prefix);
        for l in lits {
            line.push_str(&l.to_string());
            line.push(' ');
        }
        line.push_str("0\n");
        // a full disk is not a solver error; certification uses the
        // in-memory stream, the file is for external tools
        let _ = self.out.write_all(line.as_bytes());
    }
}

impl<W: Write> ProofLogger for DratTextLogger<W> {
    fn input(&mut self, lits: &[Lit]) {
        self.write_clause("c i ", lits);
    }
    fn learn(&mut self, lits: &[Lit]) {
        self.write_clause("", lits);
    }
    fn delete(&mut self, lits: &[Lit]) {
        self.write_clause("d ", lits);
    }
}

/// Forwards every step to two loggers (e.g. memory + DRAT file).
pub struct TeeProofLogger<A, B>(pub A, pub B);

impl<A: ProofLogger, B: ProofLogger> ProofLogger for TeeProofLogger<A, B> {
    fn input(&mut self, lits: &[Lit]) {
        self.0.input(lits);
        self.1.input(lits);
    }
    fn learn(&mut self, lits: &[Lit]) {
        self.0.learn(lits);
        self.1.learn(lits);
    }
    fn delete(&mut self, lits: &[Lit]) {
        self.0.delete(lits);
        self.1.delete(lits);
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

    #[test]
    fn drat_text_format() {
        let mut l = DratTextLogger::new(Vec::new());
        l.input(&[lit(1), lit(2)]);
        l.learn(&[lit(-1)]);
        l.learn(&[]);
        l.delete(&[lit(-1)]);
        let text = String::from_utf8(l.into_inner()).unwrap();
        assert_eq!(text, "c i 1 2 0\n-1 0\n0\nd -1 0\n");
    }

    #[test]
    fn tee_duplicates() {
        let mem = MemoryProofLogger::new();
        let mut tee = TeeProofLogger(mem.clone(), DratTextLogger::new(Vec::new()));
        tee.learn(&[lit(3)]);
        assert_eq!(mem.len(), 1);
        let text = String::from_utf8(tee.1.into_inner()).unwrap();
        assert_eq!(text, "3 0\n");
    }
}
