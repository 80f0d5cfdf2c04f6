//! DRAT proof logging.
//!
//! After [`Solver::enable_proof`](crate::Solver::enable_proof), the
//! solver records a chronological stream of [`ProofStep`]s, drained
//! with [`Solver::take_proof`](crate::Solver::take_proof):
//!
//! - [`ProofStep::Input`] — every clause handed to `add_clause`,
//!   *before* the solver normalizes it, so the stream doubles as a
//!   faithful record of the input formula;
//! - [`ProofStep::Learn`] — every clause derived by conflict analysis
//!   (including learned units and the empty clause on a level-0
//!   refutation), logged after minimization;
//! - [`ProofStep::Delete`] — every learnt clause tombstoned by database
//!   reduction, and every problem clause dropped because a level-0
//!   literal satisfies it (swept at the start of a `solve` once the
//!   level-0 trail has grown, e.g. after a scope's closing unit `¬g`).
//!
//! Learn/Delete steps are exactly DRAT addition and deletion lines; an
//! independent checker (the `fec-drat` crate) validates each learned
//! clause by reverse unit propagation over the inputs plus previously
//! accepted lemmas. Because the solver only ever *appends* to the
//! stream, incremental solving (multiple `solve` calls, clause additions
//! in between) is certified by replaying one stream.
//!
//! The stream is behind an `Option` checked once per learned/deleted
//! clause — never in the propagation loop — so disabled logging costs
//! one never-taken branch per *conflict*, which is unmeasurable (see the
//! `proof_logging` group of `crates/bench/benches/sat_solver.rs`).
//!
//! ```
//! use fec_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! s.enable_proof();
//! let v = s.new_var();
//! s.add_clause(&[Lit::pos(v)]);
//! s.add_clause(&[Lit::neg(v)]);
//! assert_eq!(s.solve(&[]), SolveResult::Unsat);
//! assert!(!s.take_proof().is_empty());
//! ```

use crate::types::Lit;

/// One entry of a proof stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStep {
    /// A clause added by the user (before normalization).
    Input(Vec<Lit>),
    /// A clause derived by the solver (DRAT addition line).
    Learn(Vec<Lit>),
    /// A clause removed from the database (DRAT deletion line).
    Delete(Vec<Lit>),
}
