//! A from-scratch CDCL SAT solver.
//!
//! This is the solving engine underneath the `fec-smt` theory layer and,
//! in turn, the CEGIS synthesizer in `fec-synth`. It replaces the two Z3
//! instances used by the paper (see DESIGN.md for the substitution
//! argument: every formula the paper builds is finite-domain, so
//! bit-level CDCL search is a complete decision procedure for them).
//!
//! Features:
//! - one paged, flat clause arena: each clause a 4-word header followed
//!   by its literals, in fixed pages of 64 Ki literals (the `clause`
//!   module says why pages), with values kept per literal,
//! - two-literal watching with blocker literals,
//! - first-UIP conflict analysis with clause minimization, reading
//!   reason clauses in place and counting LBD by per-level stamps, so
//!   a conflict allocates nothing beyond the clause it learns,
//! - EVSIDS branching with phase saving,
//! - Luby or geometric restarts (every heuristic knob is a public
//!   [`SolverConfig`] field, the substrate for portfolio
//!   diversification in `fec-portfolio`),
//! - LBD-based learnt-clause database reduction,
//! - a sweep of the problem clauses satisfied at level 0, run by
//!   `solve` whenever the level-0 trail has grown (after a scope's
//!   closing unit `¬g`, the scope's clauses go), logged as DRAT
//!   deletions,
//! - solving under assumptions (the substrate for push/pop scopes in
//!   `fec-smt`), with failed-assumption extraction,
//! - conflict and wall-clock budgets (the paper's 120 s solver timeout),
//! - cooperative cancellation via an atomic stop flag checked inside
//!   the propagation loop ([`Solver::set_stop_flag`]),
//! - learned-clause export/import hooks for portfolio clause sharing
//!   ([`Solver::set_export_hook`] / [`Solver::set_import_hook`]),
//! - optional DRAT proof logging (see [`proof`]), checked independently
//!   by the `fec-drat` crate.
//!
//! # Example
//!
//! ```
//! use fec_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]

mod clause;
mod config;
mod heap;
pub mod proof;
pub mod reference;
mod solver;
mod types;

pub use config::{PhaseInit, RestartPolicy, SolverConfig};
pub use proof::ProofStep;
pub use solver::{Budget, ExportHook, ImportHook, SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};
