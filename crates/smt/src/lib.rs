//! Finite-domain theory layer over the `fec-sat` CDCL core.
//!
//! The paper encodes generator synthesis in Z3's QF_UFLRA; every one of
//! its formulas, however, ranges over *bounded* domains fixed by the
//! user constants `L_G`, `L_d`, `L_c`, `L_w` (§3.2). This crate provides
//! the machinery to express those formulas directly over booleans:
//!
//! - [`SmtSolver`]: incremental solver with `push`/`pop` scopes
//!   (implemented with activation literals, so learnt clauses survive
//!   pops soundly), fresh variables, and budgeted solving. Every query
//!   runs on a `fec_portfolio::Pool` — one inline worker (the plain
//!   CDCL solver) by default, racing worker threads with `jobs > 1` —
//!   and certification (`PortfolioConfig::certify`) replays each
//!   worker's DRAT stream through one `fec-drat` checker per worker;
//! - Tseitin gadgets: `and2`, `xor2` and the balanced `xor_all` tree
//!   of the GF(2) products;
//! - cardinality constraints (the totalizer encoding): `at_most_k`,
//!   `at_least_k`, and unary counting registers bounded by
//!   `constrain_register_at_most`/`_at_least` (a symbolic `len_c` is
//!   such a register).
//!
//! # Example: at most 2 of 4 flags
//!
//! ```
//! use fec_smt::{SmtSolver, SmtResult};
//!
//! let mut s = SmtSolver::new();
//! let xs: Vec<_> = (0..4).map(|_| s.fresh_lit()).collect();
//! s.at_most_k(&xs, 2);
//! s.add_clause(&[xs[0]]);
//! s.add_clause(&[xs[1]]);
//! s.add_clause(&[xs[2]]);
//! assert_eq!(s.solve(&[]), SmtResult::Unsat);
//! ```

#![forbid(unsafe_code)]

mod card;
mod gadgets;
mod solver;

pub use solver::{CertificateStats, SmtResult, SmtSolver, SolveBackend};

pub use fec_portfolio::{PortfolioConfig, PortfolioStats};
pub use fec_sat::{Budget, Lit, Var};
