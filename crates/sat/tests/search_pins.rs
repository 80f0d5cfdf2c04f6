//! Pins of the CDCL search itself: the verdict and every `SolverStats`
//! counter of a fixed battery of instances.
//!
//! The battery covers the solver's paths that decide *which literal is
//! enqueued when*: a hard pigeonhole refutation that runs learnt-clause
//! database reduction, random 3-SAT near the phase transition, a
//! guarded incremental session in the style of `fec-smt`'s push/pop
//! (scopes closed by a unit `¬g`, assumptions rotating between calls),
//! and a run with DRAT proof logging on. A change to clause storage,
//! bookkeeping or proof logging that claims to leave the search alone
//! must leave every number here unchanged; a heuristic change must
//! re-record them and say why.

use fec_sat::{Lit, SolveResult, Solver, SolverStats, Var};

/// Deterministic linear congruential generator (Numerical Recipes
/// constants), so the battery does not depend on an RNG crate.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 16) % n
    }

    fn lit(&mut self, nv: usize) -> Lit {
        let v = Var::from_index(self.below(nv as u64) as usize);
        Lit::with_sign(v, self.below(2) == 0)
    }
}

fn pigeonhole(s: &mut Solver, np: usize, nh: usize) {
    let base = s.num_vars();
    for _ in 0..np * nh {
        s.new_var();
    }
    let v = |p: usize, h: usize| Lit::pos(Var::from_index(base + p * nh + h));
    for p in 0..np {
        let c: Vec<Lit> = (0..nh).map(|h| v(p, h)).collect();
        s.add_clause(&c);
    }
    for h in 0..nh {
        for p1 in 0..np {
            for p2 in (p1 + 1)..np {
                s.add_clause(&[!v(p1, h), !v(p2, h)]);
            }
        }
    }
}

/// `round(ratio · nv)` random ternary clauses over `nv` variables.
fn random_3sat(s: &mut Solver, seed: u64, nv: usize, ratio: f64) {
    let mut rng = Lcg(seed);
    while s.num_vars() < nv {
        s.new_var();
    }
    for _ in 0..(nv as f64 * ratio).round() as usize {
        let c: Vec<Lit> = (0..3).map(|_| rng.lit(nv)).collect();
        s.add_clause(&c);
    }
}

/// A `fec-smt`-style session: a satisfiable random base, then 24
/// scopes, each a fresh guard `g`, a batch of clauses `¬g ∨ c`, one
/// solve under `g` plus a rotating assumption, and a closing unit
/// `¬g`. Returns every verdict.
fn guarded_session(s: &mut Solver) -> Vec<SolveResult> {
    const NV: usize = 80;
    random_3sat(s, 0x5eed, NV, 3.6);
    let mut rng = Lcg(0xfec);
    let mut verdicts = Vec::new();
    for scope in 0..24 {
        let g = Lit::pos(s.new_var());
        for _ in 0..70 {
            let mut c: Vec<Lit> = (0..3).map(|_| rng.lit(NV)).collect();
            c.push(!g);
            s.add_clause(&c);
        }
        let rotating = Lit::with_sign(Var::from_index(scope % NV), scope % 3 == 0);
        verdicts.push(s.solve(&[g, rotating]));
        s.add_clause(&[!g]);
    }
    verdicts.push(s.solve(&[]));
    verdicts
}

#[allow(clippy::too_many_arguments)]
fn stats(
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    learnt_clauses: u64,
    deleted_clauses: u64,
    solve_calls: u64,
) -> SolverStats {
    SolverStats {
        conflicts,
        decisions,
        propagations,
        restarts,
        learnt_clauses,
        deleted_clauses,
        solve_calls,
        exported_clauses: 0,
        imported_clauses: 0,
        rejected_clauses: 0,
    }
}

#[test]
fn pigeonhole_8_into_7_search_is_pinned() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 8, 7);
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    let got = s.stats();
    assert!(got.deleted_clauses > 0, "the battery must run reduce_db");
    assert_eq!(got, stats(4537, 5585, 57566, 23, 4526, 1996, 1));
}

#[test]
fn random_3sat_near_the_threshold_is_pinned() {
    let expected: [(u64, SolveResult, SolverStats); 4] = [
        (
            1,
            SolveResult::Sat,
            stats(1823, 2323, 61320, 12, 1823, 0, 1),
        ),
        (
            2,
            SolveResult::Unsat,
            stats(2314, 2845, 69108, 13, 2307, 0, 1),
        ),
        (
            3,
            SolveResult::Unsat,
            stats(1571, 1886, 48229, 9, 1561, 0, 1),
        ),
        (4, SolveResult::Sat, stats(295, 408, 9758, 2, 295, 0, 1)),
    ];
    let got: Vec<_> = expected
        .iter()
        .map(|&(seed, _, _)| {
            let mut s = Solver::new();
            random_3sat(&mut s, seed, 150, 4.26);
            let r = s.solve(&[]);
            (seed, r, s.stats())
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn guarded_incremental_session_is_pinned() {
    let mut s = Solver::new();
    let verdicts = guarded_session(&mut s);
    use SolveResult::{Sat, Unsat};
    let expected = [
        Sat, Sat, Sat, Unsat, Sat, Unsat, Sat, Sat, Unsat, Unsat, Unsat, Unsat, Unsat, Unsat, Sat,
        Sat, Sat, Unsat, Unsat, Sat, Sat, Unsat, Unsat, Unsat, Sat,
    ];
    assert_eq!(verdicts, expected);
    assert_eq!(s.stats(), stats(1068, 1419, 23039, 3, 1055, 0, 25));
    s.check_invariants();
}

#[test]
fn proof_logging_leaves_the_search_alone() {
    // the same session with proof logging on: logging must not steer
    let mut plain = Solver::new();
    let plain_verdicts = guarded_session(&mut plain);
    let mut logged = Solver::new();
    logged.enable_proof();
    let logged_verdicts = guarded_session(&mut logged);
    assert_eq!(logged_verdicts, plain_verdicts);
    assert_eq!(logged.stats(), plain.stats());
    assert!(!logged.take_proof().is_empty());

    let mut s = Solver::new();
    s.enable_proof();
    pigeonhole(&mut s, 7, 6);
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    assert_eq!(s.stats(), stats(716, 871, 9405, 5, 711, 0, 1));
}
