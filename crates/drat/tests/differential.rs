//! Differential certification test: CDCL vs. the DPLL oracle on random
//! CNFs, CEGIS-shaped parity/cardinality encodings, and instances under
//! assumptions, with every verdict independently certified.
//!
//! For each seeded instance:
//! - the CDCL solver (with proof logging) and `fec_sat::reference` must
//!   agree on SAT/UNSAT;
//! - a SAT model must pass both the oracle's `check_model` and the
//!   checker's `validate_model` over the logged input clauses;
//! - an UNSAT proof stream must be accepted by the RUP checker and end
//!   in a refutation, or, under assumptions, make the negated
//!   failed-assumption subset RUP.

use fec_drat::Checker;
use fec_sat::{reference, Lit, SolveResult, Solver, Var};

/// Deterministic linear congruential generator (Numerical Recipes
/// constants) — no external RNG dependency, stable across platforms.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_cnf(rng: &mut Lcg) -> (usize, Vec<Vec<Lit>>) {
    let nv = 3 + rng.below(6) as usize; // 3..=8 variables
    let nc = 4 + rng.below(22) as usize; // 4..=25 clauses
    let clauses = (0..nc)
        .map(|_| {
            let width = 1 + rng.below(3) as usize; // 1..=3 literals
            (0..width)
                .map(|_| {
                    let v = Var::from_index(rng.below(nv as u64) as usize);
                    Lit::with_sign(v, rng.below(2) == 0)
                })
                .collect()
        })
        .collect();
    (nv, clauses)
}

/// Random 3-SAT at clause/variable ratio ≈ 4.2, the phase transition.
fn random_3sat(rng: &mut Lcg, nv: usize) -> Vec<Vec<Lit>> {
    let nc = (nv as f64 * 4.2).round() as usize;
    (0..nc)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let v = Var::from_index(rng.below(nv as u64) as usize);
                    Lit::with_sign(v, rng.below(2) == 0)
                })
                .collect()
        })
        .collect()
}

/// A small CEGIS-shaped instance, with the clause shapes `fec-smt`
/// feeds the solver: parity outputs `o = a ⊕ b` (the Tseitin XOR
/// clauses of the paper's verify encoding), a pairwise at-most-one
/// bound over the outputs, one or two outputs forced on (so a share of
/// the instances is UNSAT), and a few random ternary clauses.
fn cegis_shaped(rng: &mut Lcg) -> (usize, Vec<Vec<Lit>>) {
    let inputs = 4 + rng.below(4) as usize;
    let lit = |rng: &mut Lcg, nv: usize| {
        Lit::with_sign(
            Var::from_index(rng.below(nv as u64) as usize),
            rng.below(2) == 0,
        )
    };
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    let mut outs: Vec<Lit> = Vec::new();
    for i in 0..2 + rng.below(3) as usize {
        let (a, b) = (lit(rng, inputs), lit(rng, inputs));
        let o = Lit::pos(Var::from_index(inputs + i));
        clauses.push(vec![!a, !b, !o]);
        clauses.push(vec![a, b, !o]);
        clauses.push(vec![!a, b, o]);
        clauses.push(vec![a, !b, o]);
        outs.push(o);
    }
    for i in 0..outs.len() {
        for j in i + 1..outs.len() {
            clauses.push(vec![!outs[i], !outs[j]]);
        }
    }
    for &o in outs.iter().take(1 + rng.below(2) as usize) {
        clauses.push(vec![o]);
    }
    let nv = inputs + outs.len();
    for _ in 0..rng.below(4) {
        clauses.push((0..3).map(|_| lit(rng, nv)).collect());
    }
    (nv, clauses)
}

/// Solves `clauses` under `assumptions` with proof logging, checks the
/// verdict against the DPLL oracle, and certifies it. Returns `true`
/// on SAT.
fn agree_and_certify(case: usize, nv: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> bool {
    let mut with_units = clauses.to_vec();
    with_units.extend(assumptions.iter().map(|&a| vec![a]));
    let oracle = reference::solve(nv, &with_units);

    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..nv {
        s.new_var();
    }
    let mut ok = true;
    for c in clauses {
        ok = s.add_clause(c);
        if !ok {
            break;
        }
    }
    let cdcl = if ok {
        s.solve(assumptions)
    } else {
        SolveResult::Unsat
    };

    let mut checker = Checker::new();
    checker
        .process_all(&s.take_proof())
        .unwrap_or_else(|e| panic!("case {case}: proof rejected: {e}"));
    match (oracle.is_some(), cdcl) {
        (true, SolveResult::Sat) => {
            let model: Vec<bool> = (0..nv)
                .map(|i| s.value(Var::from_index(i)).unwrap_or(false))
                .collect();
            assert!(
                reference::check_model(&with_units, &model),
                "case {case}: CDCL model fails oracle check"
            );
            checker
                .validate_model(|v| model.get(v.index()).copied(), assumptions)
                .unwrap_or_else(|e| panic!("case {case}: model rejected: {e}"));
            true
        }
        (false, SolveResult::Unsat) if checker.is_refuted() => false,
        (false, SolveResult::Unsat) => {
            // assumption-UNSAT emits no refutation: the failed subset
            // must consist of assumptions and its negation must be RUP
            assert!(
                !assumptions.is_empty(),
                "case {case}: accepted proof does not refute the formula"
            );
            let failed = s.failed_assumptions();
            assert!(
                failed.iter().all(|l| assumptions.contains(l)),
                "case {case}: failed set {failed:?} not among {assumptions:?}"
            );
            let negated: Vec<Lit> = failed.iter().map(|&a| !a).collect();
            assert!(
                checker.is_rup(&negated),
                "case {case}: failed-assumption clause not RUP"
            );
            false
        }
        (oracle_sat, verdict) => panic!(
            "case {case}: disagreement — oracle says {}, CDCL says {verdict:?}",
            if oracle_sat { "SAT" } else { "UNSAT" }
        ),
    }
}

#[test]
fn five_hundred_random_instances_agree_and_certify() {
    let mut rng = Lcg(0x5DEECE66D);
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for case in 0..500 {
        let (nv, clauses) = random_cnf(&mut rng);
        if agree_and_certify(case, nv, &clauses, &[]) {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
        }
    }
    // the generator parameters straddle the phase transition; both
    // verdicts must actually occur for the test to mean anything
    assert!(sat_seen > 50, "only {sat_seen} SAT instances");
    assert!(unsat_seen > 50, "only {unsat_seen} UNSAT instances");
}

#[test]
fn cegis_shaped_and_assumption_instances_agree_and_certify() {
    let mut rng = Lcg(0xFEC5);
    let (mut sat_seen, mut unsat_seen, mut failed_seen) = (0u32, 0u32, 0u32);
    for case in 0..300 {
        let (nv, clauses, assumptions) = if case % 3 < 2 {
            let (nv, clauses) = cegis_shaped(&mut rng);
            (nv, clauses, Vec::new())
        } else {
            // 3-SAT under one or two assumption literals
            let nv = 5 + rng.below(8) as usize;
            let clauses = random_3sat(&mut rng, nv);
            let mut assumptions = Vec::new();
            for _ in 0..1 + rng.below(2) {
                let v = Var::from_index(rng.below(nv as u64) as usize);
                if assumptions.iter().all(|a: &Lit| a.var() != v) {
                    assumptions.push(Lit::with_sign(v, rng.below(2) == 0));
                }
            }
            (nv, clauses, assumptions)
        };
        if agree_and_certify(case, nv, &clauses, &assumptions) {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
            failed_seen += u32::from(!assumptions.is_empty());
        }
    }
    assert!(sat_seen > 30, "only {sat_seen} SAT instances");
    assert!(unsat_seen > 30, "only {unsat_seen} UNSAT instances");
    assert!(
        failed_seen > 10,
        "only {failed_seen} UNSAT under assumptions"
    );
}

#[test]
fn incremental_stream_with_assumptions_certifies() {
    // one solver, several solve calls with clause additions in between;
    // a single chronological stream certifies all of them
    let mut rng = Lcg(0xC0FFEE);
    for case in 0..60 {
        let (nv, clauses) = random_cnf(&mut rng);
        let mut s = Solver::new();
        s.enable_proof();
        for _ in 0..nv {
            s.new_var();
        }
        let mut checker = Checker::new();
        let mut ok = true;
        let half = clauses.len() / 2;
        for c in &clauses[..half] {
            ok = s.add_clause(c);
            if !ok {
                break;
            }
        }
        let assumption = Lit::pos(Var::from_index(0));
        for round in 0..2 {
            // the oracle solves everything added so far from scratch
            let mut added = clauses[..if round == 0 { half } else { clauses.len() }].to_vec();
            added.push(vec![assumption]);
            let expected = reference::solve(nv, &added).is_some();
            if ok && round == 1 {
                for c in &clauses[half..] {
                    ok = s.add_clause(c);
                    if !ok {
                        break;
                    }
                }
            }
            let verdict = if ok {
                s.solve(&[assumption])
            } else {
                SolveResult::Unsat
            };
            assert_eq!(
                verdict == SolveResult::Sat,
                expected,
                "case {case} round {round}: incremental verdict disagrees with the oracle"
            );
            checker
                .process_all(&s.take_proof())
                .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
            match verdict {
                SolveResult::Sat => {
                    checker
                        .validate_model(|v| s.value(v), &[assumption])
                        .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
                }
                SolveResult::Unsat => {
                    // certify the failed-assumption clause by transient RUP
                    let negated: Vec<Lit> = s.failed_assumptions().iter().map(|&a| !a).collect();
                    assert!(
                        checker.is_refuted() || checker.is_rup(&negated),
                        "case {case} round {round}: failed-assumption clause not RUP"
                    );
                }
                SolveResult::Unknown => unreachable!("no budget set"),
            }
        }
    }
}
