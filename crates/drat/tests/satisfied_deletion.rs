//! Deleting satisfied input clauses stays certifiable.
//!
//! At the start of each `solve`, once the level-0 trail has grown, the
//! solver deletes the problem clauses satisfied at level 0 and logs a
//! DRAT `Delete` for each, so the stream deletes *input* clauses, not
//! only learnt ones. This test drives the case that produces them in
//! practice: a `fec-smt`-style incremental session whose scopes are
//! guarded by a fresh literal `g` and closed by the unit `¬g`, as
//! `SmtSolver::pop` does. The checker replays the stream as it grows,
//! must accept every step, and must certify every answer: each
//! assumption-UNSAT through the RUP of its negated failed assumptions,
//! each SAT through model validation.

use fec_drat::Checker;
use fec_sat::{Lit, ProofStep, SolveResult, Solver, Var};
use std::collections::HashSet;

/// Deterministic linear congruential generator (Numerical Recipes
/// constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 16) % n
    }

    fn clause(&mut self, nv: usize) -> Vec<Lit> {
        (0..3)
            .map(|_| {
                let v = Var::from_index(self.below(nv as u64) as usize);
                Lit::with_sign(v, self.below(2) == 0)
            })
            .collect()
    }
}

fn sorted(lits: &[Lit]) -> Vec<Lit> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Feeds the solver's new proof steps to the checker; returns how many
/// `Delete` steps named an input clause.
fn replay(s: &mut Solver, checker: &mut Checker, inputs: &mut HashSet<Vec<Lit>>) -> usize {
    let mut input_deletions = 0;
    for step in s.take_proof() {
        match &step {
            ProofStep::Input(lits) => {
                inputs.insert(sorted(lits));
            }
            ProofStep::Delete(lits) if inputs.contains(&sorted(lits)) => input_deletions += 1,
            _ => {}
        }
        checker
            .process(&step)
            .unwrap_or_else(|e| panic!("proof step rejected: {e}"));
    }
    input_deletions
}

fn certify(s: &Solver, checker: &mut Checker, verdict: SolveResult, assumptions: &[Lit]) {
    match verdict {
        SolveResult::Sat => checker
            .validate_model(|v| s.value(v), assumptions)
            .unwrap_or_else(|e| panic!("model rejected: {e}")),
        SolveResult::Unsat if !checker.is_refuted() => {
            let negated: Vec<Lit> = s.failed_assumptions().iter().map(|&a| !a).collect();
            assert!(
                checker.is_rup(&negated),
                "failed-assumption clause {negated:?} is not RUP"
            );
        }
        SolveResult::Unsat => {}
        SolveResult::Unknown => panic!("unbudgeted solve returned Unknown"),
    }
}

#[test]
fn guarded_scopes_closed_by_units_certify_with_input_deletions() {
    const NV: usize = 70;
    const SCOPES: usize = 24;
    let mut rng = Lcg(0xdead_beef);
    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..NV {
        s.new_var();
    }
    for _ in 0..200 {
        s.add_clause(&rng.clause(NV));
    }
    let mut checker = Checker::new();
    let mut inputs = HashSet::new();
    let (mut input_deletions, mut unsat, mut sat) = (0, 0, 0);
    for scope in 0..SCOPES {
        let g = Lit::pos(s.new_var());
        for _ in 0..60 {
            let mut c = rng.clause(NV);
            c.push(!g);
            s.add_clause(&c);
        }
        let assumptions = [g, Lit::with_sign(Var::from_index(scope), scope % 2 == 0)];
        let verdict = s.solve(&assumptions);
        input_deletions += replay(&mut s, &mut checker, &mut inputs);
        certify(&s, &mut checker, verdict, &assumptions);
        match verdict {
            SolveResult::Sat => sat += 1,
            _ => unsat += 1,
        }
        // close the scope as `SmtSolver::pop` does
        s.add_clause(&[!g]);
    }
    let verdict = s.solve(&[]);
    input_deletions += replay(&mut s, &mut checker, &mut inputs);
    certify(&s, &mut checker, verdict, &[]);
    assert!(sat > 0 && unsat > 0, "{sat} SAT and {unsat} UNSAT answers");
    assert!(
        input_deletions >= SCOPES * 60 / 2,
        "only {input_deletions} input clauses deleted"
    );
    // every step went through `process`, so every lemma was accepted
    assert!(checker.lemmas_accepted() as u64 >= s.stats().learnt_clauses);
}
