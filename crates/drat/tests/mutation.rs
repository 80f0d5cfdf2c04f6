//! Corruption tests: a valid proof stream, damaged in targeted ways,
//! must be rejected. This is the checker's reason to exist — if it
//! accepted corrupted proofs it would certify nothing.

use fec_drat::{CheckError, Checker};
use fec_sat::proof::ProofStep;
use fec_sat::{Lit, SolveResult, Solver, Var};

/// A pigeonhole instance: reliably UNSAT with a non-trivial proof.
fn pigeonhole_proof(np: usize, nh: usize) -> Vec<ProofStep> {
    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..np * nh {
        s.new_var();
    }
    let v = |p: usize, h: usize| Lit::pos(Var::from_index(p * nh + h));
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
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    s.take_proof()
}

fn check(steps: &[ProofStep]) -> Result<bool, CheckError> {
    let mut ck = Checker::new();
    ck.process_all(steps)?;
    Ok(ck.is_refuted())
}

#[test]
fn pristine_proof_is_accepted() {
    let steps = pigeonhole_proof(4, 3);
    assert!(steps
        .iter()
        .any(|s| matches!(s, ProofStep::Learn(l) if !l.is_empty())));
    assert!(check(&steps).expect("pristine proof accepted"));
}

#[test]
fn injected_unjustified_lemma_is_rejected() {
    let mut steps = pigeonhole_proof(4, 3);
    // an unconstrained fresh variable can never be a RUP unit
    let bogus = Lit::pos(Var::from_index(1000));
    let first_learn = steps
        .iter()
        .position(|s| matches!(s, ProofStep::Learn(_)))
        .expect("proof has lemmas");
    steps.insert(first_learn, ProofStep::Learn(vec![bogus]));
    let err = check(&steps).expect_err("bogus lemma must be rejected");
    match err {
        CheckError::RejectedLemma {
            step_index, lemma, ..
        } => {
            assert_eq!(step_index, first_learn);
            assert_eq!(lemma, vec![bogus]);
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn dropping_input_clauses_breaks_the_proof() {
    let steps = pigeonhole_proof(4, 3);
    // remove the pigeon ("each pigeon sits somewhere") clauses: the
    // remaining at-most-one constraints are satisfiable, so no chain of
    // lemmas ending in the empty clause can survive checking
    let damaged: Vec<ProofStep> = steps
        .iter()
        .filter(|s| !matches!(s, ProofStep::Input(l) if l.iter().all(|x| x.is_pos())))
        .cloned()
        .collect();
    assert!(damaged.len() < steps.len(), "mutation removed something");
    match check(&damaged) {
        Err(CheckError::RejectedLemma { .. }) => {}
        Ok(refuted) => assert!(
            !refuted,
            "proof of a satisfiable formula cannot end in refutation"
        ),
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn flipping_a_literal_in_a_lemma_is_caught() {
    let steps = pigeonhole_proof(5, 4);
    // flip one literal in each multi-literal lemma in turn; every
    // mutant must either be rejected outright or (rarely) still be a
    // valid RUP clause — but the *stream as logged* must never be
    // rejected, so at least verify the checker notices most flips
    let lemma_positions: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, ProofStep::Learn(l) if l.len() >= 2))
        .map(|(i, _)| i)
        .collect();
    assert!(!lemma_positions.is_empty());
    let mut rejected = 0usize;
    let sample: Vec<usize> = lemma_positions.iter().copied().take(10).collect();
    for &pos in &sample {
        let mut mutant = steps.clone();
        if let ProofStep::Learn(l) = &mut mutant[pos] {
            l[0] = !l[0];
        }
        if check(&mutant).is_err() {
            rejected += 1;
        }
    }
    assert!(
        rejected * 2 > sample.len(),
        "only {rejected}/{} flipped lemmas were rejected",
        sample.len()
    );
}

#[test]
fn truncated_proof_does_not_refute() {
    let steps = pigeonhole_proof(4, 3);
    assert_eq!(steps.last(), Some(&ProofStep::Learn(Vec::new())));
    // keep only the input clauses: every step checks (inputs need no
    // justification) but nothing is proved — pigeonhole inputs contain
    // no unit clauses, so propagation alone cannot refute them
    let inputs_only: Vec<ProofStep> = steps
        .iter()
        .filter(|s| matches!(s, ProofStep::Input(_)))
        .cloned()
        .collect();
    assert!(
        !check(&inputs_only).expect("inputs alone are always a valid stream"),
        "truncated proof must not certify UNSAT"
    );
}

#[test]
fn deletion_is_honored_when_checking_later_lemmas() {
    // handcrafted: with input (1 2) deleted, the lemma (2) loses its
    // justification — the checker must see the deletion, not check
    // against the original formula
    fn l(x: i32) -> Lit {
        Lit::with_sign(Var::from_index((x.unsigned_abs() - 1) as usize), x > 0)
    }
    let intact = vec![
        ProofStep::Input(vec![l(1), l(2)]),
        ProofStep::Input(vec![l(-1), l(2)]),
        ProofStep::Input(vec![l(1), l(-2)]),
        ProofStep::Input(vec![l(-1), l(-2)]),
        ProofStep::Learn(vec![l(2)]),
    ];
    assert!(check(&intact).is_ok(), "sanity: lemma (2) is RUP");
    let mut damaged = intact;
    damaged.insert(4, ProofStep::Delete(vec![l(1), l(2)]));
    let err = check(&damaged).expect_err("lemma must lose its justification");
    assert!(matches!(
        err,
        CheckError::RejectedLemma { step_index: 5, .. }
    ));
}
