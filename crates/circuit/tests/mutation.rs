//! Mutation tests: seed distinct defects into *emitted* circuit-form
//! sources and prove the validator not only rejects each one but names
//! the right lint class — a dropped term, a flipped-on coefficient, an
//! out-of-range shift, and a non-linear operator are four different
//! diagnoses, not one generic failure.

use fec_circ::{validate_source, Circuit, Lang, LintClass};
use fec_codegen::emit_c;
use fec_hamming::{standards, Generator};

/// The term classes that identify *which way* an encoder is wrong.
const TERM_CLASSES: [LintClass; 4] = [
    LintClass::MissingTerm,
    LintClass::ExtraTerm,
    LintClass::ShiftRange,
    LintClass::NonLinearOp,
];

fn code() -> Generator {
    standards::shortened_hamming(12, 5).unwrap()
}

fn diagnose(src: &str) -> Vec<LintClass> {
    let rep = validate_source(src, Lang::C, &code());
    assert!(!rep.is_valid(), "mutant must be refuted: {:?}", rep.diags);
    TERM_CLASSES
        .into_iter()
        .filter(|&c| rep.has_class(c))
        .collect()
}

/// The sparse encoder's C text: one XOR chain per check column, each
/// gate a `uint64_t tN = A ^ B;` line whose `B` is a data bit.
fn pristine() -> String {
    let g = code();
    let src = emit_c(&Circuit::from_generator(&g), None);
    // sanity: the unmutated source is proved equivalent
    let rep = validate_source(&src, Lang::C, &g);
    assert!(rep.is_valid(), "{:?}", rep.diags);
    src
}

/// Drops the data bit `B` from the first gate `tN = A ^ B;`.
fn drop_term(src: &str) -> String {
    let line = src
        .lines()
        .find(|l| l.trim_start().starts_with("uint64_t t"))
        .expect("sparse emission has gates");
    let (head, _) = line.split_once(" ^ ").expect("a gate is an xor");
    src.replacen(line, &format!("{head};"), 1)
}

/// XORs data bit `y` into check bit `j` after the bit is placed, where
/// the generator's coefficient `(y, j)` is 0.
fn add_term(src: &str) -> String {
    let g = code();
    let (y, j) = (0..12)
        .flat_map(|y| (0..5).map(move |j| (y, j)))
        .find(|&(y, j)| !g.coefficients().get(y, j))
        .expect("a zero coefficient exists");
    let line = src
        .lines()
        .find(|l| l.trim_start().starts_with("c |= (") && l.ends_with(&format!(" << {j};")))
        .expect("check bit j is placed");
    src.replacen(
        line,
        &format!("{line}\n    c ^= ((d >> {y}) & 1) << {j};"),
        1,
    )
}

/// Rewrites the first `(d >> y)` term's shift to `shift`.
fn bad_shift(src: &str, shift: u32) -> String {
    let at = src
        .find("(d >> ")
        .expect("sparse emission has shifted terms");
    let end = src[at..].find(')').unwrap() + at + 1;
    src.replacen(&src[at..end], &format!("(d >> {shift})"), 1)
}

#[test]
fn dropped_term_is_diagnosed_as_missing_term() {
    let src = pristine();
    let mutant = drop_term(&src);
    assert_ne!(mutant, src, "mutation must apply");
    assert_eq!(diagnose(&mutant), vec![LintClass::MissingTerm]);
}

#[test]
fn added_term_is_diagnosed_as_extra_term() {
    let src = pristine();
    let mutant = add_term(&src);
    assert_ne!(mutant, src, "mutation must apply");
    assert_eq!(diagnose(&mutant), vec![LintClass::ExtraTerm]);
}

#[test]
fn out_of_range_shift_is_diagnosed_as_shift_range() {
    let src = pristine();
    let mutant = bad_shift(&src, 99);
    assert_ne!(mutant, src, "mutation must apply");
    // the shift is refuted before any term accounting can happen
    assert_eq!(diagnose(&mutant), vec![LintClass::ShiftRange]);
}

#[test]
fn non_linear_operator_is_diagnosed_as_non_linear_op() {
    let src = pristine();
    let mutant = src.replacen(" ^ ", " + ", 1);
    assert_ne!(mutant, src, "mutation must apply");
    assert_eq!(diagnose(&mutant), vec![LintClass::NonLinearOp]);
}

#[test]
fn the_three_issue_mutations_are_pairwise_distinct() {
    // flipped coefficient, dropped term, out-of-range shift map to
    // three *different* classes
    let src = pristine();
    let dropped = diagnose(&drop_term(&src));
    let shifted = diagnose(&bad_shift(&src, 77));
    let flipped = diagnose(&add_term(&src));
    assert_ne!(dropped, shifted);
    assert_ne!(dropped, flipped);
    assert_ne!(shifted, flipped);
}
