//! Static validation of a [`Circuit`] against a generator matrix.
//!
//! The proof engine is a symbolic GF(2) evaluator: each node's value
//! is its exact *linear form* — the [`BitVec`] of input bits it XORs
//! together (XOR of two forms is their symmetric difference, so a
//! dynamic-programming pass over the gate list computes every form in
//! `O(gates · k / 64)` words). An output is correct iff its form
//! equals the generator's check column *as a set*; a mismatch is
//! reported per-bit as `missing-term` / `extra-term`, which is what
//! lets mutation tests pin a dropped term vs. a flipped coefficient to
//! distinct lint classes. Structural defects (bad references, unbound
//! outputs) are linted first and poison only the affected forms.

use crate::{LintClass, Report, Severity};
use fec_codegen::{Circuit, Node, Output};
use fec_gf2::BitVec;
use fec_hamming::Generator;
use std::collections::HashMap;

/// Validates `c` against `g`, proving (or refuting) that every output
/// computes exactly its generator column.
///
/// Error-class lints (`input-range`, `unbound-output`,
/// `width-overflow`, `missing-term`, `extra-term`) refute the
/// circuit; `dead-gate` / `duplicate-gate` are warnings. A valid
/// report (`Report::is_valid`) *is* the equivalence proof: the
/// symbolic forms were computed exactly, not sampled.
pub fn validate_circuit(c: &Circuit, g: &Generator) -> Report {
    let mut report = Report {
        diags: Vec::new(),
        xor_count: c.xor_count(),
        outputs: g.check_len(),
    };
    if g.check_len() > 64 {
        report.push(
            LintClass::WidthOverflow,
            Severity::Error,
            None,
            format!(
                "generator has {} check bits; circuit outputs pack into a u64",
                g.check_len()
            ),
        );
        return report;
    }
    if c.inputs() != g.data_len() {
        report.push(
            LintClass::InputRange,
            Severity::Error,
            None,
            format!(
                "circuit has {} inputs but generator data_len is {}",
                c.inputs(),
                g.data_len()
            ),
        );
        return report;
    }
    if c.outputs().len() != g.check_len() {
        report.push(
            LintClass::UnboundOutput,
            Severity::Error,
            None,
            format!(
                "circuit has {} outputs but generator check_len is {}",
                c.outputs().len(),
                g.check_len()
            ),
        );
        return report;
    }

    let k = c.inputs();
    // Symbolic forms, one per gate; None marks a form poisoned by a
    // structural error (already reported) so equivalence checking
    // doesn't cascade bogus term diffs from it.
    let mut forms: Vec<Option<BitVec>> = Vec::with_capacity(c.gates().len());
    for (gi, gate) in c.gates().iter().enumerate() {
        let mut resolve = |n: Node| -> Option<BitVec> {
            match n {
                Node::Input(i) => {
                    if (i as usize) < k {
                        let mut f = BitVec::zeros(k);
                        f.set(i as usize, true);
                        Some(f)
                    } else {
                        report.push(
                            LintClass::InputRange,
                            Severity::Error,
                            None,
                            format!("gate {gi} reads input {i}, but data_len is {k}"),
                        );
                        None
                    }
                }
                Node::Gate(p) => {
                    if (p as usize) < gi {
                        forms[p as usize].clone()
                    } else {
                        report.push(
                            LintClass::UnboundOutput,
                            Severity::Error,
                            None,
                            format!("gate {gi} references gate {p} (forward or self)"),
                        );
                        None
                    }
                }
            }
        };
        let fa = resolve(gate.a);
        let fb = resolve(gate.b);
        forms.push(match (fa, fb) {
            (Some(mut a), Some(b)) => {
                a ^= &b;
                Some(a)
            }
            _ => None,
        });
    }

    // duplicate-gate: identical linear forms computed twice
    let mut seen: HashMap<&BitVec, usize> = HashMap::new();
    for (gi, form) in forms.iter().enumerate() {
        if let Some(f) = form {
            if let Some(&first) = seen.get(f) {
                report.push(
                    LintClass::DuplicateGate,
                    Severity::Warning,
                    None,
                    format!("gate {gi} recomputes the value of gate {first}"),
                );
            } else {
                seen.insert(f, gi);
            }
        }
    }

    // dead-gate: liveness walk back from the outputs
    let mut live = vec![false; c.gates().len()];
    let mut stack: Vec<u32> = Vec::new();
    for o in c.outputs() {
        if let Output::Node(Node::Gate(gx)) = *o {
            stack.push(gx);
        }
    }
    while let Some(gx) = stack.pop() {
        let gi = gx as usize;
        if gi >= c.gates().len() || live[gi] {
            continue;
        }
        live[gi] = true;
        for n in [c.gates()[gi].a, c.gates()[gi].b] {
            if let Node::Gate(p) = n {
                stack.push(p);
            }
        }
    }
    for (gi, alive) in live.iter().enumerate() {
        if !alive {
            report.push(
                LintClass::DeadGate,
                Severity::Warning,
                None,
                format!("gate {gi} is not reachable from any output"),
            );
        }
    }

    // equivalence: every output's form must equal its check column
    for (j, o) in c.outputs().iter().enumerate() {
        let form: Option<BitVec> = match *o {
            Output::Unbound => {
                report.push(
                    LintClass::UnboundOutput,
                    Severity::Error,
                    Some(j),
                    format!("output {j} is unbound"),
                );
                None
            }
            Output::Zero => Some(BitVec::zeros(k)),
            Output::Node(Node::Input(i)) => {
                if (i as usize) < k {
                    let mut f = BitVec::zeros(k);
                    f.set(i as usize, true);
                    Some(f)
                } else {
                    report.push(
                        LintClass::InputRange,
                        Severity::Error,
                        Some(j),
                        format!("output {j} reads input {i}, but data_len is {k}"),
                    );
                    None
                }
            }
            Output::Node(Node::Gate(gx)) => {
                if (gx as usize) < c.gates().len() {
                    forms[gx as usize].clone()
                } else {
                    report.push(
                        LintClass::UnboundOutput,
                        Severity::Error,
                        Some(j),
                        format!("output {j} references missing gate {gx}"),
                    );
                    None
                }
            }
        };
        if let Some(form) = form {
            compare_form(&mut report, j, &form, &g.check_column(j));
        }
    }
    report
}

/// Diffs a computed linear form against the required generator column,
/// reporting each absent required term as `missing-term` and each
/// spurious term as `extra-term`.
pub(crate) fn compare_form(report: &mut Report, column: usize, got: &BitVec, want: &BitVec) {
    for y in want.iter_ones() {
        if !got.get(y) {
            report.push(
                LintClass::MissingTerm,
                Severity::Error,
                Some(column),
                format!("check bit {column} must XOR data bit {y}, but the computed form omits it"),
            );
        }
    }
    for y in got.iter_ones() {
        if !want.get(y) {
            report.push(
                LintClass::ExtraTerm,
                Severity::Error,
                Some(column),
                format!("check bit {column} XORs data bit {y}, which the generator column does not contain"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_hamming::standards;

    #[test]
    fn faithful_circuits_validate_for_all_builders() {
        let g = standards::shortened_hamming(21, 6).unwrap();
        let cols: Vec<_> = (0..g.check_len()).map(|j| g.check_column(j)).collect();
        let circs = [
            Circuit::from_generator(&g),
            Circuit::from_columns(g.data_len(), &cols),
            crate::minimize(&g).circuit,
        ];
        for c in &circs {
            let r = validate_circuit(c, &g);
            assert!(r.is_valid(), "{:?}", r.diags);
            assert_eq!(r.xor_count, c.xor_count());
        }
    }

    #[test]
    fn wide_flagship_circuit_validates() {
        let g = standards::ieee_8023df_128_120();
        let r = validate_circuit(&Circuit::from_generator(&g), &g);
        assert!(r.is_valid(), "{:?}", r.diags);
    }

    #[test]
    fn dropped_term_is_missing_term() {
        let g = standards::hamming_extended_8_4();
        let mut cols: Vec<_> = (0..g.check_len()).map(|j| g.check_column(j)).collect();
        let y = cols[0].iter_ones().next().unwrap();
        cols[0].set(y, false); // drop one required term
        let c = Circuit::from_columns(g.data_len(), &cols);
        let r = validate_circuit(&c, &g);
        assert!(!r.is_valid());
        assert!(r.has_class(LintClass::MissingTerm));
        assert!(!r.has_class(LintClass::ExtraTerm));
    }

    #[test]
    fn flipped_zero_coefficient_is_extra_term() {
        let g = standards::hamming_extended_8_4();
        let mut cols: Vec<_> = (0..g.check_len()).map(|j| g.check_column(j)).collect();
        let y = (0..g.data_len()).find(|&y| !cols[1].get(y)).unwrap();
        cols[1].set(y, true); // flip a 0 coefficient on
        let c = Circuit::from_columns(g.data_len(), &cols);
        let r = validate_circuit(&c, &g);
        assert!(!r.is_valid());
        assert!(r.has_class(LintClass::ExtraTerm));
        assert!(!r.has_class(LintClass::MissingTerm));
    }

    #[test]
    fn structural_defects_are_linted() {
        let g = standards::hamming_extended_8_4();
        // unbound output
        let c = Circuit::new(g.data_len(), g.check_len());
        let r = validate_circuit(&c, &g);
        assert!(r.has_class(LintClass::UnboundOutput) && !r.is_valid());

        // out-of-range input
        let mut c = Circuit::from_generator(&g);
        c.bind_output(0, Output::Node(Node::Input(63)));
        let r = validate_circuit(&c, &g);
        assert!(r.has_class(LintClass::InputRange) && !r.is_valid());

        // dead and duplicate gates are warnings only
        let mut c = Circuit::from_generator(&g);
        let n = c.push_gate(Node::Input(0), Node::Input(1));
        let _ = c.push_gate(Node::Input(1), Node::Input(0)); // same value, also dead
        let _ = n;
        let r = validate_circuit(&c, &g);
        assert!(r.is_valid());
        assert!(r.has_class(LintClass::DeadGate));
        assert!(r.has_class(LintClass::DuplicateGate));
    }
}
