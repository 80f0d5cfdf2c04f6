//! Malformed input never panics: arbitrary byte strings fed to the spec
//! pipeline (parse, typecheck, shape extraction, static analysis) and
//! to the coefficient-matrix parser come back as `Ok` or as an error.
//!
//! Each input is a well-formed spec or matrix with up to three random
//! edits (a token of the surface's alphabet or a raw byte inserted, or
//! a byte deleted), so cases reach every stage of the pipeline instead
//! of failing on the first byte. Edits may split a UTF-8 sequence; the
//! bytes are then read as text the way a command line or file reader
//! would, with U+FFFD for what is not UTF-8.
//!
//! The same specs, unmutated, also check that a spec has one meaning:
//! its shape (or error kind) does not depend on the order of its
//! conjuncts, and `analyze` reads it exactly as synthesis does.

use fec_analyze::spec::{parse_property, typecheck, Prop};
use fec_analyze::{analyze, ProblemShape, SpecError};
use fec_hamming::Generator;
use proptest::collection::vec;
use proptest::prelude::*;

/// The check-length window the synthesizer uses when a spec leaves it
/// open.
const DEFAULT_MAX_CHECK: usize = 14;

const FNS: &[&str] = &["len_d", "len_c", "md", "corr"];
const GENS: &[&str] = &["G0", "G0", "G0", "G1"];
const CMPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];
const NUMS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "7",
    "8",
    "16",
    "120",
    "-1",
    "0.5",
    "30000",
    "99999999999999999999",
];
const CONNECTIVES: &[&str] = &[" && ", " && ", " || ", " => "];
const OTHER_ATOMS: &[&str] = &[
    "len_G = 2",
    "len_w = 16",
    "sum_w < 2",
    "w(3) = 0.5",
    "G0(1, 2) = 1",
    "len_d(G[1]) = 4",
    "!(md(G0) = 3)",
    "minimal(len_c(G0))",
    "maximal(md(G1))",
    "true",
];
const SPEC_TOKENS: &[&str] = &[
    "len_d", "len_G", "sum_w", "md", "w", "G", "G0", "G[", "minimal", "(", ")", "[", "]", ",",
    "&&", "||", "=>", "!", "=", "<=", "+", "-", "*", ".", "3", "16", " ",
];
const MATRIX_TOKENS: &[&str] = &["0", "1", "01", " ", "|", "_", "\t", "\n", "/", "\r\n"];

/// Picks one of `items`.
fn one_of(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// One comparison or other atom of the property language.
fn atom() -> impl Strategy<Value = String> {
    prop_oneof![
        (one_of(FNS), one_of(GENS), one_of(CMPS), one_of(NUMS))
            .prop_map(|(f, g, c, n)| format!("{f}({g}) {c} {n}")),
        one_of(OTHER_ATOMS).prop_map(str::to_string),
    ]
}

/// `len_d(G0) = n` followed by a conjunction-heavy chain of up to five
/// atoms: a spec with a data length, so most cases get a shape.
fn spec() -> impl Strategy<Value = String> {
    (one_of(NUMS), vec((one_of(CONNECTIVES), atom()), 0..6)).prop_map(|(n, rest)| {
        rest.into_iter()
            .fold(format!("len_d(G0) = {n}"), |acc, (c, a)| {
                format!("{acc}{c}{a}")
            })
    })
}

/// A 0/1 matrix of one to five rows and one to eight columns, one row
/// per line.
fn matrix() -> impl Strategy<Value = String> {
    (1..6usize, 1..9usize, any::<u64>()).prop_map(|(rows, cols, bits)| {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        if bits >> (r * 8 + c) & 1 == 1 {
                            '1'
                        } else {
                            '0'
                        }
                    })
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// `base` with up to three random edits: a token of `tokens` or a raw
/// byte inserted at a random position, or the byte there deleted.
fn mutated(
    base: impl Strategy<Value = String> + 'static,
    tokens: &'static [&'static str],
) -> impl Strategy<Value = String> {
    let edit = prop_oneof![
        one_of(tokens).prop_map(|t| t.as_bytes().to_vec()),
        any::<u8>().prop_map(|b| vec![b]),
        Just(Vec::new()),
    ];
    (base, vec((any::<u16>(), edit), 0..4)).prop_map(|(base, edits)| {
        let mut bytes = base.into_bytes();
        for (at, edit) in edits {
            let at = usize::from(at) % (bytes.len() + 1);
            if edit.is_empty() {
                if at < bytes.len() {
                    bytes.remove(at);
                }
            } else {
                bytes.splice(at..at, edit);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// The shape's `{:?}`, or the error's kind: what two readings of one
/// spec must agree on.
fn reading(shape: Result<ProblemShape, SpecError>) -> String {
    match shape {
        Ok(s) => format!("{s:?}"),
        Err(SpecError::Unsupported(_)) => "unsupported".into(),
        Err(SpecError::Inconsistent(_)) => "inconsistent".into(),
    }
}

/// `prop` with its top-level conjuncts in reverse order.
fn reversed(prop: &Prop) -> Prop {
    prop.conjuncts()
        .into_iter()
        .cloned()
        .reduce(|acc, c| Prop::And(Box::new(c), Box::new(acc)))
        .unwrap_or(Prop::True)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn conjunct_order_does_not_change_the_shape(src in spec()) {
        if let Ok(prop) = parse_property(&src) {
            if typecheck(&prop).is_ok() {
                prop_assert_eq!(
                    reading(ProblemShape::from_prop(&prop, DEFAULT_MAX_CHECK)),
                    reading(ProblemShape::from_prop(&reversed(&prop), DEFAULT_MAX_CHECK)),
                    "{}", src
                );
            }
        }
    }

    #[test]
    fn analyze_reads_a_spec_as_synthesis_does(src in spec()) {
        if let Ok(prop) = parse_property(&src) {
            if typecheck(&prop).is_ok() {
                prop_assert_eq!(
                    reading(analyze(&prop, DEFAULT_MAX_CHECK).map(|a| a.shape)),
                    reading(ProblemShape::from_prop(&prop, DEFAULT_MAX_CHECK)),
                    "{}", src
                );
            }
        }
    }

    #[test]
    fn spec_pipeline_never_panics(src in mutated(spec(), SPEC_TOKENS)) {
        if let Ok(prop) = parse_property(&src) {
            if typecheck(&prop).is_ok()
                && ProblemShape::from_prop(&prop, DEFAULT_MAX_CHECK).is_ok()
            {
                let _ = analyze(&prop, DEFAULT_MAX_CHECK);
            }
        }
    }

    #[test]
    fn coefficient_matrix_parser_never_panics(src in mutated(matrix(), MATRIX_TOKENS)) {
        if let Some(g) = Generator::from_coeff_str(&src) {
            prop_assert!(g.data_len() > 0 && g.check_len() > 0);
        }
    }
}
