//! Malformed input never panics in the source validator behind
//! `fecsynth lint-kernel --file`: emitted encoder sources with random
//! edits come back as a report, valid or not.
//!
//! Each input is one of eight real emissions — C and Rust, from the
//! sparse and the minimized circuit, for a k = 12 shortened Hamming
//! code and for 802.3df (k = 120, two data words) — with up to three
//! random edits (a token of the source alphabet or a raw byte
//! inserted, or a byte deleted), so cases reach the parser, the
//! chain builder and the symbolic interpreter instead of failing on
//! the first byte. Edits may split a UTF-8 sequence; the bytes are then
//! read as text the way a file reader would, with U+FFFD for what is
//! not UTF-8.

use fec_circ::{minimize, validate_source, Circuit, Lang};
use fec_codegen::{emit_c, emit_rust};
use fec_hamming::{standards, Generator};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

const SOURCE_TOKENS: &[&str] = &[
    "^", "&", "|", ">>", "<<", "=", ";", ",", "(", ")", "{", "}", "[", "]", "d[0]", "d[1]", "d",
    "c", "t0", "1", "0x", "63", "64", "-", "u64", "uint64_t", "let", "return", "fn", "//", "/*",
    "*/", " ", "\n",
];

/// The eight emissions, each with the generator it must encode and the
/// language it is written in.
fn sources() -> &'static [(Generator, Lang, String)] {
    static SOURCES: OnceLock<Vec<(Generator, Lang, String)>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let mut out = Vec::new();
        for g in [
            standards::shortened_hamming(12, 5).expect("12 ≤ 2^5 - 1 - 5"),
            standards::ieee_8023df_128_120(),
        ] {
            for circuit in [Circuit::from_generator(&g), minimize(&g).circuit] {
                out.push((g.clone(), Lang::C, emit_c(&circuit, None)));
                out.push((g.clone(), Lang::Rust, emit_rust(&circuit)));
            }
        }
        out
    })
}

/// Picks one of `items`.
fn one_of(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// `base` with up to three random edits: a token or a raw byte
/// inserted at a random position, or the byte there deleted.
fn mutated(base: String, edits: Vec<(u16, Vec<u8>)>) -> String {
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
}

fn edits() -> impl Strategy<Value = Vec<(u16, Vec<u8>)>> {
    let edit = prop_oneof![
        one_of(SOURCE_TOKENS).prop_map(|t| t.as_bytes().to_vec()),
        any::<u8>().prop_map(|b| vec![b]),
        Just(Vec::new()),
    ];
    vec((any::<u16>(), edit), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn source_validator_never_panics(pick in 0..8usize, edits in edits()) {
        let (g, lang, base) = &sources()[pick];
        let src = mutated(base.clone(), edits);
        let report = validate_source(&src, *lang, g);
        prop_assert_eq!(report.outputs, g.check_len());
    }
}
