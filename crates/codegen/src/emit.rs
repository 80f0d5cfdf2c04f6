//! Source emission from the circuit IR.
//!
//! The emitters walk an arbitrary [`Circuit`]: gates become named
//! single-assignment temporaries, and generators wider than one word
//! take their data as a word array (`const uint64_t d[W]` /
//! `d: &[u64; W]`). Each temporary's *bit 0* carries the gate's value —
//! the upper bits are whatever the shifts drag along — and the
//! accumulator masks with `& 1` before placing each check bit. Both
//! shapes round-trip through the `fec-circ` parser and symbolic
//! validator. Emitting `Circuit::from_generator(g)` gives the paper's
//! §4.4 sparse encoder, whose XOR count tracks `len_1`.

use crate::ir::{Circuit, Node, Output};
use std::fmt::Write;

/// Number of 64-bit data words the circuit's inputs occupy.
fn words(c: &Circuit) -> usize {
    c.inputs().div_ceil(64)
}

/// The C expression for a node as a full word whose bit 0 is the
/// node's value.
fn c_term(c: &Circuit, n: Node) -> String {
    match n {
        Node::Gate(g) => format!("t{g}"),
        Node::Input(i) => {
            let (w, b) = (i as usize / 64, i % 64);
            if words(c) == 1 {
                if b == 0 {
                    "d".to_string()
                } else {
                    format!("(d >> {b})")
                }
            } else if b == 0 {
                format!("d[{w}]")
            } else {
                format!("(d[{w}] >> {b})")
            }
        }
    }
}

fn rust_term(c: &Circuit, n: Node) -> String {
    // identical surface syntax for the subset we emit
    c_term(c, n)
}

/// Emits a self-contained C translation unit computing the circuit:
/// `encode_checks` plus the standard `syndrome` helper. With
/// `main_stride`, it also emits the §4.4 benchmark `main`: every
/// 32-bit data word in steps of the stride (the paper uses 21) is
/// encoded and checked, and an accumulator is printed so the work
/// cannot be optimized away. Wide circuits sweep the low word and
/// hold the others at zero.
///
/// # Panics
/// Panics if the circuit has more than 64 outputs or an unbound one.
pub fn emit_c(c: &Circuit, main_stride: Option<u64>) -> String {
    assert!(c.outputs().len() <= 64, "emit_c packs checks into a u64");
    let w = words(c);
    let mut out = String::new();
    out.push_str("#include <stdint.h>\n");
    if main_stride.is_some() {
        out.push_str("#include <stdio.h>\n");
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "/* generated encoder (circuit form): ({}, {}) code, {} XOR gates */",
        c.inputs() + c.outputs().len(),
        c.inputs(),
        c.xor_count()
    );
    let param = if w == 1 {
        "uint64_t d".to_string()
    } else {
        format!("const uint64_t d[{w}]")
    };
    let _ = writeln!(out, "uint64_t encode_checks({param}) {{");
    for (g, gate) in c.gates().iter().enumerate() {
        let _ = writeln!(
            out,
            "    uint64_t t{g} = {} ^ {};",
            c_term(c, gate.a),
            c_term(c, gate.b)
        );
    }
    out.push_str("    uint64_t c = 0;\n");
    for (j, o) in c.outputs().iter().enumerate() {
        match *o {
            Output::Unbound => panic!("emit_c: output {j} unbound"),
            Output::Zero => {}
            Output::Node(n) => {
                let _ = writeln!(out, "    c |= ({} & 1) << {j};", c_term(c, n));
            }
        }
    }
    out.push_str("    return c;\n}\n\n");
    let _ = writeln!(
        out,
        "uint64_t syndrome({param}, uint64_t checks) {{\n    \
         return encode_checks(d) ^ checks;\n}}"
    );
    if let Some(stride) = main_stride {
        // a wide circuit sweeps word 0 of a zeroed array
        let (decl, load, arg) = if w == 1 {
            (String::new(), "", "d")
        } else {
            (
                format!("    uint64_t x[{w}] = {{0}};\n"),
                "        x[0] = d;\n",
                "x",
            )
        };
        let _ = write!(
            out,
            "\nint main(void) {{\n    \
             uint64_t acc = 0;\n\
             {decl}    \
             /* the paper's workload: all 32-bit words in steps of {stride} */\n    \
             for (uint64_t d = 0; d <= 0xFFFFFFFFull; d += {stride}) {{\n\
             {load}        \
             uint64_t c = encode_checks({arg});\n        \
             acc ^= syndrome({arg}, c);\n        \
             acc += c;\n    }}\n    \
             printf(\"%llu\\n\", (unsigned long long)acc);\n    \
             return 0;\n}}\n",
        );
    }
    out
}

/// Emits a Rust module computing the circuit, mirroring [`emit_c`]
/// without the benchmark `main`.
///
/// # Panics
/// Panics if the circuit has more than 64 outputs or an unbound one.
pub fn emit_rust(c: &Circuit) -> String {
    assert!(c.outputs().len() <= 64, "emit_rust packs checks into a u64");
    let w = words(c);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/// Generated encoder (circuit form): ({}, {}) code, {} XOR gates.",
        c.inputs() + c.outputs().len(),
        c.inputs(),
        c.xor_count()
    );
    let param = if w == 1 {
        "d: u64".to_string()
    } else {
        format!("d: &[u64; {w}]")
    };
    let _ = writeln!(out, "pub fn encode_checks({param}) -> u64 {{");
    for (g, gate) in c.gates().iter().enumerate() {
        let _ = writeln!(
            out,
            "    let t{g} = {} ^ {};",
            rust_term(c, gate.a),
            rust_term(c, gate.b)
        );
    }
    out.push_str("    let mut c = 0u64;\n");
    for (j, o) in c.outputs().iter().enumerate() {
        match *o {
            Output::Unbound => panic!("emit_rust: output {j} unbound"),
            Output::Zero => {}
            Output::Node(n) => {
                let _ = writeln!(out, "    c |= ({} & 1) << {j};", rust_term(c, n));
            }
        }
    }
    out.push_str("    c\n}\n\n");
    let _ = writeln!(
        out,
        "pub fn syndrome({param}, checks: u64) -> u64 {{\n    encode_checks(d) ^ checks\n}}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_hamming::standards;

    #[test]
    fn sparse_emission_has_one_xor_per_gate() {
        for g in [
            standards::hamming_7_4(),
            standards::parity_code(16),
            standards::hamming_extended_8_4(),
        ] {
            let c = Circuit::from_generator(&g);
            let csrc = emit_c(&c, None);
            assert!(csrc.contains("uint64_t encode_checks(uint64_t d)"));
            assert!(csrc.contains("uint64_t syndrome"));
            assert!(!csrc.contains("main"), "no main unless requested");
            let body = |s: &str| s[..s.find("syndrome").unwrap()].matches(" ^ ").count();
            assert_eq!(body(&csrc), c.xor_count(), "{g:?}");
            assert_eq!(body(&emit_rust(&c)), c.xor_count(), "{g:?}");
        }
    }

    #[test]
    fn bench_main_threads_stride_as_parameter() {
        let c = Circuit::from_generator(&standards::hamming_7_4());
        let s21 = emit_c(&c, Some(21));
        let s997 = emit_c(&c, Some(997));
        assert!(s21.contains("d += 21") && s21.contains("int main(void)"));
        assert!(s997.contains("d += 997") && s997.contains("steps of 997"));
        assert!(!s997.contains("21"), "no stale default stride text");
        // the main is appended: the encoder text is the plain emission
        let plain = emit_c(&c, None);
        for src in [&s21, &s997] {
            let without_stdio = src.replacen("#include <stdio.h>\n", "", 1);
            assert!(without_stdio.starts_with(&plain), "{src}");
        }
    }

    #[test]
    fn wide_circuits_take_a_word_array() {
        let c = Circuit::from_generator(&standards::ieee_8023df_128_120());
        let csrc = emit_c(&c, Some(65521));
        assert!(csrc.contains("uint64_t encode_checks(const uint64_t d[2])"));
        assert!(csrc.contains("uint64_t x[2] = {0};") && csrc.contains("encode_checks(x)"));
        assert!(emit_rust(&c).contains("pub fn encode_checks(d: &[u64; 2]) -> u64"));
    }
}
