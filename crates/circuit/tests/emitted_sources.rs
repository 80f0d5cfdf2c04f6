//! End-to-end checks on emitted sources: the text `fec-codegen` prints
//! is read back by the fec-circ parser and *proved* against the
//! generator by the symbolic validator, for the sparse and the
//! minimized circuit, in C and Rust, at `k ≤ 64` and `k > 64`. When a
//! system C compiler is available, the C is also compiled and executed
//! against `Generator::encode`, benchmark `main` included.

use fec_circ::{minimize, validate_forms, validate_source, Circuit, CircuitKernel, Lang};
use fec_codegen::{emit_c, emit_rust};
use fec_gf2::BitVec;
use fec_hamming::{standards, CompositeCode, Generator};

/// The check bits `Generator::encode` produces for a one-word data value.
fn encode_ref(g: &Generator, data: u64) -> u64 {
    let word = g.encode(&BitVec::from_u128(data as u128, g.data_len()));
    word.slice(g.data_len()..g.codeword_len()).to_u128() as u64
}

#[test]
fn sparse_emissions_round_trip_through_the_validator() {
    for g in [
        standards::hamming_7_4(),
        standards::hamming_extended_8_4(),
        standards::shortened_hamming(32, 6).unwrap(),
    ] {
        let c = Circuit::from_generator(&g);
        let rc = validate_source(&emit_c(&c, None), Lang::C, &g);
        assert!(rc.is_valid(), "C {:?}: {:?}", g, rc.diags);
        assert_eq!(rc.xor_count, c.xor_count());
        let rr = validate_source(&emit_rust(&c), Lang::Rust, &g);
        assert!(rr.is_valid(), "Rust {:?}: {:?}", g, rr.diags);
    }
}

#[test]
fn wide_flagship_emission_validates_in_both_languages() {
    let g = standards::ieee_8023df_128_120();
    let c = Circuit::from_generator(&g);
    let csrc = emit_c(&c, None);
    assert!(csrc.contains("const uint64_t d[2]"));
    assert!(validate_source(&csrc, Lang::C, &g).is_valid());
    let rsrc = emit_rust(&c);
    assert!(rsrc.contains("d: &[u64; 2]"));
    assert!(validate_source(&rsrc, Lang::Rust, &g).is_valid());
}

#[test]
fn minimized_emission_validates_in_both_languages() {
    let g = standards::ieee_8023df_128_120();
    let m = minimize(&g);
    let rc = validate_source(&emit_c(&m.circuit, None), Lang::C, &g);
    assert!(rc.is_valid(), "{:?}", rc.diags);
    assert_eq!(rc.xor_count, m.xor_count());
    let rr = validate_source(&emit_rust(&m.circuit), Lang::Rust, &g);
    assert!(rr.is_valid(), "{:?}", rr.diags);
}

/// The emitted Rust is proved equal to the matrix, and the kernel
/// compiled from the same circuit agrees with `Generator::encode`.
#[test]
fn emitted_rust_is_proved_equivalent_to_generator() {
    let g = standards::shortened_hamming(12, 5).unwrap();
    let c = Circuit::from_generator(&g);
    let rep = validate_source(&emit_rust(&c), Lang::Rust, &g);
    assert!(rep.is_valid(), "{:?}", rep.diags);
    let mut kernel = CircuitKernel::new(&c);
    for d in [0u64, 1, 0xABC, 0xFFF, 0x555] {
        assert_eq!(kernel.encode_checks(d), encode_ref(&g, d), "data {d:x}");
    }
}

/// The benchmark `main` is outside `encode_checks`, so the validator
/// proves the encoder of the exact file Fig. 5 compiles.
#[test]
fn emitted_c_with_benchmark_main_is_proved_equivalent() {
    for g in [
        standards::shortened_hamming(12, 5).unwrap(),
        standards::ieee_8023df_128_120(),
    ] {
        for c in [Circuit::from_generator(&g), minimize(&g).circuit] {
            let src = emit_c(&c, Some(21));
            assert!(src.contains("int main(void)"));
            let rep = validate_source(&src, Lang::C, &g);
            assert!(rep.is_valid(), "{:?}", rep.diags);
        }
    }
}

/// The paper's §4.3 float32 ensemble `G_5^8 G_1^8 G_1^16` as one
/// combined generator: 32 data bits, 7 check columns.
fn float32_ensemble() -> Generator {
    CompositeCode::contiguous_msb_first(vec![
        standards::shortened_hamming(8, 5).unwrap(),
        standards::parity_code(8),
        standards::parity_code(16),
    ])
    .unwrap()
    .generator()
}

#[test]
fn validate_forms_proves_six_forms_at_every_width() {
    for g in [
        standards::hamming_7_4(),
        standards::shortened_hamming(57, 7).unwrap(),
        standards::ieee_8023df_128_120(),
        float32_ensemble(),
    ] {
        let (m, forms) = validate_forms(&g);
        let names: Vec<&str> = forms.iter().map(|(f, _)| *f).collect();
        assert_eq!(
            names,
            [
                "generator-circuit",
                "emitted-c",
                "emitted-rust",
                "minimized-circuit",
                "minimized-c",
                "minimized-rust"
            ]
        );
        for (form, rep) in &forms {
            assert!(rep.is_valid(), "{form}: {:?}", rep.diags);
        }
        assert_eq!(forms[0].1.xor_count, m.sparse_xor_count);
        assert_eq!(forms[4].1.xor_count, m.xor_count());
    }
}

fn find_cc() -> Option<&'static str> {
    ["cc", "gcc", "clang"].into_iter().find(|c| {
        std::process::Command::new(c)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    })
}

/// Compiles `src` at `-O2`, runs it, and parses its one-number stdout.
fn compile_and_run(cc: &str, tag: &str, src: &str) -> u64 {
    let dir = std::env::temp_dir().join("fec_circ_test");
    std::fs::create_dir_all(&dir).unwrap();
    let c_path = dir.join(format!("{tag}.c"));
    let bin_path = dir.join(format!("{tag}_bin"));
    std::fs::write(&c_path, src).unwrap();
    let ok = std::process::Command::new(cc)
        .args(["-O2", "-o"])
        .arg(&bin_path)
        .arg(&c_path)
        .status()
        .unwrap()
        .success();
    assert!(ok, "emitted C ({tag}) failed to compile");
    let out = std::process::Command::new(&bin_path).output().unwrap();
    String::from_utf8_lossy(&out.stdout).trim().parse().unwrap()
}

/// Full end-to-end check when a C compiler is present; skipped
/// silently otherwise (CI containers may not ship one). The plain and
/// the minimized encoders are called from a one-line test `main`, and
/// the emitted benchmark `main` must print the accumulator its sweep
/// defines, recomputed here.
#[test]
fn emitted_and_minimized_c_compile_with_system_cc_if_available() {
    let Some(cc) = find_cc() else {
        eprintln!("no C compiler found; skipping");
        return;
    };
    let g = standards::shortened_hamming(12, 5).unwrap();
    let m = minimize(&g);
    assert!(m.report.is_valid(), "{:?}", m.report.diags);
    let sparse = Circuit::from_generator(&g);
    for data in [3u64, 0xABC, 0xFFF] {
        let probe = format!(
            "\n#include <stdio.h>\nint main(void){{printf(\"%llu\\n\",\
             (unsigned long long)encode_checks({data}ull));return 0;}}\n",
        );
        for (tag, c) in [("plain", &sparse), ("minimized", &m.circuit)] {
            let src = emit_c(c, None) + &probe;
            assert_eq!(
                compile_and_run(cc, tag, &src),
                encode_ref(&g, data),
                "{tag} emission, data {data:#x}"
            );
        }
    }
    let stride = 65_521u64;
    for g in [g, standards::ieee_8023df_128_120()] {
        let c = minimize(&g).circuit;
        let mut kernel = CircuitKernel::new(&c);
        let (mut acc, mut d) = (0u64, 0u64);
        while d <= 0xFFFF_FFFF {
            let checks = kernel.encode_checks_wide(&[d]);
            acc ^= kernel.encode_checks_wide(&[d]) ^ checks;
            acc = acc.wrapping_add(checks);
            d += stride;
        }
        let tag = format!("bench_k{}", g.data_len());
        assert_eq!(compile_and_run(cc, &tag, &emit_c(&c, Some(stride))), acc);
    }
}
