//! Cross-crate integration: property text → CEGIS synthesis → SAT
//! verification → concrete evaluation → channel simulation, spanning
//! every layer of the workspace.

use fec_workbench::channel::experiment::robustness_trial;
use fec_workbench::circ::{minimize, validate_source, Circuit, CircuitKernel, Lang};
use fec_workbench::codegen::{emit_c, emit_rust};
use fec_workbench::gf2::BitVec;
use fec_workbench::hamming::{distance, standards, CompositeCode};
use fec_workbench::smt::Budget;
use fec_workbench::synth::cegis::{SynthesisConfig, Synthesizer};
use fec_workbench::synth::spec::{parse_property, EvalContext};
use fec_workbench::synth::verify::{verify_props, VerifyOutcome};
use std::time::Duration;

fn config() -> SynthesisConfig {
    SynthesisConfig {
        timeout: Duration::from_secs(60),
        ..Default::default()
    }
}

#[test]
fn synthesized_code_passes_independent_verification() {
    let spec = "len_d(G0) = 6 && 2 <= len_c(G0) <= 6 && md(G0) = 3 && minimal(len_c(G0))";
    let prop = parse_property(spec).unwrap();
    let result = Synthesizer::new(config()).run(&prop).unwrap();
    let g = result.generators[0].clone();

    // three independent checks of the same claim:
    // 1. exhaustive distance over all 2^6 data words
    assert_eq!(distance::min_distance_exhaustive(&g), 3);
    // 2. the SAT-backed verifier over the parsed property
    let (outcome, _) = verify_props(std::slice::from_ref(&g), &prop, Budget::unlimited()).unwrap();
    assert_eq!(outcome, VerifyOutcome::Holds);
    // 3. concrete evaluation of the property AST
    let ctx = EvalContext::from_generators(vec![g.clone()]);
    assert!(ctx.eval_prop(&prop).unwrap());
    // and the optimum for [n,6,3] is 4 check bits (shortened Hamming)
    assert_eq!(g.check_len(), 4);
}

#[test]
fn synthesized_code_behaves_on_the_channel() {
    let prop = parse_property("len_d(G0) = 8 && len_c(G0) = 4 && md(G0) = 3").unwrap();
    let g = Synthesizer::new(config()).run(&prop).unwrap().generators[0].clone();
    let report = robustness_trial(&g, 3, 0.05, 100_000, 42, 4);
    // md-3: detected ≫ undetected, and no undetected error below 3 flips
    assert!(report.detected > report.undetected * 10);
    assert!(report.undetected <= report.at_least_md_flips);
}

#[test]
fn composite_of_synthesized_generators_round_trips() {
    let strong = Synthesizer::new(config())
        .run(&parse_property("len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 3").unwrap())
        .unwrap()
        .generators
        .remove(0);
    let code =
        CompositeCode::contiguous_msb_first(vec![strong, standards::parity_code(8)]).unwrap();
    assert_eq!(code.data_len(), 16);
    for value in [0u16, 1, 0xFFFF, 0xA5A5, 0x1234] {
        let data = BitVec::from_u128(value as u128, 16);
        let word = code.encode(&data);
        assert!(code.is_valid(&word));
        // any single flip is caught by exactly one segment
        for pos in 0..word.len() {
            let mut bad = word.clone();
            bad.flip(pos);
            assert!(!code.is_valid(&bad), "flip {pos} on {value:#x} missed");
        }
    }
}

#[test]
fn verifier_and_exhaustive_distance_agree_on_standard_codes() {
    for (g, expect) in [
        (standards::hamming_7_4(), 3),
        (standards::hamming_extended_8_4(), 4),
        (standards::parity_code(10), 2),
        (standards::hamming_code(4).unwrap(), 3),
        (standards::paper_g4_5(), 4),
    ] {
        assert_eq!(distance::min_distance_exhaustive(&g), expect);
        let prop = parse_property(&format!("md(G0) = {expect}")).unwrap();
        let (o, _) = verify_props(&[g], &prop, Budget::unlimited()).unwrap();
        assert_eq!(o, VerifyOutcome::Holds);
    }
}

#[test]
fn gzip_round_trips_serialized_generator_families() {
    // the Fig. 6 pipeline end-to-end: synthesize, serialize, compress
    let g = Synthesizer::new(config())
        .run(&parse_property("len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 3").unwrap())
        .unwrap()
        .generators
        .remove(0);
    let mut bits = Vec::new();
    for col in 0..g.check_len() {
        for row in 0..g.data_len() {
            bits.push(if g.coefficients().get(row, col) {
                b'1'
            } else {
                b'0'
            });
        }
    }
    let gz = fec_workbench::flate::gzip_compress(&bits);
    assert_eq!(fec_workbench::flate::gzip_decompress(&gz).unwrap(), bits);
}

#[test]
fn emitted_code_agrees_with_generator_encode() {
    let g = Synthesizer::new(config())
        .run(&parse_property("len_d(G0) = 12 && len_c(G0) = 5 && md(G0) = 3").unwrap())
        .unwrap()
        .generators
        .remove(0);
    // the emitted C and Rust, sparse and minimized, are proved equal to G
    let sparse = Circuit::from_generator(&g);
    let minimized = minimize(&g).circuit;
    for c in [&sparse, &minimized] {
        for (src, lang) in [(emit_c(c, None), Lang::C), (emit_rust(c), Lang::Rust)] {
            let rep = validate_source(&src, lang, &g);
            assert!(rep.is_valid(), "{lang:?}: {:?}", rep.diags);
        }
    }
    // and the kernels compiled from both circuits compute G's checks
    // on every data word
    let mut kernels = [CircuitKernel::new(&sparse), CircuitKernel::new(&minimized)];
    for d in 0u64..(1 << 12) {
        let data = BitVec::from_u128(d as u128, 12);
        let word = g.encode(&data);
        let expect = word.slice(12..17).to_u128() as u64;
        for kernel in &mut kernels {
            assert_eq!(kernel.encode_checks(d), expect, "data {d:#x}");
        }
    }
}
