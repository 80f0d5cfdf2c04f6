//! Synthesis → optimization → code generation, end to end (§4.4).
//!
//! Synthesizes a (24,16) md-3 code while minimizing the number of set
//! coefficient bits, emits a specialized C and Rust encoder from its
//! XOR circuit, and drives the runtime circuit kernel at line rate.
//!
//! ```text
//! cargo run --release --example codegen_pipeline
//! ```

use fec_workbench::circ::{Circuit, CircuitKernel};
use fec_workbench::codegen::{emit_c, emit_rust};
use fec_workbench::synth::cegis::{SynthesisConfig, Synthesizer};
use fec_workbench::synth::spec::parse_property;
use std::time::Instant;

fn main() {
    // synthesize with the len_1-minimization objective
    let prop =
        parse_property("len_d(G0) = 16 && len_c(G0) = 8 && md(G0) = 3 && minimal(len_1(G0))")
            .unwrap();
    let result = Synthesizer::new(SynthesisConfig::default())
        .run(&prop)
        .expect("synthesis");
    let g = &result.generators[0];
    println!(
        "optimized generator: ({}, {}) code with {} coefficient ones \
         ({} intermediate optima along the way)",
        g.codeword_len(),
        g.data_len(),
        g.coefficient_ones(),
        result.intermediates.len()
    );
    // md-3 needs ≥ 2 ones per row: the optimizer must reach the floor
    assert_eq!(g.coefficient_ones(), 2 * g.data_len());

    // emit sources from the sparse generator circuit
    let circuit = Circuit::from_generator(g);
    println!("\n--- generated C (excerpt) ---");
    let c_src = emit_c(&circuit, None);
    for line in c_src.lines().take(10) {
        println!("{line}");
    }
    println!("… ({} lines total)", c_src.lines().count());
    println!("\n--- generated Rust (excerpt) ---");
    for line in emit_rust(&circuit).lines().take(6) {
        println!("{line}");
    }

    // drive the runtime kernels: sparse circuit vs certified minimized
    let mut sparse = CircuitKernel::new(&circuit);
    let mut kernel = CircuitKernel::minimized(g);
    let words = 2_000_000u64;
    let t = Instant::now();
    let mut acc = 0u64;
    for d in 0..words {
        acc = acc.wrapping_add(kernel.encode_checks(d & 0xFFFF));
    }
    let dt = t.elapsed();
    std::hint::black_box(acc);
    println!(
        "\nminimized kernel ({} vs {} sparse XORs): {words} encodes in {dt:?} \
         ({:.1} M words/s); sparse kernel computes identically: {}",
        kernel.xor_count(),
        sparse.xor_count(),
        words as f64 / dt.as_secs_f64() / 1e6,
        (0..1000u64).all(|d| kernel.encode_checks(d) == sparse.encode_checks(d))
    );
}
