//! Application-specific FEC for float32 telemetry (§4.3's scenario).
//!
//! A distributed ML or scientific-computing job streams float32
//! gradients/samples over a noisy link and tolerates *small* numeric
//! error but not large one. This example synthesizes the
//! float-specific ensemble from per-bit criticality weights and
//! compares it against uniform parity protection on a simulated
//! channel.
//!
//! ```text
//! cargo run --release --example float_telemetry [--trials=N]
//! ```

use fec_workbench::channel::experiment::float32_trial;
use fec_workbench::channel::floatbits::PAPER_FLOAT32_UPPER_WEIGHTS_MSB_FIRST;
use fec_workbench::hamming::{standards, CompositeCode};
use fec_workbench::synth::cegis::SynthesisConfig;
use fec_workbench::synth::weights::{synthesize_weighted, WeightedGenSpec, WeightedProblem};

fn main() {
    let trials: u64 = std::env::args()
        .find_map(|a| a.strip_prefix("--trials=").map(str::to_string))
        .and_then(|v| v.parse().ok())
        .unwrap_or(500_000);

    // 1. Weighted synthesis: protect the bits whose corruption hurts
    //    most (the Fig. 1 profile, quantized as in §4.3).
    let problem = WeightedProblem {
        weights: PAPER_FLOAT32_UPPER_WEIGHTS_MSB_FIRST
            .iter()
            .rev()
            .copied()
            .collect(),
        gens: vec![
            WeightedGenSpec {
                check_len: 5,
                min_distance: 3,
            },
            WeightedGenSpec {
                check_len: 1,
                min_distance: 2,
            },
        ],
        bit_error_rate: 0.1,
    };
    let synthesized =
        synthesize_weighted(&problem, &SynthesisConfig::default()).expect("weighted synthesis");
    let strong_bits = synthesized.map.iter().filter(|&&g| g == 0).count();
    println!(
        "synthesizer chose: strong md-3 code on the top {strong_bits} bits, \
         parity on the next {}, sum_w = {:.2}",
        16 - strong_bits,
        synthesized.sum_w
    );

    // 2. Assemble both schemes over the full 32-bit float.
    let float_specific = CompositeCode::contiguous_msb_first(vec![
        synthesized.generators[0].clone(),
        synthesized.generators[1].clone(),
        standards::parity_code(16), // mantissa tail: cheapest possible
    ])
    .unwrap();
    let uniform_parity = CompositeCode::contiguous_msb_first(vec![
        standards::parity_code(16),
        standards::parity_code(16),
    ])
    .unwrap();

    // 3. Simulate both on the same channel.
    println!("\nsimulating {trials} numeric float32 words at p = 0.1 …");
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let rs = float32_trial(&float_specific, 0.1, trials, 0xF10A7, threads);
    let rp = float32_trial(&uniform_parity, 0.1, trials, 0xF10A7, threads);

    println!(
        "\n{:<26} {:>6} {:>12} {:>12} {:>9}",
        "scheme", "check", "undetected", "avg |err|", "non-num"
    );
    for (name, code, r) in [
        ("float-specific", &float_specific, &rs),
        ("uniform parity", &uniform_parity, &rp),
    ] {
        println!(
            "{:<26} {:>6} {:>12} {:>12.2e} {:>9}",
            format!("{name} ({code})"),
            code.check_len(),
            r.undetected,
            r.avg_error_magnitude(),
            r.non_numeric
        );
    }
    let gain = rp.avg_error_magnitude() / rs.avg_error_magnitude().max(f64::MIN_POSITIVE);
    println!(
        "\nthe float-specific code cuts the average undetected error magnitude \
         by {gain:.1}× for {} extra check bits",
        float_specific.check_len() - uniform_parity.check_len()
    );
    assert!(
        rs.avg_error_magnitude() < rp.avg_error_magnitude(),
        "the weighted code must reduce error magnitude"
    );
}
