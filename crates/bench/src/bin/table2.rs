//! Table 2: float32-specific generator robustness.
//!
//! Compares, over random *numeric* float32 words at p = 0.1:
//!   1. `G_1^16 G_1^16` — two parity bits (2 check bits),
//!   2. `G_6^16 G_6^16` — two md-3 codes (12 check bits),
//!   3. `G_5^8 G_1^8 G_1^16` — the paper's weighted split (7 check bits),
//!   4. `G_5^7 G_1^9 G_1^16` — the split our exact optimizer finds
//!      (the paper's own objective, optimum the paper's timeout missed).
//!
//! All generators are synthesized, not hard-coded: the parity and md-3
//! codes via the §3.1 property language, the weighted splits via the
//! §4.3 weighted objective.
//!
//! ```text
//! cargo run -p fec-bench --release --bin table2 [--quick] [--trials=N] [--seed=N]
//! ```

use fec_bench::{arg_u64, print_header, print_row, synth_timeout, thread_count, trial_count};
use fec_channel::experiment::float32_trial;
use fec_channel::floatbits::PAPER_FLOAT32_UPPER_WEIGHTS_MSB_FIRST;
use fec_cli::Arity::{Bare, Value};
use fec_hamming::{CompositeCode, Generator};
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;
use fec_synth::weights::{synthesize_weighted, WeightedGenSpec, WeightedProblem};

fn synth(config: &SynthesisConfig, prop: &str) -> Generator {
    let p = parse_property(prop).expect("static property");
    Synthesizer::new(*config)
        .run(&p)
        .unwrap_or_else(|e| panic!("synthesis failed for {prop}: {e}"))
        .generators
        .remove(0)
}

fn main() {
    fec_bench::check_flags(&[
        ("quick", Bare),
        ("seed", Value),
        ("threads", Value),
        ("timeout", Value),
        ("trials", Value),
    ]);
    let trials = trial_count();
    let threads = thread_count();
    let seed = arg_u64("seed", 0x7AB1E2);
    let config = SynthesisConfig {
        timeout: synth_timeout(),
        ..Default::default()
    };

    eprintln!("synthesizing G_1^16 (parity, md 2) …");
    let g1_16 = synth(&config, "len_d(G0) = 16 && len_c(G0) = 1 && md(G0) = 2");
    eprintln!("synthesizing G_6^16 (md 3) …");
    let g6_16 = synth(&config, "len_d(G0) = 16 && len_c(G0) = 6 && md(G0) = 3");
    eprintln!("synthesizing the paper's split: G_5^8 (md 3) and G_1^8 (md 2) …");
    let g5_8 = synth(&config, "len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 3");
    let g1_8 = synth(&config, "len_d(G0) = 8 && len_c(G0) = 1 && md(G0) = 2");

    eprintln!("running the §4.3 weighted synthesis (minimal sum_w) …");
    let weighted = synthesize_weighted(
        &WeightedProblem {
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
        },
        &config,
    )
    .expect("weighted synthesis");
    let split = weighted.map.iter().filter(|&&g| g == 0).count();
    eprintln!(
        "weighted optimizer: {}-bit strong / {}-bit parity split, sum_w = {:.2} ({} iterations)",
        split,
        16 - split,
        weighted.sum_w,
        weighted.iterations
    );

    // build the four ensembles over 32-bit float data (MSB-first layout)
    let ensembles: Vec<(String, CompositeCode)> = vec![
        named(vec![g1_16.clone(), g1_16.clone()]),
        named(vec![g6_16.clone(), g6_16.clone()]),
        named(vec![g5_8, g1_8, g1_16.clone()]),
        {
            // our optimizer's split, upper bits to the strong code
            let strong = weighted.generators[0].clone();
            let parity = weighted.generators[1].clone();
            named(vec![strong, parity, g1_16.clone()])
        },
    ];

    println!("\nTable 2: float32-specific robustness ({trials} numeric float trials, p = 0.1)");
    let widths = [22, 6, 11, 13, 9];
    print_header(
        &["generators", "check", "undetect.", "avg. err.", "non-num."],
        &widths,
    );
    for (name, code) in &ensembles {
        let r = float32_trial(code, 0.1, trials, seed, threads);
        print_row(
            &[
                name.clone(),
                code.check_len().to_string(),
                r.undetected.to_string(),
                format!("{:.2e}", r.avg_error_magnitude()),
                r.non_numeric.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\npaper (10M trials): G_1^16 G_1^16: 2,333,996 / 2.14e36 / 5744;\n\
         G_6^16 G_6^16: 12,383 / 1.59e36 / 21;  G_5^8 G_1^8 G_1^16: 585,979 / 0.24e36 / 248"
    );
}

fn named(gens: Vec<Generator>) -> (String, CompositeCode) {
    let code = CompositeCode::contiguous_msb_first(gens).expect("valid partition");
    (format!("{code}"), code)
}
