//! Figure 4: generator robustness. For each synthesized Table 1
//! generator: 10,000,000 random 4-bit words, encode, BSC p=0.1, count
//! (a) trials with ≥ md flips (upper line, ≈ theoretical P_u·trials)
//! and (b) actual undetected codeword errors (lower line).
//!
//! ```text
//! cargo run -p fec-bench --release --bin fig4 [--quick] [--trials=N]
//!     [--seed=N] [--threads=N] [--timeout=SECS]
//! ```
//!
//! `--seed` pins every channel draw for bit-reproducible CI runs (the
//! per-row seed is `seed + md`). The trials run on the certified
//! minimized kernels, which produce reports bit-identical to the
//! matrix-multiply reference (a property CI checks) at a fraction of
//! the encode cost.

use fec_bench::{arg_u64, print_header, print_row, synth_timeout, thread_count, trial_count};
use fec_channel::experiment::{robustness_trial, RobustnessReport};
use fec_cli::Arity::{Bare, Value};
use fec_hamming::distance;
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;

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
    let seed = arg_u64("seed", 0xF164);
    let config = SynthesisConfig {
        timeout: synth_timeout(),
        ..Default::default()
    };
    println!("Fig. 4: robustness of synthesized k=4 generators ({trials} trials, p = 0.1)");
    let widths = [8, 9, 16, 16, 12];
    print_header(
        &[
            "min_dist",
            "check_len",
            ">=md flips",
            "theory",
            "undetected",
        ],
        &widths,
    );
    for m in (2..=8).rev() {
        let prop = parse_property(&format!(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {m} && minimal(len_c(G0))"
        ))
        .expect("static property");
        let r = Synthesizer::new(config)
            .run(&prop)
            .unwrap_or_else(|e| panic!("synthesis for md={m} failed: {e}"));
        let g = r.generators[0].clone();
        let md = distance::min_distance_exhaustive(&g);
        let report = robustness_trial(&g, md, 0.1, trials, seed + m as u64, threads);
        let theory = RobustnessReport::theoretical_at_least_md(g.codeword_len(), md, 0.1, trials);
        print_row(
            &[
                md.to_string(),
                g.check_len().to_string(),
                report.at_least_md_flips.to_string(),
                format!("{theory:.0}"),
                report.undetected.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\npaper's headline: the md=8 generator (G_12^4 there) reduced undetected\n\
         corrupted codewords to zero; the ≥md-flips line tracks the theoretical count."
    );
}
