//! Baseline comparison: Koopman-style CRC polynomial search vs. CEGIS
//! synthesis (the paper's Related Work contrast, ref \[16\]).
//!
//! For each (data length, check length) point, exhaustively search all
//! CRC polynomials for the best minimum distance, synthesize an
//! unconstrained linear code with CEGIS for the same budget, and
//! report both — plus a 1M-word channel trial of undetected errors.
//! CRCs are a subclass of linear codes, so synthesis can only match or
//! beat the best CRC; the interesting outputs are where the gap
//! appears and the formal guarantee the synthesizer carries either way.
//!
//! ```text
//! cargo run -p fec-bench --release --bin crc_baseline [--trials=N] [--seed=N]
//! ```

use fec_bench::{arg_u64, print_header, print_row, synth_timeout};
use fec_channel::experiment::robustness_trial;
use fec_cli::Arity::{Bare, Value};
use fec_hamming::crc::{best_crc_polynomial, crc_generator};
use fec_hamming::distance::min_distance_exhaustive;
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;

fn main() {
    fec_bench::check_flags(&[
        ("quick", Bare),
        ("seed", Value),
        ("timeout", Value),
        ("trials", Value),
    ]);
    let trials = arg_u64("trials", 1_000_000);
    let seed = arg_u64("seed", 0xC4C);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let config = SynthesisConfig {
        timeout: synth_timeout(),
        ..Default::default()
    };
    println!("CRC polynomial search vs. CEGIS synthesis ({trials} channel trials at p = 0.05)");
    let widths = [8, 8, 12, 8, 14, 10, 14];
    print_header(
        &[
            "k",
            "checks",
            "best poly",
            "md CRC",
            "undet. CRC",
            "md synth",
            "undet. synth",
        ],
        &widths,
    );
    for (k, c) in [(4usize, 3usize), (8, 4), (8, 5), (12, 5), (16, 6)] {
        let (poly, md_crc) = best_crc_polynomial(k, c);
        let crc = crc_generator(k, poly).expect("search returned a valid polynomial");
        let prop = parse_property(&format!(
            "len_d(G0) = {k} && len_c(G0) = {c} && md(G0) = {md_crc} && minimal(len_1(G0))"
        ))
        .expect("static property");
        // ask CEGIS for at least the CRC's distance; then probe higher
        let mut best_synth = Synthesizer::new(config)
            .run(&prop)
            .expect("synthesis at CRC distance must succeed")
            .generators
            .remove(0);
        for md_try in (md_crc + 1)..=(c + 1) {
            let p = parse_property(&format!(
                "len_d(G0) = {k} && len_c(G0) = {c} && md(G0) = {md_try}"
            ))
            .expect("static property");
            match Synthesizer::new(config).run(&p) {
                Ok(mut r) => best_synth = r.generators.remove(0),
                Err(_) => break,
            }
        }
        let md_synth = min_distance_exhaustive(&best_synth);
        let r_crc = robustness_trial(&crc, md_crc, 0.05, trials, seed, threads);
        let r_synth = robustness_trial(&best_synth, md_synth, 0.05, trials, seed, threads);
        print_row(
            &[
                k.to_string(),
                c.to_string(),
                format!("{poly:#x}"),
                md_crc.to_string(),
                r_crc.undetected.to_string(),
                md_synth.to_string(),
                r_synth.undetected.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\nCRCs are linear codes, so md(synth) ≥ md(CRC) always; the synthesizer\n\
         additionally carries a per-instance formal guarantee (the verifier's\n\
         UNSAT certificate), which a table lookup does not — the paper's\n\
         Related-Work point about ref [16]."
    );
}
