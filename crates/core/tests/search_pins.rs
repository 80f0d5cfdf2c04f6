//! Pins of the search behind two of the paper's experiments.
//!
//! - Paper-mode Table 1: the optimal check length and the CEGIS
//!   iteration count of each `minimal(len_c)` row from md 2 to 6.
//!   Paper mode (`CexMode::BlockCandidate`, counterexamples not carried
//!   across bounds) blocks each rejected candidate verbatim, so its
//!   iteration count is a direct readout of the synthesizer's search:
//!   the sequence of candidates it proposes.
//! - Default-mode Table 1: the same readout for every row from md 2
//!   to 8 with generalized data-word counterexamples, the rows
//!   `results/table1.txt` prints. A search change re-records these
//!   pins and that file together.
//! - §4.1: the conflict counts of `verify_8023df`'s two queries, a
//!   readout of the verifier's search on its largest fixed input.
//!
//! A solver or encoding change that claims to leave the search alone
//! must leave every number here unchanged.

use fec_hamming::{distance, standards};
use fec_smt::Budget;
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::encode::CexMode;
use fec_synth::spec::parse_property;
use fec_synth::verify::{verify_min_distance_exact_with, VerifyOptions, VerifyOutcome};
use std::time::Duration;

#[test]
fn paper_mode_table1_rows_are_pinned() {
    let config = SynthesisConfig {
        timeout: Duration::from_secs(600),
        cex_mode: CexMode::BlockCandidate,
        persist_counterexamples: false,
        ..Default::default()
    };
    let pinned: [(usize, usize, u64); 5] = [
        (2, 2, 8),
        (3, 3, 24),
        (4, 4, 208),
        (5, 7, 1036),
        (6, 8, 1940),
    ];
    for (md, check_len, iterations) in pinned {
        let prop = parse_property(&format!(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {md} && minimal(len_c(G0))"
        ))
        .unwrap();
        let r = Synthesizer::new(config).run(&prop).unwrap();
        assert!(r.optimal, "md {md}: the descent ended on the clock");
        let g = &r.generators[0];
        assert!(distance::min_distance_exhaustive(g) >= md);
        assert_eq!(
            (g.check_len(), r.iterations),
            (check_len, iterations),
            "md {md}: (check_len, iterations)"
        );
    }
}

#[test]
fn default_mode_table1_rows_are_pinned() {
    let config = SynthesisConfig {
        timeout: Duration::from_secs(600),
        ..Default::default()
    };
    let pinned: [(usize, usize, u64); 7] = [
        (2, 2, 5),
        (3, 3, 18),
        (4, 4, 13),
        (5, 7, 21),
        (6, 8, 13),
        (7, 10, 20),
        (8, 11, 13),
    ];
    for (md, check_len, iterations) in pinned {
        let prop = parse_property(&format!(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {md} && minimal(len_c(G0))"
        ))
        .unwrap();
        let r = Synthesizer::new(config).run(&prop).unwrap();
        assert!(r.optimal, "md {md}: the descent ended on the clock");
        let g = &r.generators[0];
        assert!(distance::min_distance_exhaustive(g) >= md);
        assert_eq!(
            (g.check_len(), r.iterations),
            (check_len, iterations),
            "md {md}: (check_len, iterations)"
        );
    }
}

#[test]
fn verify_8023df_conflicts_are_pinned() {
    let g = standards::ieee_8023df_128_120();
    let opts = VerifyOptions {
        budget: Budget::unlimited(),
        ..VerifyOptions::default()
    };
    let (holds, md3) = verify_min_distance_exact_with(&g, 3, opts);
    assert_eq!(holds, VerifyOutcome::Holds);
    let (fails, md4) = verify_min_distance_exact_with(&g, 4, opts);
    assert!(matches!(fails, VerifyOutcome::Fails { .. }));
    assert_eq!((md3.conflicts, md4.conflicts), (1904, 125));
}
