//! Counterexample-extraction coverage for `fec_synth::verify` — every
//! way a verification query can fail (witnessed, unwitnessed, via
//! eval, under portfolio/certified configurations) and how `Unknown`
//! propagates through the composed entry points.

use fec_gf2::BitVec;
use fec_hamming::standards;
use fec_smt::Budget;
use fec_synth::spec::parse_property;
use fec_synth::verify::{
    has_codeword_of_weight_at_most, sat_min_distance_with, verify_min_distance_at_least,
    verify_min_distance_exact_with, verify_props, verify_props_with, VerifyOptions, VerifyOutcome,
};

/// The witness returned for a failed distance bound must be a real,
/// non-zero data word whose codeword breaks the claimed bound.
fn assert_valid_witness(g: &fec_hamming::Generator, x: &BitVec, bound: usize) {
    assert!(!x.is_zero(), "witness must be a non-zero data word");
    assert_eq!(x.len(), g.data_len());
    let cw = g.encode(x);
    assert!(
        cw.count_ones() < bound,
        "witness codeword weight {} is not below {bound}",
        cw.count_ones()
    );
}

#[test]
fn witnessed_failure_from_direct_sat_query() {
    // md(parity(8)) = 2, so a weight-≤2 codeword exists and must be
    // extracted from the SAT model
    let g = standards::parity_code(8);
    let (r, witness, _) = has_codeword_of_weight_at_most(&g, 2, Budget::unlimited());
    assert_eq!(r, fec_smt::SmtResult::Sat);
    assert_valid_witness(&g, &witness.expect("SAT must produce a witness"), 3);
    // and the UNSAT direction extracts nothing
    let (r, witness, _) = has_codeword_of_weight_at_most(&g, 1, Budget::unlimited());
    assert_eq!(r, fec_smt::SmtResult::Unsat);
    assert!(witness.is_none());
}

#[test]
fn exact_distance_failure_without_witness() {
    // the extended Hamming (8,4) code has codeword weights {0, 4, 8}:
    // "md = 3" passes the lower bound (no weight-<3 codeword) but no
    // weight-exactly-3 codeword exists, so the failure carries NO
    // witness — the UNSAT branch of the exact check
    let g = standards::hamming_extended_8_4();
    let (o, _) = verify_min_distance_exact_with(&g, 3, VerifyOptions::default());
    assert_eq!(o, VerifyOutcome::Fails { witness: None });
}

#[test]
fn exact_distance_failure_with_witness() {
    // "md = 5" on the same code fails the lower bound: a weight-4
    // codeword exists and must be surfaced as the witness
    let g = standards::hamming_extended_8_4();
    let (o, _) = verify_min_distance_exact_with(&g, 5, VerifyOptions::default());
    let VerifyOutcome::Fails { witness: Some(x) } = o else {
        panic!("expected a witnessed failure, got {o:?}");
    };
    assert_valid_witness(&g, &x, 5);
}

#[test]
fn props_failure_paths_have_no_witness() {
    let g = standards::hamming_7_4();
    // a false arithmetic property: eval returns Ok(false)
    let p = parse_property("len_c(G0) = 7").unwrap();
    let (o, _) = verify_props(std::slice::from_ref(&g), &p, Budget::unlimited()).unwrap();
    assert_eq!(o, VerifyOutcome::Fails { witness: None });
    // an eval *error* (G1 out of range) is an error, not a verdict,
    // and not a panic
    let p = parse_property("md(G1) = 3").unwrap();
    assert!(verify_props(&[g], &p, Budget::unlimited()).is_err());
}

#[test]
fn unknown_propagates_through_composed_entry_points() {
    let g = standards::ieee_8023df_128_120();
    let tiny = VerifyOptions {
        budget: Budget {
            max_conflicts: 1,
            timeout: None,
        },
        ..VerifyOptions::default()
    };
    // iterative deepening gives up...
    let (md, _) = sat_min_distance_with(&g, tiny);
    assert_eq!(md, None);
    // ...and a property that needs md resolution surfaces Unknown
    // instead of mis-reporting Holds or Fails
    let p = parse_property("md(G0) = 3").unwrap();
    let (o, _) = verify_props_with(&[g], &p, tiny).unwrap();
    assert_eq!(o, VerifyOutcome::Unknown);
}

#[test]
fn witness_survives_portfolio_and_certification() {
    // counterexample extraction must work identically when the query
    // raced portfolio workers with model replay enabled
    let g = standards::parity_code(8);
    let opts = VerifyOptions {
        jobs: 3,
        check_certificates: true,
        ..VerifyOptions::default()
    };
    let (o, stats) = verify_min_distance_exact_with(&g, 3, opts);
    let VerifyOutcome::Fails { witness: Some(x) } = o else {
        panic!("expected a witnessed failure, got {o:?}");
    };
    assert_valid_witness(&g, &x, 3);
    assert!(stats.models_validated >= 1, "{stats:?}");
    // the portfolio summaries carry the clause-sharing traffic fields
    assert!(!stats.portfolio.is_empty());
    for run in &stats.portfolio {
        assert_eq!(run.workers, 3);
        assert_eq!(run.per_worker_conflicts.len(), 3);
        // sharing may legitimately be zero on easy queries; rejected
        // can never exceed what was imported into the ring
        assert!(run.rejected <= run.exported.max(run.imported) || run.rejected == 0);
    }
}

#[test]
fn at_least_failure_witness_matches_encode() {
    // the doc-level contract: Fails{witness} from the ≥ check is a
    // data word (not a codeword) and re-encodes to the low-weight one
    let g = standards::paper_g4_5();
    let exhaustive = fec_hamming::distance::min_distance_exhaustive(&g);
    let (o, _) = verify_min_distance_at_least(&g, exhaustive + 1, Budget::unlimited());
    let VerifyOutcome::Fails { witness: Some(x) } = o else {
        panic!("expected a witnessed failure, got {o:?}");
    };
    assert_valid_witness(&g, &x, exhaustive + 1);
}

/// A [32, 21] code with md 5: past the k ≤ 20 window where
/// `distance::min_distance` is exact.
const K21_MD5: &str = "10010100010/00101001111/01011010001/00101010110/11001100000/\
11111001000/11010111000/10100010101/00110011000/10001010100/10100001110/\
01001110111/01011011010/11100000011/11000110010/10011111101/01010001001/\
01010110101/11011100110/11000011100/01100111011";

#[test]
fn corr_resolves_by_sat_beyond_exhaustive_range() {
    // `corr` alone must trigger the SAT distance queries: the column
    // analysis for k > 20 only knows md ≥ 4, which would read as
    // corr = 1
    let g = fec_hamming::Generator::from_coeff_str(&K21_MD5.replace('/', "\n")).unwrap();
    assert_eq!(g.data_len(), 21);
    assert_eq!(fec_hamming::distance::min_distance_exhaustive(&g), 5);
    let holds = parse_property("corr(G0) = 2").unwrap();
    let (o, _) = verify_props(std::slice::from_ref(&g), &holds, Budget::unlimited()).unwrap();
    assert_eq!(o, VerifyOutcome::Holds);
    let fails = parse_property("corr(G0) = 3").unwrap();
    let (o, _) = verify_props(&[g], &fails, Budget::unlimited()).unwrap();
    assert_eq!(o, VerifyOutcome::Fails { witness: None });
}
