//! Fast, assertion-bearing versions of every paper experiment: each
//! test reproduces the *shape* of one table or figure (who wins, by
//! roughly what factor). The full-scale reruns live in
//! `crates/bench/src/bin/`.

use fec_workbench::channel::experiment::{float32_trial, robustness_trial};
use fec_workbench::channel::floatbits::{bit_error_profile, PAPER_FLOAT32_UPPER_WEIGHTS_MSB_FIRST};
use fec_workbench::circ::Circuit;
use fec_workbench::hamming::{distance, standards, CompositeCode};
use fec_workbench::smt::Budget;
use fec_workbench::synth::cegis::{SynthesisConfig, Synthesizer};
use fec_workbench::synth::spec::parse_property;
use fec_workbench::synth::verify::{verify_min_distance_exact, VerifyOutcome};
use fec_workbench::synth::weights::{synthesize_weighted, WeightedGenSpec, WeightedProblem};
use std::time::Duration;

fn config() -> SynthesisConfig {
    SynthesisConfig {
        timeout: Duration::from_secs(90),
        ..Default::default()
    }
}

/// Fig. 1: exponent bits of a float32 hurt far more than mantissa
/// bits; int32 error grows monotonically with bit position.
#[test]
fn fig1_shape() {
    let p = bit_error_profile(30_000, 1);
    // int32: strictly monotone by construction
    for w in p.int32.windows(2) {
        assert!(w[0] <= w[1]);
    }
    // float32: the upper 8 bits dominate everything below bit 20
    let top: f64 = p.float32[24..32].iter().sum();
    let mid: f64 = p.float32[..20].iter().sum();
    assert!(top > mid * 10.0, "top {top} vs mid {mid}");
}

/// §4.1: the (128,120) code has md exactly 3, and not 4.
#[test]
fn sec41_verify_8023df() {
    let g = standards::ieee_8023df_128_120();
    let (o3, _) = verify_min_distance_exact(&g, 3, Budget::unlimited());
    assert_eq!(o3, VerifyOutcome::Holds);
    let (o4, _) = verify_min_distance_exact(&g, 4, Budget::unlimited());
    assert!(matches!(o4, VerifyOutcome::Fails { .. }));
}

/// Table 1: check length decreases monotonically with the required
/// minimum distance, hitting the known optima for k=4.
#[test]
fn table1_shape() {
    let expected: [(usize, usize); 4] = [(5, 7), (4, 4), (3, 3), (2, 2)];
    let mut last = usize::MAX;
    for (m, optimal) in expected {
        let prop = parse_property(&format!(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {m} && minimal(len_c(G0))"
        ))
        .unwrap();
        let r = Synthesizer::new(config()).run(&prop).unwrap();
        let g = &r.generators[0];
        assert!(distance::min_distance_exhaustive(g) >= m);
        assert_eq!(g.check_len(), optimal, "md={m}");
        assert!(g.check_len() <= last);
        last = g.check_len();
    }
}

/// Fig. 4: undetected errors drop sharply with minimum distance, and
/// the ≥md-flips counter tracks the theoretical value.
#[test]
fn fig4_shape() {
    let trials = 300_000;
    let mut last_undetected = u64::MAX;
    for m in [2usize, 3, 5] {
        let prop = parse_property(&format!(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {m} && minimal(len_c(G0))"
        ))
        .unwrap();
        let g = Synthesizer::new(config()).run(&prop).unwrap().generators[0].clone();
        let md = distance::min_distance_exhaustive(&g);
        let r = robustness_trial(&g, md, 0.1, trials, 7 + m as u64, 4);
        assert!(
            r.undetected < last_undetected,
            "md={m}: {} not below {last_undetected}",
            r.undetected
        );
        last_undetected = r.undetected;
        let theory = fec_workbench::channel::experiment::RobustnessReport::theoretical_at_least_md(
            g.codeword_len(),
            md,
            0.1,
            trials,
        );
        let rel = (r.at_least_md_flips as f64 - theory).abs() / theory.max(1.0);
        assert!(
            rel < 0.25,
            "md={m}: observed {} vs theory {theory}",
            r.at_least_md_flips
        );
    }
}

/// Table 2: the three-way trade-off. Parity-only: most undetected,
/// huge error magnitude. Full md-3: fewest undetected, 12 check bits.
/// Float-specific: in between on undetected errors with 7 check bits
/// and the *smallest* average error magnitude.
#[test]
fn table2_shape() {
    let trials = 400_000;
    let parity = CompositeCode::contiguous_msb_first(vec![
        standards::parity_code(16),
        standards::parity_code(16),
    ])
    .unwrap();
    let md3 = CompositeCode::contiguous_msb_first(vec![
        standards::shortened_hamming(16, 6).unwrap(),
        standards::shortened_hamming(16, 6).unwrap(),
    ])
    .unwrap();
    let float_specific = CompositeCode::contiguous_msb_first(vec![
        standards::shortened_hamming(8, 5).unwrap(),
        standards::parity_code(8),
        standards::parity_code(16),
    ])
    .unwrap();
    assert_eq!(parity.check_len(), 2);
    assert_eq!(md3.check_len(), 12);
    assert_eq!(float_specific.check_len(), 7);

    let rp = float32_trial(&parity, 0.1, trials, 11, 4);
    let rm = float32_trial(&md3, 0.1, trials, 11, 4);
    let rf = float32_trial(&float_specific, 0.1, trials, 11, 4);

    // undetected ordering: parity ≫ float-specific ≫ md3
    assert!(rp.undetected > rf.undetected * 2);
    assert!(rf.undetected > rm.undetected * 2);
    // error magnitude: float-specific is the smallest by a wide margin
    assert!(rf.avg_error_magnitude() < rp.avg_error_magnitude() / 2.0);
    assert!(rf.avg_error_magnitude() < rm.avg_error_magnitude() / 2.0);
    // non-numeric corruption ordering matches the paper: parity worst,
    // md3 best
    assert!(rp.non_numeric > rf.non_numeric);
    assert!(rf.non_numeric >= rm.non_numeric);
}

/// §4.3 synthesis: the weighted optimizer assigns the heaviest bits to
/// the strong code and achieves the objective optimum.
#[test]
fn sec43_weighted_synthesis() {
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
    let r = synthesize_weighted(&problem, &config()).unwrap();
    // the strong code takes a contiguous top segment of the bits
    let first_strong = r.map.iter().position(|&g| g == 0).unwrap();
    assert!(r.map[first_strong..].iter().all(|&g| g == 0));
    // optimum of the paper's objective is 192.58 (7/9 split); the
    // paper's own timeout-limited answer was 225.42 (8/8)
    assert!(r.sum_w <= 225.43);
}

/// Fig. 5 mechanism: fewer coefficient ones ⇒ fewer XORs in the sparse
/// generator circuit ⇒ faster encode (measured on the XOR count, which
/// is the deterministic part of the claim).
#[test]
fn fig5_shape() {
    let dense = Synthesizer::new(config())
        .run(
            &parse_property("len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 180")
                .unwrap(),
        )
        .unwrap()
        .generators
        .remove(0);
    let sparse = Synthesizer::new(config())
        .run(
            &parse_property("len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && minimal(len_1(G0))")
                .unwrap(),
        )
        .unwrap()
        .generators
        .remove(0);
    assert_eq!(dense.coefficient_ones(), 180);
    assert_eq!(sparse.coefficient_ones(), 64, "md-3 floor is 2 per row");
    // one XOR chain per non-empty check column: len_1 - (≤ 17) gates
    let xd = Circuit::from_generator(&dense).xor_count();
    let xs = Circuit::from_generator(&sparse).xor_count();
    assert!(xd >= 180 - 17 && xs < 64, "{xd} vs {xs}");
    assert!(xd > xs * 2);
    // both are still valid md-3 codes
    assert!(distance::has_min_distance_at_least(&dense, 3));
    assert!(distance::has_min_distance_at_least(&sparse, 3));
}

/// Fig. 6 shape: a sparser coefficient file gzips smaller.
#[test]
fn fig6_shape() {
    let serialize = |g: &fec_workbench::hamming::Generator| -> Vec<u8> {
        let mut out = Vec::new();
        for col in 0..g.check_len() {
            for row in 0..g.data_len() {
                out.push(if g.coefficients().get(row, col) {
                    b'1'
                } else {
                    b'0'
                });
            }
        }
        out
    };
    let dense = Synthesizer::new(config())
        .run(
            &parse_property("len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 200")
                .unwrap(),
        )
        .unwrap()
        .generators
        .remove(0);
    let sparse = Synthesizer::new(config())
        .run(
            &parse_property("len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = 72")
                .unwrap(),
        )
        .unwrap()
        .generators
        .remove(0);
    let gz_dense = fec_workbench::flate::gzip_compress(&serialize(&dense));
    let gz_sparse = fec_workbench::flate::gzip_compress(&serialize(&sparse));
    assert!(
        gz_sparse.len() < gz_dense.len(),
        "sparse {} vs dense {}",
        gz_sparse.len(),
        gz_dense.len()
    );
}
