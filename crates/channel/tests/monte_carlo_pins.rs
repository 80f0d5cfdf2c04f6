//! Pins every field of the Fig. 4 and Table 2 Monte-Carlo reports.
//!
//! The trial loops promise a fixed RNG order: per trial, the data word
//! (or `random_numeric_f32`), then the BSC's gap draws for that trial's
//! error pattern. Any rewrite of the workers or of the channel sampler
//! must reproduce these numbers bit for bit, for every seed, trial
//! count and thread count. The counts here are deliberately not
//! multiples of 64, and the thread counts split them unevenly.
//!
//! The numbers were recorded from the scalar per-trial workers.

use fec_channel::experiment::{float32_trial, robustness_trial, Float32Report, RobustnessReport};
use fec_hamming::{standards, CompositeCode, Generator};

/// Table 1's k = 4 optima as coefficient rows (the Fig. 4 inputs).
const FIG4_GENERATORS: [(usize, [&str; 4]); 7] = [
    (
        8,
        ["11011011100", "01100111110", "11001100111", "00111101101"],
    ),
    (7, ["0011110011", "1110111000", "0111011101", "1000011111"]),
    (6, ["11100110", "10111111", "11011010", "01010111"]),
    (5, ["1111001", "1011111", "0110011", "0111100"]),
    (4, ["1011", "1101", "1110", "0111"]),
    (3, ["110", "011", "101", "111"]),
    (2, ["01", "10", "10", "10"]),
];

const TRIALS: u64 = 100_003;
const CASES: [(f64, usize); 4] = [(0.1, 1), (0.1, 3), (0.01, 1), (0.01, 3)];

fn fig4_generator(rows: &[&str]) -> Generator {
    Generator::from_coeff_str(&rows.join("\n")).expect("pinned generator")
}

/// `[at_least_md_flips, undetected, detected, trials]`.
fn fields(r: &RobustnessReport) -> [u64; 4] {
    [r.at_least_md_flips, r.undetected, r.detected, r.trials]
}

/// Per generator (in `FIG4_GENERATORS` order), per case (in `CASES`
/// order); seed `0xF164 + md`.
const FIG4_PINS: [[[u64; 4]; 4]; 7] = [
    // md 8
    [
        [1, 0, 79580, 100003],
        [3, 0, 79460, 100003],
        [0, 0, 14014, 100003],
        [0, 0, 14150, 100003],
    ],
    // md 7
    [
        [18, 0, 77269, 100003],
        [18, 0, 77104, 100003],
        [0, 0, 13107, 100003],
        [0, 0, 13013, 100003],
    ],
    // md 6
    [
        [53, 0, 71841, 100003],
        [58, 1, 72084, 100003],
        [0, 0, 11585, 100003],
        [0, 0, 11316, 100003],
    ],
    // md 5
    [
        [259, 1, 68389, 100003],
        [265, 0, 68593, 100003],
        [0, 0, 10381, 100003],
        [0, 0, 10572, 100003],
    ],
    // md 4
    [
        [473, 88, 56984, 100003],
        [482, 73, 56796, 100003],
        [0, 0, 7775, 100003],
        [0, 0, 7691, 100003],
    ],
    // md 3
    [
        [2612, 523, 51577, 100003],
        [2523, 487, 51567, 100003],
        [2, 0, 6948, 100003],
        [3, 1, 6898, 100003],
    ],
    // md 2
    [
        [11220, 4599, 42082, 100003],
        [11405, 4695, 41914, 100003],
        [138, 66, 5752, 100003],
        [153, 65, 5640, 100003],
    ],
];

#[test]
fn fig4_reports_are_pinned() {
    for ((md, rows), pins) in FIG4_GENERATORS.iter().zip(&FIG4_PINS) {
        let g = fig4_generator(rows);
        assert!(g.codeword_len() <= 64);
        for (&(p, threads), pin) in CASES.iter().zip(pins) {
            let r = robustness_trial(&g, *md, p, TRIALS, 0xF164 + *md as u64, threads);
            assert_eq!(fields(&r), *pin, "md {md}, p {p}, {threads} threads");
        }
    }
}

/// A codeword wider than 64 bits runs on the matrix worker.
const WIDE_PINS: [[u64; 4]; 4] = [
    [96925, 786, 99126, 100003],
    [96947, 785, 99123, 100003],
    [3009, 32, 48876, 100003],
    [2989, 25, 48822, 100003],
];

#[test]
fn wide_codeword_reports_are_pinned() {
    let g = standards::shortened_hamming(60, 7).expect("[67, 60] code");
    assert!(g.codeword_len() > 64);
    for (&(p, threads), pin) in CASES.iter().zip(&WIDE_PINS) {
        let r = robustness_trial(&g, 3, p, TRIALS, 0x67, threads);
        assert_eq!(fields(&r), *pin, "p {p}, {threads} threads");
    }
}

/// `(undetected, error_magnitude_sum as bits, numeric_errors,
/// non_numeric, trials)`: the sum is compared exactly.
type FloatFields = (u64, u64, u64, u64, u64);

fn float_fields(r: &Float32Report) -> FloatFields {
    (
        r.undetected,
        r.error_magnitude_sum.to_bits(),
        r.numeric_errors,
        r.non_numeric,
        r.trials,
    )
}

fn ensembles() -> Vec<(&'static str, CompositeCode)> {
    let code = |gs: Vec<Generator>| CompositeCode::contiguous_msb_first(gs).expect("32-bit split");
    vec![
        (
            "G_1^16 G_1^16",
            code(vec![standards::parity_code(16), standards::parity_code(16)]),
        ),
        (
            "G_6^16 G_6^16",
            code(vec![
                standards::shortened_hamming(16, 6).unwrap(),
                standards::shortened_hamming(16, 6).unwrap(),
            ]),
        ),
        (
            "G_5^8 G_1^8 G_1^16",
            code(vec![
                standards::shortened_hamming(8, 5).unwrap(),
                standards::parity_code(8),
                standards::parity_code(16),
            ]),
        ),
    ]
}

/// Per ensemble (in `ensembles` order), per case (in `CASES` order);
/// seed `0x7AB1E2 + index`.
const TABLE2_PINS: [[FloatFields; 4]; 3] = [
    // G_1^16 G_1^16
    [
        (23491, 0x4863_d230_207e_c034, 23438, 53, 100003),
        (23453, 0x4863_f2e0_8f97_10ec, 23402, 51, 100003),
        (1995, 0x4826_f56e_4976_1736, 1993, 2, 100003),
        (1993, 0x4820_d76d_0d43_2e94, 1992, 1, 100003),
    ],
    // G_6^16 G_6^16
    [
        (152, 0x47f0_86b9_1b4e_0227, 152, 0, 100003),
        (179, 0x47f1_8b71_d221_cfd4, 179, 0, 100003),
        (4, 0x44a0_0000_0000_0010, 4, 0, 100003),
        (4, 0x46f4_1f39_7e7f_ffea, 4, 0, 100003),
    ],
    // G_5^8 G_1^8 G_1^16
    [
        (5922, 0x4815_a027_569c_e0d1, 5917, 5, 100003),
        (5892, 0x4807_3157_885d_d266, 5888, 4, 100003),
        (1151, 0x47c8_3c56_c9d8_628a, 1151, 0, 100003),
        (1189, 0x47dc_3510_42b4_5e68, 1189, 0, 100003),
    ],
];

#[test]
fn table2_reports_are_pinned() {
    for (i, ((name, code), pins)) in ensembles().iter().zip(&TABLE2_PINS).enumerate() {
        assert!(code.codeword_len() <= 64);
        for (&(p, threads), pin) in CASES.iter().zip(pins) {
            let r = float32_trial(code, p, TRIALS, 0x7AB1E2 + i as u64, threads);
            assert_eq!(float_fields(&r), *pin, "{name}, p {p}, {threads} threads");
        }
    }
}
