//! Hard-decision vs. soft-decision (Chase-II) decoding of the
//! (128,120) inner code over BPSK/AWGN.
//!
//! The Bliss et al. proposal the paper's §4.1 verifies chose this
//! Hamming code for its cheap *soft chase decoding*; this experiment
//! measures the block-error-rate gap between plain syndrome decoding
//! and Chase-II with 2^t test patterns across an Eb/N0 sweep.
//!
//! ```text
//! cargo run -p fec-bench --release --bin soft_decoding [--trials=N] [--chase=T]
//! ```

use fec_bench::{arg_u64, print_header, print_row};
use fec_channel::awgn::Awgn;
use fec_cli::Arity::Value;
use fec_gf2::BitVec;
use fec_hamming::soft::{chase_decode, hard_decision};
use fec_hamming::{standards, CheckOutcome};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn main() {
    fec_bench::check_flags(&[("chase", Value), ("trials", Value)]);
    let trials = arg_u64("trials", 4_000);
    let t = arg_u64("chase", 4) as usize;
    let g = standards::ieee_8023df_128_120();
    let rate = g.data_len() as f64 / g.codeword_len() as f64;

    println!(
        "(128,120) over BPSK/AWGN: hard syndrome decoding vs Chase-II (2^{t} patterns), \
         {trials} blocks per point"
    );
    let widths = [10, 10, 12, 12, 9];
    print_header(
        &["Eb/N0 dB", "BSC-equiv", "hard BLER", "chase BLER", "gain"],
        &widths,
    );
    for ebn0 in [4.0, 5.0, 6.0, 7.0] {
        let ch = Awgn::from_ebn0_db(ebn0, rate);
        let mut rng = SmallRng::seed_from_u64(0x50F7 ^ ebn0.to_bits());
        let mut hard_err = 0u64;
        let mut soft_err = 0u64;
        for _ in 0..trials {
            let mut data = BitVec::zeros(120);
            for i in 0..120 {
                if rng.random::<bool>() {
                    data.set(i, true);
                }
            }
            let clean = g.encode(&data);
            let soft = ch.transmit(&mut rng, &clean);

            // hard decision + single-bit correction
            let mut hard = hard_decision(&soft);
            if let CheckOutcome::SingleError { position } = g.check(&hard) {
                hard.flip(position);
            }
            hard_err += u64::from(hard != clean);

            // Chase-II
            match chase_decode(&g, &soft, t) {
                Some(w) if w == clean => {}
                _ => soft_err += 1,
            }
        }
        let h = hard_err as f64 / trials as f64;
        let s = soft_err as f64 / trials as f64;
        print_row(
            &[
                format!("{ebn0:.1}"),
                format!("{:.1e}", ch.equivalent_ber()),
                format!("{h:.4}"),
                format!("{s:.4}"),
                if s > 0.0 {
                    format!("{:.1}x", h / s)
                } else {
                    "∞".into()
                },
            ],
            &widths,
        );
    }
    println!(
        "\nexpected shape (per Bliss et al. / Zhang et al.): Chase-II buys a\n\
         consistent block-error-rate factor over hard decoding, growing with SNR."
    );
}
