//! Concatenated FEC: the full 802.3df-style chain the paper's inner
//! Hamming code lives in.
//!
//! 802.3df pairs the (128,120) inner Hamming code (cheap single-bit
//! correction at line rate) with the KP4 outer code (RS(544,514) over
//! GF(2^10), 15-symbol correction). This experiment simulates the
//! chain end to end and reports post-FEC frame error rates across a
//! BER sweep, for four configurations:
//!
//!   1. no FEC,
//!   2. inner Hamming only (single-bit correction per 128-bit block),
//!   3. outer KP4 only,
//!   4. concatenated (inner correction, then outer cleanup),
//!
//! on both the independent-error BSC and a bursty Gilbert–Elliott
//! channel (where the outer symbol code does the heavy lifting).
//!
//! ```text
//! cargo run -p fec-bench --release --bin concat_fec [--frames=N]
//! ```

use fec_bench::{arg_u64, print_header, print_row};
use fec_channel::bsc::Bsc;
use fec_channel::burst::{GeState, GilbertElliott};
use fec_cli::Arity::Value;
use fec_gf2::BitVec;
use fec_hamming::{standards, CheckOutcome, Generator};
use fec_rs::{kp4, ReedSolomon};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One outer codeword: 544 ten-bit symbols = 5440 bits, carried in
/// ⌈5440/120⌉ = 46 inner blocks (last one padded with zeros).
struct Chain {
    inner: Generator,
    outer: ReedSolomon,
}

enum Mode {
    None,
    InnerOnly,
    OuterOnly,
    Concatenated,
}

impl Chain {
    fn new() -> Chain {
        Chain {
            inner: standards::ieee_8023df_128_120(),
            outer: kp4(),
        }
    }

    /// Simulates one frame; returns `true` on post-FEC frame error.
    fn frame_error(
        &self,
        rng: &mut SmallRng,
        mode: &Mode,
        channel: &mut dyn FnMut(&mut SmallRng, &mut BitVec) -> usize,
    ) -> bool {
        let k_sym = self.outer.data_len();
        let data: Vec<u16> = (0..k_sym).map(|_| (rng.random::<u16>()) & 0x3FF).collect();

        // outer encode (skipped in None/InnerOnly: the payload is then
        // the raw symbols, still framed as 544 symbols for fairness? —
        // no: without the outer code we transmit only the 514 data
        // symbols, which is exactly the overhead trade-off)
        let symbols: Vec<u16> = match mode {
            Mode::OuterOnly | Mode::Concatenated => self.outer.encode(&data),
            Mode::None | Mode::InnerOnly => data.clone(),
        };

        // pack symbols into a bit stream (10 bits each, LSB first)
        let mut bits = BitVec::zeros(symbols.len() * 10);
        for (i, &s) in symbols.iter().enumerate() {
            for j in 0..10 {
                bits.set(i * 10 + j, (s >> j) & 1 == 1);
            }
        }

        // inner blocks
        let k_in = self.inner.data_len();
        let use_inner = matches!(mode, Mode::InnerOnly | Mode::Concatenated);
        let nblocks = bits.len().div_ceil(k_in);
        let mut received_bits = BitVec::zeros(nblocks * k_in);
        for b in 0..nblocks {
            let mut block = BitVec::zeros(k_in);
            for i in 0..k_in {
                let src = b * k_in + i;
                if src < bits.len() {
                    block.set(i, bits.get(src));
                }
            }
            let mut wire = if use_inner {
                self.inner.encode(&block)
            } else {
                block
            };
            channel(rng, &mut wire);
            let corrected = if use_inner {
                let mut w = wire;
                if let CheckOutcome::SingleError { position } = self.inner.check(&w) {
                    w.flip(position);
                }
                self.inner.extract_data(&w)
            } else {
                wire
            };
            for i in 0..k_in {
                received_bits.set(b * k_in + i, corrected.get(i));
            }
        }

        // unpack symbols
        let mut rx_symbols: Vec<u16> = (0..symbols.len())
            .map(|i| {
                let mut s = 0u16;
                for j in 0..10 {
                    s |= u16::from(received_bits.get(i * 10 + j)) << j;
                }
                s
            })
            .collect();

        // outer decode
        match mode {
            Mode::OuterOnly | Mode::Concatenated => {
                let _ = self.outer.decode(&mut rx_symbols);
                rx_symbols[..k_sym] != data[..]
            }
            Mode::None | Mode::InnerOnly => rx_symbols != data,
        }
    }
}

fn main() {
    fec_bench::check_flags(&[("frames", Value)]);
    let frames = arg_u64("frames", 300);
    let chain = Chain::new();
    let modes: [(&str, Mode); 4] = [
        ("no FEC", Mode::None),
        ("inner Hamming", Mode::InnerOnly),
        ("outer KP4", Mode::OuterOnly),
        ("concatenated", Mode::Concatenated),
    ];

    println!("Concatenated 802.3df-style FEC: frame error rate over {frames} frames per point");
    println!("\n--- independent errors (BSC) ---");
    let widths = [9, 10, 15, 11, 14];
    print_header(
        &[
            "BER",
            "no FEC",
            "inner Hamming",
            "outer KP4",
            "concatenated",
        ],
        &widths,
    );
    for ber in [1e-4, 3e-4, 1e-3, 3e-3] {
        let mut cells = vec![format!("{ber:.0e}")];
        for (_, mode) in &modes {
            let bsc = Bsc::new(ber);
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ ber.to_bits());
            let mut errs = 0u64;
            for _ in 0..frames {
                let mut ch = |rng: &mut SmallRng, w: &mut BitVec| bsc.transmit(rng, w);
                errs += u64::from(chain.frame_error(&mut rng, mode, &mut ch));
            }
            cells.push(format!("{:.3}", errs as f64 / frames as f64));
        }
        print_row(&cells, &widths);
    }

    println!(
        "\n--- bursty channel (Gilbert–Elliott, avg BER ≈ {:.1e}) ---",
        GilbertElliott::bursty().average_ber()
    );
    print_header(
        &[
            "profile",
            "no FEC",
            "inner Hamming",
            "outer KP4",
            "concatenated",
        ],
        &widths,
    );
    let mut cells = vec!["bursty".to_string()];
    for (_, mode) in &modes {
        let ge = GilbertElliott::bursty();
        let mut rng = SmallRng::seed_from_u64(0xB035);
        let mut state = GeState::Good;
        let mut errs = 0u64;
        for _ in 0..frames {
            let mut ch = |rng: &mut SmallRng, w: &mut BitVec| ge.transmit(rng, &mut state, w);
            errs += u64::from(chain.frame_error(&mut rng, mode, &mut ch));
        }
        cells.push(format!("{:.3}", errs as f64 / frames as f64));
    }
    print_row(&cells, &widths);

    println!(
        "\ntakeaway: the inner code alone leaves residual errors the outer\n\
         symbol code mops up; under bursts the outer RS dominates — the\n\
         802.3df design rationale the paper's §1 describes."
    );
}
