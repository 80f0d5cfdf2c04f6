//! Figure 1: normalized average magnitude of numeric error vs. bit
//! position, for 32-bit integers and floats.
//!
//! ```text
//! cargo run -p fec-bench --release --bin fig1 [--samples=N]
//! ```

use fec_bench::{arg_u64, print_header, print_row};
use fec_channel::floatbits::bit_error_profile;
use fec_cli::Arity::Value;

fn main() {
    fec_bench::check_flags(&[("samples", Value)]);
    let samples = arg_u64("samples", 1_000_000);
    eprintln!("Fig. 1: per-bit error magnitude ({samples} float samples per bit)");
    let profile = bit_error_profile(samples, 0xF161);
    let widths = [4, 12, 12];
    print_header(&["bit", "int32", "float32"], &widths);
    for bit in (0..32).rev() {
        print_row(
            &[
                bit.to_string(),
                format!("{:.1}", profile.int32[bit]),
                format!("{:.1}", profile.float32[bit]),
            ],
            &widths,
        );
    }
    // the §4.3 weight derivation (upper 16 float bits, MSB first)
    let weights: Vec<String> = (0..16)
        .map(|i| format!("{:.0}", profile.float32[31 - i].max(1.0)))
        .collect();
    println!("\nderived §4.3 weights (MSB→bit16): {}", weights.join(", "));
    println!("paper's weights:                   100, 100, 100, 100, 99, 98, 82, 45, 17, 17, 8, 4, 2, 1, 1, 1");
}
