//! Figure 6: compressibility of generators.
//!
//! §4.4, second experiment: for each generator in the len_1 family,
//! iterate the coefficient-matrix columns writing the bits into a
//! file, build a TAR archive, and gzip it (the paper's exact flow —
//! "we created a GZIP-compressed TAR archive from each of these
//! binary files"). Sparser matrices have longer zero runs and
//! compress smaller. The gzip and the TAR writer are our own
//! (`fec-flate`; round-trip verified on every file).
//!
//! Two serializations are reported: one ASCII character per bit (the
//! reading of "writing the bits into a file" that shows the paper's
//! trend at this file size) and packed 8-bits-per-byte.
//!
//! ```text
//! cargo run -p fec-bench --release --bin fig6 [--points=N] [--timeout=SECS]
//! ```

use fec_bench::{arg_u64, print_header, print_row, synth_timeout};
use fec_cli::Arity::{Bare, Value};
use fec_flate::{gzip_compress, gzip_decompress};
use fec_hamming::Generator;
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;

fn main() {
    fec_bench::check_flags(&[("points", Value), ("quick", Bare), ("timeout", Value)]);
    let config = SynthesisConfig {
        timeout: synth_timeout(),
        ..Default::default()
    };
    let points = arg_u64("points", 24) as usize;
    // the paper's family spans len_1 ∈ [119, 200]; cover [72, 200]
    let (lo, hi) = (72i64, 200i64);
    let targets: Vec<i64> = (0..points)
        .map(|i| hi - (hi - lo) * i as i64 / (points.max(2) - 1) as i64)
        .collect();
    eprintln!("synthesizing (49,32) md-3 generators at len_1 = {targets:?} …");

    println!("\nFig. 6: gzip'd TAR size of coefficient bit files (column-major)");
    let widths = [6, 14, 16, 18];
    print_header(
        &["ones", "ascii bytes", "tar.gz (ascii)", "tar.gz (packed)"],
        &widths,
    );
    for t in targets {
        let prop = parse_property(&format!(
            "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = {t}"
        ))
        .expect("static property");
        let g = match Synthesizer::new(config).run(&prop) {
            Ok(r) => r.generators.into_iter().next().unwrap(),
            Err(e) => {
                eprintln!("  len_1 = {t}: {e} (skipped)");
                continue;
            }
        };
        let ascii = column_major_bits(&g, true);
        let packed = column_major_bits(&g, false);
        let gz_ascii = gzip_compress(&tar_archive("bits.txt", &ascii));
        let gz_packed = gzip_compress(&tar_archive("bits.bin", &packed));
        assert_eq!(
            gzip_decompress(&gz_ascii).expect("round trip"),
            tar_archive("bits.txt", &ascii)
        );
        print_row(
            &[
                t.to_string(),
                ascii.len().to_string(),
                gz_ascii.len().to_string(),
                gz_packed.len().to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\npaper's trend: archive size decreases as the number of set bits\n\
         decreases (sparser matrices are more compressible)."
    );
}

/// Column-major bit serialization: ASCII `'0'`/`'1'` per bit, or packed
/// LSB-first bytes.
fn column_major_bits(g: &Generator, ascii: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let mut acc = 0u8;
    let mut n = 0;
    for col in 0..g.check_len() {
        for row in 0..g.data_len() {
            let bit = g.coefficients().get(row, col);
            if ascii {
                out.push(if bit { b'1' } else { b'0' });
            } else {
                acc |= u8::from(bit) << n;
                n += 1;
                if n == 8 {
                    out.push(acc);
                    acc = 0;
                    n = 0;
                }
            }
        }
    }
    if n > 0 {
        out.push(acc);
    }
    out
}

/// A minimal single-member ustar archive (512-byte header, content
/// padded to 512, two trailing zero blocks) — enough for `tar tf`.
fn tar_archive(name: &str, content: &[u8]) -> Vec<u8> {
    let mut header = [0u8; 512];
    header[..name.len()].copy_from_slice(name.as_bytes());
    header[100..107].copy_from_slice(b"0000644"); // mode
    header[108..115].copy_from_slice(b"0000000"); // uid
    header[116..123].copy_from_slice(b"0000000"); // gid
    let size = format!("{:011o}", content.len());
    header[124..135].copy_from_slice(size.as_bytes());
    header[136..147].copy_from_slice(b"00000000000"); // mtime
    header[156] = b'0'; // regular file
    header[257..262].copy_from_slice(b"ustar");
    header[263..265].copy_from_slice(b"00");
    // checksum: spaces while summing, then octal
    header[148..156].copy_from_slice(b"        ");
    let sum: u32 = header.iter().map(|&b| b as u32).sum();
    let chk = format!("{sum:06o}\0 ");
    header[148..156].copy_from_slice(chk.as_bytes());

    let mut out = Vec::with_capacity(512 * 4);
    out.extend_from_slice(&header);
    out.extend_from_slice(content);
    let pad = (512 - content.len() % 512) % 512;
    out.extend(std::iter::repeat_n(0u8, pad));
    out.extend(std::iter::repeat_n(0u8, 1024)); // end-of-archive
    out
}
