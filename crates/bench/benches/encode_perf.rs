//! Ablation: does a smaller XOR circuit encode faster (Fig. 5's
//! mechanism in isolation, and the cost model of §4.4)?
//!
//! Times the one runtime encoder, `CircuitKernel`, compiled from the
//! sparse generator circuit (`Circuit::from_generator`, one XOR chain
//! per check column) and from the certified minimized circuit
//! (`CircuitKernel::minimized`), on a dense and a sparse (49,32) md-3
//! code and on the (128,120) 802.3df code. Each is timed on the scalar
//! entry point and on the 64-lane pass (`encode_checks_lanes`). One
//! iteration encodes 4,096 words; divide 1e9 by the printed elem/s for
//! ns/word.
//!
//! ```text
//! cargo bench -p fec-bench --bench encode_perf
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fec_circ::{Circuit, CircuitKernel};
use fec_gf2::BitMatrix;
use fec_hamming::{standards, Generator};

/// Words encoded per timed iteration.
const WORDS: usize = 4096;

/// ~50% fill with distinct weight-≥6 rows: a genuinely dense (49,32)
/// coefficient matrix (vs the 2-per-row sparse one below).
fn dense_code() -> Generator {
    let mut p = BitMatrix::zeros(32, 17);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut seen = std::collections::HashSet::new();
    for r in 0..32 {
        loop {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let row = (x >> 40) as u32 & 0x1FFFF;
            if row.count_ones() >= 6 && seen.insert(row) {
                for c in 0..17 {
                    p.set(r, c, (row >> c) & 1 == 1);
                }
                break;
            }
        }
    }
    Generator::from_coefficients(p)
}

/// Minimal-ones md-3 structure: two bits per row, staggered.
fn sparse_code() -> Generator {
    let mut p = BitMatrix::zeros(32, 17);
    let mut combos = (0..17usize)
        .flat_map(|a| ((a + 1)..17).map(move |b| (a, b)))
        .take(32);
    for r in 0..32 {
        let (a, b) = combos.next().unwrap();
        p.set(r, a, true);
        p.set(r, b, true);
    }
    Generator::from_coefficients(p)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_checks");
    group.throughput(Throughput::Elements(WORDS as u64));
    for (name, g) in [
        ("dense_49_32", dense_code()),
        ("sparse_49_32", sparse_code()),
        ("8023df_128_120", standards::ieee_8023df_128_120()),
    ] {
        let stride = g.data_len().div_ceil(64);
        let mut x = 0x0123_4567_89AB_CDEFu64;
        let words: Vec<u64> = (0..WORDS * stride)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect();
        let kernels = [
            ("sparse", CircuitKernel::new(&Circuit::from_generator(&g))),
            ("minimized", CircuitKernel::minimized(&g)),
        ];
        for (form, mut kernel) in kernels {
            let param = format!("{name}_{}xors", kernel.xor_count());
            group.bench_with_input(
                BenchmarkId::new(format!("{form}/scalar"), &param),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let mut acc = 0u64;
                        for w in words.chunks(stride) {
                            acc ^= if stride == 1 {
                                kernel.encode_checks(w[0])
                            } else {
                                kernel.encode_checks_wide(w)
                            };
                        }
                        acc
                    })
                },
            );
            let mut checks = vec![0u64; WORDS];
            group.bench_with_input(
                BenchmarkId::new(format!("{form}/lanes64"), &param),
                &(),
                |b, ()| {
                    b.iter(|| {
                        for (batch, out) in words.chunks(64 * stride).zip(checks.chunks_mut(64)) {
                            kernel.encode_checks_lanes(batch, stride, out);
                        }
                        checks[WORDS - 1]
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_kernels
}
criterion_main!(benches);
