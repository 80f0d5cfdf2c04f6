//! The four workloads: inputs made from the seed, one pass over their
//! operations, and the independent oracles that check every output.
//!
//! An operation is one call into the program's public API (a spec, a
//! verification query, a payload segment, a Monte-Carlo row). Operations
//! run one after another on the calling thread: a closed loop with one
//! client. Only the program call is timed; the oracle that checks its
//! output runs after the clock stops, inside its own trace span.

use fec_analyze::bounds;
use fec_channel::experiment::{robustness_trial_backend, EncodeBackend, RobustnessReport};
use fec_gf2::BitVec;
use fec_hamming::crc::crc_generator;
use fec_hamming::distance::min_distance_exhaustive;
use fec_hamming::robustness::p_undetected_exact;
use fec_hamming::{standards, Generator};
use fec_smt::Budget;
use fec_stream::{deterministic_payload, run_stream, StreamConfig, StreamOutcome, StreamStats};
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::encode::CexMode;
use fec_synth::spec::{parse_property, Prop};
use fec_synth::verify::{
    verify_min_distance_at_least_with, verify_min_distance_exact_with, VerifyOptions, VerifyOutcome,
};
use fec_trace::Level;
use std::time::{Duration, Instant};

/// The named workloads, in the order `--all` runs them. Each keeps one
/// thread busy: on a host of two shared cores a workload that kept
/// both busy (such as verification on a two-worker pool) would time
/// the host's scheduler as much as the program, so the portfolio is
/// measured by layer probes instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Table1Paper,
    VerifyCrc,
    Stream8023df,
    Fig4Mc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Paper,
        Workload::VerifyCrc,
        Workload::Stream8023df,
        Workload::Fig4Mc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Paper => "table1-paper",
            Workload::VerifyCrc => "verify-crc",
            Workload::Stream8023df => "stream-8023df",
            Workload::Fig4Mc => "fig4-mc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Throughput workloads run one untimed pass first: the first
    /// Monte-Carlo pass reads ~15% slower than the rest.
    pub fn warms_up(self) -> bool {
        matches!(self, Workload::Stream8023df | Workload::Fig4Mc)
    }
}

/// Per-solver-call budget for the synthesis and verification
/// workloads; running into it fails the operation.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Known optimal check lengths of `[n, 4, d]` codes (Table 1's answer).
pub const TABLE1_OPTIMA: [(usize, usize); 7] =
    [(8, 11), (7, 10), (6, 8), (5, 7), (4, 4), (3, 3), (2, 2)];

/// Table 1's k = 4 optima, pinned as coefficient rows so that a CEGIS
/// change cannot alter the Monte-Carlo inputs. Each is checked by
/// exhaustive distance at set-up.
pub const FIG4_GENERATORS: [(usize, [&str; 4]); 7] = [
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

/// Fig. 4's binary symmetric channel.
pub const FIG4_P: f64 = 0.1;

/// The payload: 2 MiB as 64 segments of 32 KiB, each rounded down to
/// whole 15-byte (120-bit) data words, so every delivered word maps to
/// whole payload bytes. Each segment is one `run_stream` call, so a
/// pass is 64 operations of ~25 ms and a run of ~15 passes times every
/// segment fifteen times, where one 4 MiB call per pass gave a run four
/// samples.
const STREAM_SEGMENTS: usize = 64;
const STREAM_SEGMENTS_QUICK: usize = 2;
const STREAM_SEGMENT_BYTES: usize = (32 << 10) / 15 * 15;
const FIG4_TRIALS: u64 = 5_000_000;
const FIG4_TRIALS_QUICK: u64 = 100_000;

/// A workload's inputs, made from the seed by [`setup`].
pub enum Inputs {
    Table1 {
        config: SynthesisConfig,
        rows: Vec<Table1Row>,
    },
    Verify {
        opts: VerifyOptions,
        queries: Vec<Query>,
    },
    Stream {
        segments: Vec<StreamSegment>,
    },
    Fig4 {
        trials: u64,
        rows: Vec<Fig4Row>,
    },
}

pub struct StreamSegment {
    pub payload: Vec<u8>,
    pub config: StreamConfig,
}

pub struct Table1Row {
    pub name: String,
    pub md: usize,
    /// `None` for rows the coding bounds refute without a solver.
    pub spec: Option<Prop>,
    pub expected_check: usize,
}

pub struct Query {
    pub name: &'static str,
    pub generator: Generator,
    /// `true`: `md = d` exactly; `false`: `md ≥ d`.
    pub exact: bool,
    pub d: usize,
    pub expect_holds: bool,
}

pub struct Fig4Row {
    pub name: String,
    pub md: usize,
    pub generator: Generator,
    pub channel_seed: u64,
    pub expected_at_least_md: f64,
    pub expected_undetected: f64,
}

/// Makes a workload's inputs. The seed drives the stream payload, its
/// channel and repair masks, and the Monte-Carlo channel; the synthesis
/// and verification inputs are the paper's fixed rows.
pub fn setup(w: Workload, seed: u64, quick: bool) -> Result<Inputs, String> {
    Ok(match w {
        Workload::Table1Paper => {
            let config = SynthesisConfig {
                timeout: OP_TIMEOUT,
                cex_mode: CexMode::BlockCandidate,
                persist_counterexamples: false,
                ..Default::default()
            };
            let mut rows: Vec<Table1Row> = [10, 9]
                .into_iter()
                .map(|md| Table1Row {
                    name: format!("m{md}"),
                    md,
                    spec: None,
                    expected_check: 0,
                })
                .collect();
            for (md, check) in TABLE1_OPTIMA {
                if quick && md > 6 {
                    continue;
                }
                let spec = parse_property(&format!(
                    "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {md} && minimal(len_c(G0))"
                ))
                .map_err(|e| format!("Table 1 spec md = {md}: {e}"))?;
                rows.push(Table1Row {
                    name: format!("m{md}"),
                    md,
                    spec: Some(spec),
                    expected_check: check,
                });
            }
            Inputs::Table1 { config, rows }
        }
        Workload::VerifyCrc => {
            let opts = VerifyOptions {
                budget: Budget::with_timeout(OP_TIMEOUT),
                ..Default::default()
            };
            let ieee = standards::ieee_8023df_128_120();
            let mut queries = vec![
                Query {
                    name: "8023df-md3",
                    generator: ieee.clone(),
                    exact: true,
                    d: 3,
                    expect_holds: true,
                },
                Query {
                    name: "8023df-md4",
                    generator: ieee,
                    exact: true,
                    d: 4,
                    expect_holds: false,
                },
            ];
            if !quick {
                // Koopman's question (the paper's ref. [16]): does each
                // standard CRC reach Hamming distance 4 at n = 128?
                for (name, k, poly) in [
                    ("crc16-k112", 112, 0x1_1021),
                    ("crc24-k104", 104, 0x186_4CFB),
                    ("crc32c-k96", 96, 0x1_1EDC_6F41),
                ] {
                    queries.push(Query {
                        name,
                        generator: crc_generator(k, poly)
                            .ok_or_else(|| format!("{name}: not a CRC generator"))?,
                        exact: false,
                        d: 4,
                        expect_holds: true,
                    });
                }
            }
            Inputs::Verify { opts, queries }
        }
        Workload::Stream8023df => {
            let count = if quick {
                STREAM_SEGMENTS_QUICK
            } else {
                STREAM_SEGMENTS
            };
            // segment i of seed s runs on seed 64·s + i: distinct for
            // every segment of every seed
            let segments = (0..count)
                .map(|i| {
                    let segment_seed = seed
                        .wrapping_mul(STREAM_SEGMENTS as u64)
                        .wrapping_add(i as u64);
                    StreamSegment {
                        payload: deterministic_payload(STREAM_SEGMENT_BYTES, segment_seed),
                        config: StreamConfig::static_8023df(segment_seed),
                    }
                })
                .collect();
            Inputs::Stream { segments }
        }
        Workload::Fig4Mc => {
            let trials = if quick {
                FIG4_TRIALS_QUICK
            } else {
                FIG4_TRIALS
            };
            let mut rows = Vec::new();
            for (md, coeff) in FIG4_GENERATORS {
                let generator = pinned_generator(md, &coeff)?;
                rows.push(Fig4Row {
                    name: format!("md{md}"),
                    md,
                    channel_seed: seed.wrapping_add(md as u64),
                    expected_at_least_md: RobustnessReport::theoretical_at_least_md(
                        generator.codeword_len(),
                        md,
                        FIG4_P,
                        trials,
                    ),
                    expected_undetected: p_undetected_exact(&generator, FIG4_P) * trials as f64,
                    generator,
                });
            }
            Inputs::Fig4 { trials, rows }
        }
    })
}

/// Parses pinned coefficient rows and checks the code's minimum
/// distance exhaustively.
pub fn pinned_generator(md: usize, rows: &[&str]) -> Result<Generator, String> {
    let g = Generator::from_coeff_str(&rows.join("\n"))
        .ok_or_else(|| format!("pinned md = {md} generator does not parse"))?;
    let found = min_distance_exhaustive(&g);
    if found != md {
        return Err(format!("pinned generator for md = {md} has md = {found}"));
    }
    Ok(g)
}

/// Work counts one pass reports, read from the program's own results.
#[derive(Debug, Default)]
pub struct Counts {
    pub cegis_iterations: u64,
    pub refuted: u64,
    pub conflicts: u64,
    pub propagations: u64,
    /// One entry per stream segment, in segment order.
    pub stream: Vec<StreamStats>,
}

/// One pass over a workload's operations.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds spent inside each operation's program call, in
    /// operation order (oracles excluded).
    pub op_s: Vec<f64>,
    pub failed: u64,
    pub counts: Counts,
}

impl Pass {
    /// Seconds spent inside program calls over the whole pass.
    pub fn busy_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    /// Runs one operation: `call` is timed, `check` is its oracle.
    fn op<T>(
        &mut self,
        w: Workload,
        name: &str,
        call: impl FnOnce() -> T,
        check: impl FnOnce(&T, &mut Counts) -> bool,
    ) {
        let _op = fec_trace::span!(Level::Info, "bench.op",
            "workload" => w.name(), "request" => self.op_s.len(), "op" => name);
        let start = Instant::now();
        let out = call();
        self.op_s.push(start.elapsed().as_secs_f64());
        let ok = {
            let _s = fec_trace::span!(Level::Info, "bench.stage.oracle");
            check(&out, &mut self.counts)
        };
        if !ok {
            self.failed += 1;
            eprintln!("fecbench: {}/{name}: output failed its oracle", w.name());
        }
    }
}

/// Runs every operation of the workload once. `reference` is the
/// per-segment stream statistics of an earlier pass on the same seed,
/// which this pass must reproduce exactly.
pub fn run_pass(w: Workload, inputs: &Inputs, reference: Option<&[StreamStats]>) -> Pass {
    let mut pass = Pass::default();
    match inputs {
        Inputs::Table1 { config, rows } => {
            for row in rows {
                match &row.spec {
                    None => pass.op(
                        w,
                        &row.name,
                        || {
                            let _s = fec_trace::span!(Level::Info, "bench.stage.analyze");
                            // n = k + max len_c = 4 + 14
                            bounds::refute(18, 4, row.md)
                        },
                        |cert, c| {
                            c.refuted += u64::from(cert.is_some());
                            cert.is_some()
                        },
                    ),
                    Some(spec) => pass.op(
                        w,
                        &row.name,
                        || Synthesizer::new(*config).run(spec),
                        |r, c| match r {
                            Ok(r) => {
                                c.cegis_iterations += r.iterations;
                                let g = &r.generators[0];
                                g.check_len() == row.expected_check
                                    && min_distance_exhaustive(g) >= row.md
                            }
                            Err(_) => false,
                        },
                    ),
                }
            }
        }
        Inputs::Verify { opts, queries } => {
            for q in queries {
                pass.op(
                    w,
                    q.name,
                    || {
                        if q.exact {
                            verify_min_distance_exact_with(&q.generator, q.d, *opts)
                        } else {
                            verify_min_distance_at_least_with(&q.generator, q.d, *opts)
                        }
                    },
                    |(outcome, stats), c| {
                        c.conflicts += stats.conflicts;
                        c.propagations += stats.propagations;
                        verdict_ok(q, outcome)
                    },
                );
            }
        }
        Inputs::Stream { segments } => {
            for (i, s) in segments.iter().enumerate() {
                pass.op(
                    w,
                    "run_stream",
                    || run_stream(&s.payload, &s.config),
                    |out, c| {
                        c.stream.push(out.stats.clone());
                        let k = s.config.inner.data_len();
                        stream_ok(&s.payload, out, k, reference.map(|r| &r[i]))
                    },
                );
            }
        }
        Inputs::Fig4 { trials, rows } => {
            for row in rows {
                pass.op(
                    w,
                    &row.name,
                    || {
                        let _s = fec_trace::span!(Level::Info, "bench.stage.channel");
                        robustness_trial_backend(
                            &row.generator,
                            row.md,
                            FIG4_P,
                            *trials,
                            row.channel_seed,
                            1,
                            EncodeBackend::MinimizedKernel,
                        )
                    },
                    |r, _| fig4_ok(row, *trials, r),
                );
            }
        }
    }
    pass
}

/// The verdict matches the constant, and a FAILS carries a witness:
/// a non-zero data word whose codeword, re-encoded here with the plain
/// matrix encoder, has weight below `d`.
pub fn verdict_ok(q: &Query, outcome: &VerifyOutcome) -> bool {
    match outcome {
        VerifyOutcome::Holds => q.expect_holds,
        VerifyOutcome::Fails { witness: Some(x) } => {
            !q.expect_holds && witness_ok(&q.generator, x, q.d)
        }
        VerifyOutcome::Fails { witness: None } | VerifyOutcome::Unknown => false,
    }
}

pub fn witness_ok(g: &Generator, x: &BitVec, d: usize) -> bool {
    x.len() == g.data_len() && !x.is_zero() && g.encode(x).count_ones() < d
}

/// Delivered words that differ from the payload are exactly the lost
/// and corrupted ones, and the statistics repeat those of an earlier
/// pass on the same seed. Data words of `word_bits` bits cover whole
/// payload bytes, so comparing `word_bits / 8`-byte chunks compares
/// re-packetized words without going through the packetizer.
pub fn stream_ok(
    payload: &[u8],
    out: &StreamOutcome,
    word_bits: usize,
    reference: Option<&StreamStats>,
) -> bool {
    assert_eq!(word_bits % 8, 0, "stream oracle needs byte-aligned words");
    let chunk = word_bits / 8;
    let mismatched = payload
        .chunks(chunk)
        .zip(out.bytes.chunks(chunk))
        .filter(|(a, b)| a != b)
        .count() as u64;
    out.bytes.len() == payload.len()
        && mismatched == out.stats.lost_words + out.stats.corrupted_words
        && reference.is_none_or(|r| *r == out.stats)
}

/// Both Monte-Carlo lines stay within 5σ of their exact expectations:
/// `P(≥ md flips)·trials` and `P_u·trials` from the weight
/// distribution. σ is the binomial deviation, floored at 1 so that
/// rows expecting well under one event do not fail on a single one.
pub fn fig4_ok(row: &Fig4Row, trials: u64, r: &RobustnessReport) -> bool {
    r.trials == trials
        && within_5_sigma(r.at_least_md_flips, row.expected_at_least_md, trials)
        && within_5_sigma(r.undetected, row.expected_undetected, trials)
}

fn within_5_sigma(observed: u64, expected: f64, trials: u64) -> bool {
    let q = expected / trials as f64;
    let sigma = (trials as f64 * q * (1.0 - q)).max(1.0).sqrt();
    (observed as f64 - expected).abs() <= 5.0 * sigma
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(w: Workload, seed: u64) -> Vec<u8> {
        match setup(w, seed, true).expect("setup") {
            Inputs::Stream { segments } => segments.into_iter().flat_map(|s| s.payload).collect(),
            _ => unreachable!(),
        }
    }

    fn fig4_seeds(seed: u64) -> Vec<u64> {
        match setup(Workload::Fig4Mc, seed, true).expect("setup") {
            Inputs::Fig4 { rows, .. } => rows.iter().map(|r| r.channel_seed).collect(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn equal_seeds_give_equal_inputs_and_different_seeds_differ() {
        let s = Workload::Stream8023df;
        assert_eq!(payload(s, 7), payload(s, 7));
        assert_ne!(payload(s, 7), payload(s, 8));
        assert_eq!(fig4_seeds(7), fig4_seeds(7));
        assert_ne!(fig4_seeds(7), fig4_seeds(8));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("table1"), None);
    }

    #[test]
    fn pinned_generators_have_their_distance() {
        for (md, rows) in FIG4_GENERATORS {
            pinned_generator(md, &rows).expect("pinned generator");
        }
        assert!(pinned_generator(5, &FIG4_GENERATORS[0].1).is_err());
    }

    #[test]
    fn table1_optima_match_the_pinned_codes() {
        for ((md, check), (pmd, rows)) in TABLE1_OPTIMA.iter().zip(FIG4_GENERATORS) {
            assert_eq!(*md, pmd);
            assert_eq!(rows[0].len(), *check);
        }
    }
}
