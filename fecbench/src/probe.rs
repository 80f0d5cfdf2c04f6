//! Layer probes: small measurements of one layer each, on fixed inputs
//! made from the seed. They run untraced after every traced pass, so
//! each per-layer time is measured on every workload and a change to a
//! layer moves its probe whichever workload is being run.
//!
//! Each probe times the layer's public functions directly and reports
//! the median of [`REPS`] repetitions.

use crate::metrics::Values;
use crate::stats::median;
use crate::workload::FIG4_GENERATORS;
use fec_analyze::{analyze, bounds};
use fec_channel::bsc::Bsc;
use fec_channel::burst::{BlockInterleaver, GeState, GilbertElliott};
use fec_circ::{minimize, CircuitKernel};
use fec_gf2::BitVec;
use fec_hamming::{standards, Generator};
use fec_smt::{Budget, PortfolioConfig, SmtResult, SmtSolver, SolveBackend};
use fec_stream::fountain::{encode_repairs, recover_generation, repair_mask};
use fec_stream::{deterministic_payload, run_stream, BurstProfile, Packetizer, StreamConfig};
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::encode::CexMode;
use fec_synth::spec::parse_property;
use fec_synth::verify::{verify_min_distance_exact_with, VerifyOptions};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// A probe loop's size: `quick` shrinks every loop for the test suite.
fn size(full: usize, quick: bool) -> usize {
    if quick {
        (full / 50).max(1)
    } else {
        full
    }
}

/// Runs every probe and stores its metrics in `out`.
pub fn run(seed: u64, quick: bool, out: &mut Values) {
    analyze_probe(quick, out);
    cegis_probe(quick, out);
    sat_probe(out);
    dispatch_probe(quick, out);
    portfolio_probe(out);
    let encode_8023df_ns = circuit_probes(seed, quick, out);
    let (ge_ns, interleave_ns) = channel_probes(seed, quick, out);
    stream_probes(seed, quick, encode_8023df_ns, ge_ns + interleave_ns, out);
}

/// Median over [`REPS`] runs of `f`, in nanoseconds per `per` units.
fn ns_per(per: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&samples)
}

/// `fec_analyze::analyze` on the Table 1 specs, plus the two rows the
/// coding bounds refute.
fn analyze_probe(quick: bool, out: &mut Values) {
    let specs: Vec<_> = (2..=8)
        .map(|m| {
            parse_property(&format!(
                "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {m} && minimal(len_c(G0))"
            ))
            .expect("static Table 1 spec")
        })
        .collect();
    let rounds = size(200, quick);
    let ns = ns_per(rounds * (specs.len() + 2), || {
        for _ in 0..rounds {
            for p in &specs {
                black_box(analyze(black_box(p), 14).expect("Table 1 spec analyzes"));
            }
            for m in [9, 10] {
                black_box(bounds::refute(18, 4, black_box(m)));
            }
        }
    });
    out.set("analyze.us_per_spec", ns / 1e3);
}

/// CEGIS cost per iteration on a mid-size paper-mode Table 1 row
/// (md = 6: 1,940 iterations of tiny incremental queries).
fn cegis_probe(quick: bool, out: &mut Values) {
    let md = if quick { 4 } else { 6 };
    let prop = parse_property(&format!(
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {md} && minimal(len_c(G0))"
    ))
    .expect("static Table 1 spec");
    let config = SynthesisConfig {
        cex_mode: CexMode::BlockCandidate,
        persist_counterexamples: false,
        ..Default::default()
    };
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = Synthesizer::new(config)
                .run(&prop)
                .expect("paper-mode probe row synthesizes");
            t.elapsed().as_secs_f64() * 1e6 / r.iterations as f64
        })
        .collect();
    out.set("core.cegis_iter_us", median(&samples));
}

/// SAT search rates on the §4.1 query `md(802.3df) = 3`: two long
/// UNSAT/SAT searches, no CEGIS around them.
fn sat_probe(out: &mut Values) {
    let g = standards::ieee_8023df_128_120();
    let mut props = Vec::new();
    let mut conflicts = Vec::new();
    for _ in 0..3 {
        let (_, stats) = verify_min_distance_exact_with(&g, 3, VerifyOptions::default());
        let secs = stats.elapsed.as_secs_f64();
        props.push(stats.propagations as f64 / secs);
        conflicts.push(stats.conflicts as f64 / secs);
    }
    out.set("sat.props_per_s", median(&props));
    out.set("sat.conflicts_per_s", median(&conflicts));
}

/// Round trips of a trivial query through a warm two-worker pool: the
/// fixed cost the portfolio adds to every solver call.
fn dispatch_probe(quick: bool, out: &mut Values) {
    let mut solver =
        SmtSolver::with_backend(SolveBackend::Portfolio(PortfolioConfig::with_jobs(2)));
    let x = solver.fresh_lit();
    solver.add_clause(&[x]);
    for _ in 0..size(100, quick) {
        solver.solve_with_budget(&[], Budget::unlimited());
    }
    let lat_us: Vec<f64> = (0..size(2000, quick))
        .map(|_| {
            let t = Instant::now();
            let r = solver.solve_with_budget(&[], Budget::unlimited());
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(r, SmtResult::Sat, "trivial query must be satisfiable");
            us
        })
        .collect();
    let mut sorted = lat_us;
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    out.set("portfolio.dispatch_us.p50", at(0.5));
    out.set("portfolio.dispatch_us.p90", at(0.9));
}

/// The `sat_probe` query on a warm two-worker pool: how the race
/// splits its conflicts between the workers (the winner's share is the
/// useful part) and how many clauses they share.
fn portfolio_probe(out: &mut Values) {
    let opts = VerifyOptions {
        jobs: 2,
        ..Default::default()
    };
    let (_, stats) = verify_min_distance_exact_with(&standards::ieee_8023df_128_120(), 3, opts);
    let (mut conflicts, mut winner_conflicts) = (0, 0);
    let (mut exported, mut imported, mut rejected) = (0, 0, 0);
    for run in &stats.portfolio {
        conflicts += run.per_worker_conflicts.iter().sum::<u64>();
        if let Some(w) = run.winner {
            winner_conflicts += run.per_worker_conflicts[w];
        }
        exported += run.exported;
        imported += run.imported;
        rejected += run.rejected;
    }
    out.set("portfolio.conflicts", conflicts as f64);
    out.set(
        "portfolio.winner_frac",
        winner_conflicts as f64 / conflicts.max(1) as f64,
    );
    out.set("portfolio.exported", exported as f64);
    out.set("portfolio.imported", imported as f64);
    out.set("portfolio.rejected", rejected as f64);
}

/// The minimized kernels: XOR counts, time per encode, and the cost of
/// minimizing the 802.3df encoder. Returns ns per 802.3df encode.
fn circuit_probes(seed: u64, quick: bool, out: &mut Values) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC1C0);
    let ieee = standards::ieee_8023df_128_120();
    let mut kernel = CircuitKernel::minimized(&ieee);
    out.set("circuit.xors.8023df", kernel.xor_count() as f64);
    let words: Vec<[u64; 2]> = (0..1024)
        .map(|_| [rng.random::<u64>(), rng.random::<u64>() & ((1 << 56) - 1)])
        .collect();
    let calls = size(100_000, quick);
    let wide_ns = ns_per(calls, || {
        for i in 0..calls {
            black_box(kernel.encode_checks_wide(black_box(&words[i % words.len()])));
        }
    });
    out.set("circuit.encode_ns.8023df", wide_ns);

    let mut k4: Vec<CircuitKernel> = FIG4_GENERATORS
        .iter()
        .map(|(_, rows)| {
            let g = Generator::from_coeff_str(&rows.join("\n")).expect("pinned generator");
            CircuitKernel::minimized(&g)
        })
        .collect();
    out.set(
        "circuit.xors.k4",
        k4.iter().map(CircuitKernel::xor_count).sum::<usize>() as f64,
    );
    let data: Vec<u64> = (0..1024).map(|_| rng.random::<u64>() & 0xF).collect();
    let per_kernel = size(100_000, quick);
    let narrow_ns = ns_per(per_kernel * k4.len(), || {
        for kernel in &mut k4 {
            for i in 0..per_kernel {
                black_box(kernel.encode_checks(black_box(data[i % data.len()])));
            }
        }
    });
    out.set("circuit.encode_ns.k4", narrow_ns);

    let minimize_ns = ns_per(1, || {
        black_box(minimize(black_box(&ieee)));
    });
    out.set("circuit.minimize_ms.8023df", minimize_ns / 1e6);
    wide_ns
}

/// Channel models and the interleaver. Returns ns per channel bit for
/// the Gilbert–Elliott channel and for one interleave round trip.
fn channel_probes(seed: u64, quick: bool, out: &mut Values) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A7);
    let bsc = Bsc::new(crate::workload::FIG4_P);
    let words = size(1_000_000, quick);
    let bsc_ns = ns_per(words, || {
        for _ in 0..words {
            let mut w = 0u64;
            black_box(bsc.transmit_u64(&mut rng, &mut w, 15));
            black_box(w);
        }
    });
    out.set("channel.bsc_ns_word", bsc_ns);

    // the stream's block: depth-4 interleave of 128-bit frames
    let block_bits = 4 * 128;
    let blocks = size(1000, quick);
    let ge = GilbertElliott::bursty();
    let ge_ns = ns_per(blocks * block_bits, || {
        let mut state = GeState::Good;
        for _ in 0..blocks {
            let mut word = BitVec::zeros(block_bits);
            black_box(ge.transmit(&mut rng, &mut state, &mut word));
        }
    });
    out.set("channel.ge_ns_bit", ge_ns);

    let il = BlockInterleaver::new(4, 128);
    let block = BitVec::from_bools(
        &(0..block_bits)
            .map(|_| rng.random::<bool>())
            .collect::<Vec<_>>(),
    );
    let interleave_ns = ns_per(blocks * block_bits, || {
        for _ in 0..blocks {
            let tx = il.interleave_partial(black_box(&block));
            black_box(il.deinterleave_partial(&tx));
        }
    });
    out.set("channel.interleave_ns_bit", interleave_ns);
    (ge_ns, interleave_ns)
}

/// Each stream stage's public function, per data word, on a probe
/// payload; then the whole `run_stream` on the same payload, and the
/// share of it the stage, kernel and channel probes do not explain.
fn stream_probes(seed: u64, quick: bool, encode_ns: f64, channel_ns_bit: f64, out: &mut Values) {
    const WORD_BITS: usize = 120;
    const FRAME_BITS: usize = 128;
    const GEN: usize = 16;
    const REPAIR: usize = 2;
    let bytes = size(128 << 10, quick) / 15 * 15;
    let payload = deterministic_payload(bytes, seed ^ 0x57EA);
    let pkt = Packetizer::new(WORD_BITS);
    let words = pkt.packetize(&payload);
    let n = words.len();
    let mask_seed = seed ^ 0xF0;

    let packetize = ns_per(n, || {
        black_box(pkt.packetize(black_box(&payload)));
    });
    out.set("stream.packetize_ns_word", packetize);

    let gens: Vec<&[BitVec]> = words.chunks(GEN).collect();
    let repairs: Vec<Vec<BitVec>> = gens
        .iter()
        .enumerate()
        .map(|(g, chunk)| encode_repairs(chunk, mask_seed, g as u64, REPAIR))
        .collect();
    let fountain = ns_per(n, || {
        for (g, chunk) in gens.iter().enumerate() {
            black_box(encode_repairs(chunk, mask_seed, g as u64, REPAIR));
        }
    });
    out.set("stream.fountain_encode_ns_word", fountain);

    // up to two erasures in every generation, all recoverable from its
    // two repairs (the pipeline's generations are mostly erasure-free,
    // so this is the function's cost when it has work to do)
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x2EC0);
    let erased: Vec<Vec<Option<BitVec>>> = gens
        .iter()
        .map(|chunk| {
            let mut data: Vec<Option<BitVec>> = chunk.iter().cloned().map(Some).collect();
            for _ in 0..REPAIR {
                let i = rng.random_range(0..data.len());
                data[i] = None;
            }
            data
        })
        .collect();
    let equations: Vec<Vec<(u64, Option<BitVec>)>> = repairs
        .iter()
        .enumerate()
        .map(|(g, reps)| {
            reps.iter()
                .enumerate()
                .map(|(r, w)| {
                    let mask = repair_mask(gens[g].len(), mask_seed, g as u64, r + 1);
                    (mask, Some(w.clone()))
                })
                .collect()
        })
        .collect();
    let recover = median(
        &(0..REPS)
            .map(|_| {
                let mut work = erased.clone();
                let t = Instant::now();
                for (data, eqs) in work.iter_mut().zip(&equations) {
                    black_box(recover_generation(data, eqs, WORD_BITS));
                }
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .collect::<Vec<_>>(),
    );
    out.set("stream.recover_ns_word", recover);

    // the decoder-side estimator over GE error patterns, one depth-4
    // block of frames at a time as the pipeline feeds it
    let frames = n * (GEN + REPAIR) / GEN;
    let il = BlockInterleaver::new(4, FRAME_BITS);
    let ge = GilbertElliott::bursty();
    let mut state = GeState::Good;
    let errors: Vec<BitVec> = (0..frames.div_ceil(4))
        .map(|_| {
            let mut e = BitVec::zeros(4 * FRAME_BITS);
            ge.transmit(&mut rng, &mut state, &mut e);
            e
        })
        .collect();
    let known = BitVec::from_bools(&[true; 4 * FRAME_BITS]);
    let estimate = ns_per(n, || {
        let mut profile = BurstProfile::new();
        profile.frame_bits = FRAME_BITS as u64;
        for e in &errors {
            for f in 0..4 {
                profile
                    .observe_frame(e.slice(f * FRAME_BITS..(f + 1) * FRAME_BITS).count_ones() > 0);
            }
            let err_ch = il.interleave_partial(e);
            let known_ch = il.interleave_partial(&known);
            profile.observe_gapped((0..e.len()).map(|o| known_ch.get(o).then(|| err_ch.get(o))));
        }
        profile.finish();
        black_box(profile);
    });
    out.set("stream.estimate_ns_word", estimate);

    let depacketize = ns_per(n, || {
        black_box(pkt.depacketize(black_box(&words), bytes));
    });
    out.set("stream.depacketize_ns_word", depacketize);

    let config = StreamConfig::static_8023df(seed);
    let mut frames_per_word = 0.0;
    let run = ns_per(n, || {
        let outcome = run_stream(black_box(&payload), &config);
        frames_per_word = outcome.stats.frames as f64 / outcome.stats.data_words as f64;
    });
    out.set("stream.run_ns_word", run);

    // per frame the pipeline encodes once to send, once to check the
    // syndrome and once to rebuild the error pattern, and sends
    // FRAME_BITS channel bits through the interleaver and the channel
    let explained = packetize
        + fountain
        + recover
        + estimate
        + depacketize
        + frames_per_word * (3.0 * encode_ns + FRAME_BITS as f64 * channel_ns_bit);
    out.set("stream.unattributed_frac", 1.0 - explained / run);
}
