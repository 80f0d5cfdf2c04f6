//! Differential bit-exactness checks for the streaming pipeline,
//! run under fixed seeds in CI (`stream-smoke`).
//!
//! The contract under test is the ISSUE's acceptance criterion: the
//! decoded stream is bit-exact vs. the input at configured loss rates,
//! and when loss exceeds the code's capability the pipeline *reports*
//! the affected words rather than silently corrupting them.

use fec_channel::burst::GilbertElliott;
use fec_hamming::robustness::choose_times_pow;
use fec_hamming::{standards, CompositeCode};
use fec_stream::{
    deterministic_payload, run_adaptive, run_stream, AdaptConfig, InnerCode, StreamConfig,
};
use fec_synth::weights::WeightedGenSpec;

/// A loss rate the configured pipeline (802.3df + depth-4 interleave +
/// 8 repair words per 16-word generation) is provisioned to beat.
fn within_capability(seed: u64) -> StreamConfig {
    StreamConfig {
        repair: 8,
        channel: GilbertElliott {
            p_gb: 3e-4,
            p_bg: 0.25,
            ber_good: 0.0,
            ber_bad: 0.25,
        },
        ..StreamConfig::static_8023df(seed)
    }
}

#[test]
fn clean_channel_is_a_bit_exact_identity() {
    let payload = deterministic_payload(4096, 9);
    let cfg = StreamConfig {
        channel: GilbertElliott {
            p_gb: 0.0,
            p_bg: 1.0,
            ber_good: 0.0,
            ber_bad: 0.0,
        },
        ..StreamConfig::static_8023df(9)
    };
    let out = run_stream(&payload, &cfg);
    assert_eq!(out.bytes, payload);
    assert!(out.lost_words.is_empty());
    assert_eq!(out.stats.erased_frames, 0);
    assert_eq!(out.stats.channel_flips, 0);
}

#[test]
fn decoded_stream_is_bit_exact_at_configured_loss() {
    for seed in [1u64, 2, 3, 4, 5] {
        let payload = deterministic_payload(8192, seed);
        let out = run_stream(&payload, &within_capability(seed));
        assert!(
            out.stats.channel_flips > 0,
            "seed {seed}: the channel must actually corrupt something"
        );
        assert_eq!(
            out.stats.corrupted_words, 0,
            "seed {seed}: no silent corruption"
        );
        assert!(
            out.lost_words.is_empty(),
            "seed {seed}: losses at this rate must be recovered (lost {:?})",
            out.lost_words
        );
        assert_eq!(
            out.bytes, payload,
            "seed {seed}: delivery must be bit-exact"
        );
    }
}

#[test]
fn overload_reports_losses_and_never_corrupts() {
    // Thin repair on the full bursty channel: loss exceeds capability,
    // so words MUST go missing — and every damaged word must be in
    // `lost_words`, zero-filled, with nothing silently wrong.
    for seed in [1u64, 2, 3] {
        let payload = deterministic_payload(8192, seed);
        let cfg = StreamConfig {
            repair: 1,
            ..StreamConfig::static_8023df(seed)
        };
        let out = run_stream(&payload, &cfg);
        assert!(
            !out.lost_words.is_empty(),
            "seed {seed}: overload must lose words"
        );
        assert_eq!(
            out.stats.corrupted_words, 0,
            "seed {seed}: overload must report, not corrupt"
        );
        // Word-level audit: recompute both sides' words and check that
        // every mismatch is a reported loss.
        let pkt = fec_stream::Packetizer::new(cfg.inner.data_len());
        let sent = pkt.packetize(&payload);
        let got = pkt.packetize(&out.bytes);
        assert_eq!(sent.len(), got.len());
        for (j, (s, g)) in sent.iter().zip(&got).enumerate() {
            if s != g {
                assert!(
                    out.lost_words.contains(&j),
                    "seed {seed}: word {j} differs but was not reported lost"
                );
            }
        }
    }
}

/// Two Hamming segments interleaved over 96 data bits: a 110-bit
/// composite codeword, two `u64`s per frame.
fn wide_composite(seed: u64) -> StreamConfig {
    let map: Vec<usize> = (0..96).map(|j| j % 2).collect();
    let segment = || standards::shortened_hamming(48, 7).expect("k = 48");
    let code = CompositeCode::from_map(vec![segment(), segment()], &map).expect("map");
    StreamConfig {
        inner: InnerCode::new(&code.generator()),
        ..StreamConfig::static_8023df(seed)
    }
}

#[test]
fn composites_wider_than_64_bits_stream() {
    let payload = deterministic_payload(16384, 5);
    let clean = StreamConfig {
        channel: GilbertElliott {
            p_gb: 0.0,
            p_bg: 1.0,
            ber_good: 0.0,
            ber_bad: 0.0,
        },
        ..wide_composite(5)
    };
    let out = run_stream(&payload, &clean);
    assert_eq!(out.bytes, payload);
    assert!(out.lost_words.is_empty());
    assert_eq!(out.stats.erased_frames, 0);
    assert_eq!(out.stats.channel_bits, out.stats.frames * 110);

    let cfg = wide_composite(5);
    let a = run_stream(&payload, &cfg);
    let b = run_stream(&payload, &cfg);
    assert!(
        a.stats.erased_frames > 0,
        "the bursty channel erases frames"
    );
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.bytes, b.bytes);
}

#[test]
fn same_seed_is_bit_identical() {
    let payload = deterministic_payload(8192, 7);
    let cfg = StreamConfig::static_8023df(7);
    let a = run_stream(&payload, &cfg);
    let b = run_stream(&payload, &cfg);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.lost_words, b.lost_words);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.profile.bit_errors, b.profile.bit_errors);
    assert_eq!(a.profile.run_hist, b.profile.run_hist);
    assert_eq!(a.profile.erasure_run_hist, b.profile.erasure_run_hist);
}

#[test]
fn adapted_code_beats_static_on_the_bursty_channel() {
    // The headline experiment at one fixed seed: probe the first half
    // under the static 802.3df deployment, synthesize from the
    // decoder's measured profile, and replay the second half under
    // both. The adapted code must deliver strictly lower residual loss.
    let payload = deterministic_payload(16384, 1);
    let base = StreamConfig::static_8023df(1);
    let a = run_adaptive(&payload, &base, &AdaptConfig::default()).expect("synthesis");
    let static_res = a.static_replay.stats.residual_loss();
    let adapted_res = a.adapted_replay.stats.residual_loss();
    assert!(
        adapted_res < static_res,
        "adapted residual {adapted_res} must be strictly below static {static_res}"
    );
    // The probe must have genuinely observed the channel…
    assert!(a.probe.profile.bits_observed > 0);
    assert!(a.probe.stats.erased_frames > 0);
    // …and the synthesized replacement must be a real composite code.
    assert_eq!(a.adapted.code.data_len(), 16);
    assert!(a.adapted.code.codeword_len() <= 64);
    // Its sum_w is the optimum of the measured §4.3 problem: a brute
    // force over all 2^16 maps (bit j on G0 iff bit j of `m` is set)
    // finds the same value.
    let gens = vec![
        WeightedGenSpec {
            check_len: 5,
            min_distance: 3,
        },
        WeightedGenSpec {
            check_len: 1,
            min_distance: 2,
        },
    ];
    let problem = a.probe.profile.to_weighted_problem(16, gens);
    let cost = |i: usize, t: usize| {
        let g = &problem.gens[i];
        choose_times_pow(t + g.check_len, g.min_distance, problem.bit_error_rate)
    };
    let best = (1u32..(1 << 16) - 1)
        .map(|m| {
            let t0 = m.count_ones() as usize;
            let (f0, f1) = (cost(0, t0), cost(1, 16 - t0));
            let on_g0 = |j: usize| m >> j & 1 == 1;
            (0..16)
                .map(|j| problem.weights[j] * if on_g0(j) { f0 } else { f1 })
                .sum::<f64>()
        })
        .min_by(f64::total_cmp)
        .unwrap();
    let sum_w = a.adapted.sum_w;
    assert!(
        (sum_w - best).abs() <= 1e-9 * best,
        "sum_w {sum_w} vs brute force {best}"
    );
    assert!((best - 0.5146).abs() < 5e-5, "brute force {best}");
}
