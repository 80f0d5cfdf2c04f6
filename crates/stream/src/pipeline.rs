//! The streaming pipeline: packetize → fountain repair → minimized-
//! kernel inner encode → block interleave → Gilbert–Elliott channel →
//! detect-and-erase decode → fountain recovery → burst estimation.
//!
//! Sender and receiver run in one process (this is a simulation), but
//! the receiver only ever uses information it would really have: inner
//! syndromes, recovered words, and the deterministic repair masks. The
//! sender-side truth is used solely to *audit* the outcome (the
//! `corrupted_words` count — deliveries the receiver wrongly trusted).
//!
//! The datapath works on words, not bits. Data words and frames live
//! in flat `u64` buffers allocated once per call (a frame is its
//! codeword, packed as `BitVec::words`); the inner kernel encodes and
//! checks up to 64 frames per pass of its op list; the channel flips
//! frame bits in place, visiting them in the interleaver's channel
//! order; only fountain recovery allocates per generation, and only for
//! generations with erasures. Each stage's code lives in its module
//! (`Packetizer`, `fountain`, `BlockInterleaver`, `GilbertElliott`,
//! `BurstProfile`), whose public `BitVec` forms wrap the flat forms
//! called here, so probes of the public functions time this code.
//!
//! Runs are memory-ordering-free: frames are processed strictly in
//! sequence, the only cross-frame state is the Gilbert–Elliott channel
//! state and the interleaver's block position, and all randomness
//! derives from `StreamConfig::seed` through fixed domain-separated
//! sub-seeds — the same seed always yields the bit-identical run, on
//! any thread count.

use crate::adapt::{synthesize_adapted, AdaptConfig, AdaptedCode};
use crate::estimate::BurstProfile;
use crate::fountain::{encode_repair_words, mask64, ones, recover_words, repair_mask, xor_into};
use crate::packet::Packetizer;
use fec_channel::burst::{BlockInterleaver, GeState, GilbertElliott};
use fec_circ::CircuitKernel;
use fec_hamming::{standards, Generator};
use fec_synth::cegis::SynthError;
use fec_trace::Level;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// Domain-separated sub-seed derivation (splitmix64 finalizer), so the
/// channel, the repair masks, and payload generation never share a
/// stream.
pub fn sub_seed(seed: u64, domain: u64) -> u64 {
    let mut z = seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random payload for smoke tests and benches.
pub fn deterministic_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0));
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// The inner (per-frame) code, compiled once: the certified minimized
/// kernel of one systematic generator. A §4.3 composite ensemble enters
/// as its combined `CompositeCode::generator()`, so every inner code
/// runs the same 64-lane encoder, never the naive matrix multiply.
/// Clones share the compiled kernel; a run clones it only for scratch.
#[derive(Clone, Debug)]
pub struct InnerCode {
    kernel: Arc<CircuitKernel>,
}

impl InnerCode {
    /// Compiles `g`'s encoder through the certified minimizer.
    ///
    /// # Panics
    /// Panics if `g.check_len() > 64` (inherited from the minimizer).
    pub fn new(g: &Generator) -> InnerCode {
        #[cfg(test)]
        tests::COMPILES.with(|c| c.set(c.get() + 1));
        InnerCode {
            kernel: Arc::new(CircuitKernel::minimized(g)),
        }
    }

    /// The 802.3df (128,120) code, compiled once per process.
    pub fn ieee_8023df() -> InnerCode {
        static CODE: OnceLock<InnerCode> = OnceLock::new();
        CODE.get_or_init(|| InnerCode::new(&standards::ieee_8023df_128_120()))
            .clone()
    }

    pub fn data_len(&self) -> usize {
        self.kernel.data_len()
    }

    pub fn codeword_len(&self) -> usize {
        self.kernel.data_len() + self.kernel.check_len()
    }
}

/// Fills in the check bits of frames whose check bits are zero. Frames
/// are flat: `stride` `u64`s each, data in bits `0..k`, check bits from
/// `k`.
fn encode_frames(kernel: &mut CircuitKernel, frames: &mut [u64], stride: usize) {
    let k = kernel.data_len();
    let mut checks = [0u64; 64];
    for batch in frames.chunks_mut(64 * stride) {
        kernel.encode_checks_lanes(batch, stride, &mut checks);
        for (frame, &c) in batch.chunks_mut(stride).zip(&checks) {
            xor_bits(frame, k, c);
        }
    }
}

/// Appends each frame's syndrome verdict (`true` = valid) to `ok`.
fn check_frames(kernel: &mut CircuitKernel, frames: &[u64], stride: usize, ok: &mut Vec<bool>) {
    let (k, r) = (kernel.data_len(), kernel.check_len());
    let mut checks = [0u64; 64];
    for batch in frames.chunks(64 * stride) {
        kernel.encode_checks_lanes(batch, stride, &mut checks);
        for (frame, &c) in batch.chunks(stride).zip(&checks) {
            ok.push(c == get_bits(frame, k, r));
        }
    }
}

/// Bits `at .. at + len` (`len ≤ 64`) of a packed frame.
fn get_bits(frame: &[u64], at: usize, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let (w, s) = (at / 64, at % 64);
    let mut v = frame[w] >> s;
    if s + len > 64 {
        v |= frame[w + 1] << (64 - s);
    }
    v & mask64(len)
}

/// XORs `value` into a packed frame at bit offset `at`.
fn xor_bits(frame: &mut [u64], at: usize, value: u64) {
    if value == 0 {
        return;
    }
    let (w, s) = (at / 64, at % 64);
    frame[w] ^= value << s;
    if s != 0 && value >> (64 - s) != 0 {
        frame[w + 1] ^= value >> (64 - s);
    }
}

/// One deployment of the pipeline.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    pub inner: InnerCode,
    /// Interleaver depth (frames per block; 1 = no interleaving).
    pub depth: usize,
    /// Fountain generation size in data words (≤ 64).
    pub gen_size: usize,
    /// Repair words per generation.
    pub repair: usize,
    /// Master seed; channel and repair masks use domain sub-seeds.
    pub seed: u64,
    pub channel: GilbertElliott,
}

impl StreamConfig {
    /// The static baseline: the 802.3df (128,120) code, a classic
    /// depth-4 interleave, and a thin fixed repair budget. Every such
    /// config shares the one compiled 802.3df kernel.
    pub fn static_8023df(seed: u64) -> StreamConfig {
        StreamConfig {
            inner: InnerCode::ieee_8023df(),
            depth: 4,
            gen_size: 16,
            repair: 2,
            seed,
            channel: GilbertElliott::bursty(),
        }
    }

    /// This config re-parameterized with a synthesized adapted code,
    /// compiled once as its combined generator.
    pub fn with_adapted(&self, adapted: &AdaptedCode, gen_size: usize) -> StreamConfig {
        StreamConfig {
            inner: InnerCode::new(&adapted.code.generator()),
            depth: adapted.depth,
            gen_size,
            repair: adapted.repair,
            seed: self.seed,
            channel: self.channel,
        }
    }
}

/// Aggregate counters for one stream run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Data words carried (packets in).
    pub data_words: u64,
    /// Total frames transmitted (data + repair).
    pub frames: u64,
    /// Channel bits transmitted.
    pub channel_bits: u64,
    /// Bits the channel actually flipped (sender-side audit).
    pub channel_flips: u64,
    /// Frames the inner code rejected (erasures).
    pub erased_frames: u64,
    /// Data frames among the erasures.
    pub erased_data_words: u64,
    /// Erased data words the fountain layer recovered.
    pub recovered_words: u64,
    /// Data words lost (reported to the caller, zero-filled in output).
    pub lost_words: u64,
    /// Deliveries the receiver wrongly trusted (silent corruption —
    /// sender-side audit; always part of residual loss).
    pub corrupted_words: u64,
    /// Bursts the decoder-side estimator observed.
    pub bursts_observed: u64,
    /// Mean fountain recovery latency, in frames, over recovered words.
    pub recovery_latency_mean: f64,
    /// Worst-case recovery latency in frames.
    pub recovery_latency_max: u64,
    /// Most erased frames seen in a single generation.
    pub max_generation_erasures: u64,
}

impl StreamStats {
    /// Fraction of data words not delivered intact: lost (reported) +
    /// corrupted (silent).
    pub fn residual_loss(&self) -> f64 {
        (self.lost_words + self.corrupted_words) as f64 / self.data_words.max(1) as f64
    }

    /// Channel bits per payload bit (inner + outer redundancy).
    pub fn overhead(&self, word_len: usize) -> f64 {
        self.channel_bits as f64 / (self.data_words.max(1) * word_len as u64) as f64
    }
}

/// Everything a stream run produces.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The delivered byte stream (lost words zero-filled).
    pub bytes: Vec<u8>,
    /// Indices of data words that were lost — *reported*, never
    /// silently wrong.
    pub lost_words: Vec<usize>,
    pub stats: StreamStats,
    /// The decoder's measured channel profile, ready for adaptation.
    pub profile: BurstProfile,
}

/// What the receiver knows of a frame's transmitted codeword.
#[derive(Clone, Copy)]
enum Truth {
    /// The syndrome passed: trusted as received, error pattern zero.
    Arrived,
    /// Erased, then rebuilt from recovered words: its error pattern
    /// is entry `i` of the re-encoded batch.
    Rebuilt(usize),
    /// Erased and not rebuilt: a gap in the channel-order view.
    Unknown,
}

/// Runs the full pipeline over `bytes` and returns the delivered
/// stream plus its audit.
pub fn run_stream(bytes: &[u8], cfg: &StreamConfig) -> StreamOutcome {
    assert!((1..=64).contains(&cfg.gen_size), "gen_size must be 1..=64");
    let k = cfg.inner.data_len();
    let n = cfg.inner.codeword_len();
    let pkt = Packetizer::new(k);
    let d = pkt.words_for(bytes.len());
    let mask_seed = sub_seed(cfg.seed, 1);
    let channel_seed = sub_seed(cfg.seed, 2);

    let _span = fec_trace::span!(Level::Info, "stream.run",
        "data_words" => d, "word_len" => k, "codeword_len" => n,
        "depth" => cfg.depth, "gen_size" => cfg.gen_size, "repair" => cfg.repair);

    // Layout: generation g owns frames g·(gen + repair) .. — its data
    // words, then its repair words. Data words take `s` u64s, frames
    // `cs`.
    let (gen, repair) = (cfg.gen_size, cfg.repair);
    let (s, cs) = (pkt.stride(), n.div_ceil(64));
    let n_gens = d.div_ceil(gen);
    let frames = d + n_gens * repair;
    let chunk_len = |g: usize| gen.min(d - g * gen);
    let first_frame = |g: usize| g * (gen + repair);

    let data = {
        let _s = fec_trace::span!(Level::Info, "stream.packetize");
        pkt.packetize_words(bytes)
    };

    // --- sender: repair words, inner encode (minimized kernel) -----
    let (mut kernel, mut cw) = {
        let _s = fec_trace::span!(Level::Info, "stream.encode");
        let mut kernel = CircuitKernel::clone(&cfg.inner.kernel);
        let mut cw = vec![0u64; frames * cs];
        for g in 0..n_gens {
            let (chunk, first) = (chunk_len(g), first_frame(g));
            for i in 0..chunk {
                let (f, j) = (first + i, g * gen + i);
                cw[f * cs..f * cs + s].copy_from_slice(&data[j * s..(j + 1) * s]);
            }
            let (words, rest) = cw[first * cs..].split_at_mut(chunk * cs);
            encode_repair_words(words, cs, mask_seed, g as u64, &mut rest[..repair * cs]);
        }
        encode_frames(&mut kernel, &mut cw, cs);
        (kernel, cw)
    };

    // --- interleaved channel, applied to the frames in place -------
    let depth = cfg.depth.max(1);
    let il = BlockInterleaver::new(depth, n);
    let flips = {
        let _s = fec_trace::span!(Level::Info, "stream.channel");
        let mut state = GeState::Good;
        let mut rng = SmallRng::seed_from_u64(channel_seed);
        let mut flips = 0u64;
        for block in cw.chunks_mut(depth * cs) {
            let order = il.channel_order(block.len() / cs * n);
            flips += cfg
                .channel
                .transmit_cells(&mut rng, &mut state, order, |(r, c)| {
                    block[r * cs + c / 64] ^= 1 << (c % 64);
                }) as u64;
        }
        flips
    };

    // --- receiver: detect-and-erase, then fountain recovery --------
    let mut ok: Vec<bool> = Vec::with_capacity(frames);
    let mut delivered = vec![0u64; d * s];
    // per generation, the mask of delivered (arrived or recovered) words
    let mut got = vec![0u64; n_gens];
    let mut erased_data = 0u64;
    let mut max_gen_erasures = 0u64;
    let (mut recovered, mut latency_sum, mut latency_max) = (0u64, 0u64, 0u64);
    {
        let _s = fec_trace::span!(Level::Info, "stream.decode");
        check_frames(&mut kernel, &cw, cs, &mut ok);
        // A frame's first `s` words hold its data bits, with check bits
        // above `k` in the last one. Recovery reads repair frames in
        // place: GF(2) sums keep bits apart, so only the bits above
        // `k` of a recovered word are off, and `tail` clears them.
        let tail = mask64(k - 64 * (s - 1));
        for (g, got) in got.iter_mut().enumerate() {
            let (chunk, first, base) = (chunk_len(g), first_frame(g), g * gen);
            let mut erased = 0u64;
            for i in 0..chunk {
                let f = first + i;
                if ok[f] {
                    let word = &mut delivered[(base + i) * s..(base + i + 1) * s];
                    word.copy_from_slice(&cw[f * cs..f * cs + s]);
                    word[s - 1] &= tail;
                } else {
                    erased |= 1 << i;
                }
            }
            let first_repair = first + chunk;
            let erased_repairs = ok[first_repair..first_repair + repair]
                .iter()
                .filter(|&&v| !v)
                .count();
            erased_data += u64::from(erased.count_ones());
            max_gen_erasures =
                max_gen_erasures.max(u64::from(erased.count_ones()) + erased_repairs as u64);
            let equations = (1..=repair).map(|r| {
                let f = first_repair + r - 1;
                (
                    repair_mask(chunk, mask_seed, g as u64, r),
                    ok[f].then(|| &cw[f * cs..f * cs + s]),
                )
            });
            let words = &mut delivered[base * s..(base + chunk) * s];
            let rec = recover_words(words, s, erased, equations);
            for i in ones(rec) {
                words[(i + 1) * s - 1] &= tail;
                // frames from the word's own to the generation's last
                let latency = (chunk + repair - 1 - i) as u64;
                recovered += 1;
                latency_sum += latency;
                latency_max = latency_max.max(latency);
            }
            *got = (!erased & mask64(chunk)) | rec;
        }
    }
    let erased_frames = ok.iter().filter(|&&v| !v).count() as u64;

    // --- decoder-side burst estimation -----------------------------
    // Truth per frame, from receiver knowledge only: frames the inner
    // code accepted are trusted as-is (they re-encode to exactly what
    // arrived); erased data frames use their fountain-recovered word;
    // erased repair frames are recomputed from their mask once the
    // whole subset is known. Only rebuilt frames are re-encoded, once
    // each; frames that stay unknown become gaps in the channel-order
    // view.
    let mut profile = BurstProfile::new();
    {
        let _s = fec_trace::span!(Level::Info, "stream.estimate");
        let mut truth = vec![Truth::Arrived; frames];
        let mut rebuilt: Vec<usize> = Vec::new();
        let mut errors: Vec<u64> = Vec::new();
        for (f, t) in truth.iter_mut().enumerate() {
            if ok[f] {
                continue;
            }
            let g = f / (gen + repair);
            let (chunk, base) = (chunk_len(g), g * gen);
            let i = f - first_frame(g);
            let cover = if i < chunk {
                1 << i
            } else {
                repair_mask(chunk, mask_seed, g as u64, i - chunk + 1)
            };
            if cover & !got[g] != 0 {
                *t = Truth::Unknown;
                continue;
            }
            *t = Truth::Rebuilt(rebuilt.len());
            rebuilt.push(f);
            errors.resize(errors.len() + cs, 0);
            let at = errors.len() - cs;
            for j in ones(cover) {
                xor_into(
                    &mut errors[at..at + s],
                    &delivered[(base + j) * s..(base + j + 1) * s],
                );
            }
        }
        encode_frames(&mut kernel, &mut errors, cs);
        for (e, &f) in errors.chunks_mut(cs).zip(&rebuilt) {
            xor_into(e, &cw[f * cs..(f + 1) * cs]);
        }

        profile.frame_bits = n as u64;
        // Frame-order erasure evidence first: the syndrome verdict is
        // known for every frame, so this channel has no survivorship
        // bias even when recovery fails. Rebuilt erased frames also
        // yield the conditional in-frame error density the design BER
        // needs.
        for (f, t) in truth.iter().enumerate() {
            profile.observe_frame(!ok[f]);
            match *t {
                Truth::Arrived => {}
                Truth::Rebuilt(j) => {
                    profile.erased_truth_frames += 1;
                    profile.erased_truth_flips += errors[j * cs..(j + 1) * cs]
                        .iter()
                        .map(|w| u64::from(w.count_ones()))
                        .sum::<u64>();
                }
                Truth::Unknown => profile.unknown_frames += 1,
            }
        }
        // Then the bit-level view, block by block in channel order. A
        // block without rebuilt frames holds no error bits, so in
        // channel order it only closes any open run and adds its
        // arrived frames' bits.
        for block in truth.chunks(depth) {
            if block.iter().any(|t| matches!(t, Truth::Rebuilt(_))) {
                let order = il.channel_order(block.len() * n);
                profile.observe_gapped(order.map(|(r, c)| match block[r] {
                    Truth::Arrived => Some(false),
                    Truth::Rebuilt(j) => Some(errors[j * cs + c / 64] >> (c % 64) & 1 == 1),
                    Truth::Unknown => None,
                }));
            } else {
                let arrived = block.iter().filter(|t| matches!(t, Truth::Arrived)).count();
                profile.discontinuity();
                profile.observe_clean((arrived * n) as u64);
            }
        }
        profile.finish();
    }

    // --- deliver + audit -------------------------------------------
    let mut lost: Vec<usize> = Vec::new();
    let mut corrupted = 0u64;
    let bytes_out = {
        let _s = fec_trace::span!(Level::Info, "stream.deliver");
        for j in 0..d {
            if got[j / gen] >> (j % gen) & 1 == 0 {
                lost.push(j); // its delivered word stayed zero
            } else if delivered[j * s..(j + 1) * s] != data[j * s..(j + 1) * s] {
                corrupted += 1; // sender-side audit only
            }
        }
        pkt.depacketize_words(&delivered, bytes.len())
    };

    let stats = StreamStats {
        data_words: d as u64,
        frames: frames as u64,
        channel_bits: (frames * n) as u64,
        channel_flips: flips,
        erased_frames,
        erased_data_words: erased_data,
        recovered_words: recovered,
        lost_words: lost.len() as u64,
        corrupted_words: corrupted,
        bursts_observed: profile.bursts_observed(),
        recovery_latency_mean: if recovered == 0 {
            0.0
        } else {
            latency_sum as f64 / recovered as f64
        },
        recovery_latency_max: latency_max,
        max_generation_erasures: max_gen_erasures,
    };

    fec_trace::counter!(Level::Info, "stream.packets_in", stats.data_words);
    fec_trace::counter!(
        Level::Info,
        "stream.packets_out",
        stats.data_words - stats.lost_words
    );
    fec_trace::counter!(Level::Info, "stream.frames_sent", stats.frames);
    fec_trace::counter!(Level::Info, "stream.erasures", stats.erased_frames);
    fec_trace::counter!(Level::Info, "stream.recovered", stats.recovered_words);
    fec_trace::counter!(Level::Info, "stream.lost", stats.lost_words);
    fec_trace::counter!(Level::Info, "stream.corrupted", stats.corrupted_words);
    fec_trace::counter!(Level::Info, "stream.bursts_observed", stats.bursts_observed);
    fec_trace::event!(Level::Info, "stream.report",
        "residual_loss" => stats.residual_loss(),
        "recovery_latency_mean" => stats.recovery_latency_mean,
        "recovery_latency_max" => stats.recovery_latency_max,
        "channel_flips" => stats.channel_flips,
        "max_generation_erasures" => stats.max_generation_erasures);

    StreamOutcome {
        bytes: bytes_out,
        lost_words: lost,
        stats,
        profile,
    }
}

/// The full adaptive experiment, in three acts on one byte stream.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// Act 1: the first half under the static code — the probe whose
    /// decoder measurements feed the synthesizer.
    pub probe: StreamOutcome,
    /// The synthesized, channel-tuned replacement.
    pub adapted: AdaptedCode,
    /// Act 2: the second half under the *static* code (control).
    pub static_replay: StreamOutcome,
    /// Act 3: the second half under the adapted code, same seed.
    pub adapted_replay: StreamOutcome,
}

/// Streams the first half of `bytes` under `base`, synthesizes an
/// adapted code from the decoder's measured profile, then streams the
/// second half under both codes for an apples-to-apples comparison.
pub fn run_adaptive(
    bytes: &[u8],
    base: &StreamConfig,
    acfg: &AdaptConfig,
) -> Result<AdaptiveOutcome, SynthError> {
    let split = bytes.len() / 2;
    let probe = run_stream(&bytes[..split], base);
    let adapted = synthesize_adapted(&probe.profile, acfg)?;
    let replay_seed = sub_seed(base.seed, 3);
    let static_cfg = StreamConfig {
        seed: replay_seed,
        ..base.clone()
    };
    let adapted_cfg = StreamConfig {
        seed: replay_seed,
        ..base.with_adapted(&adapted, acfg.gen_size)
    };
    let static_replay = run_stream(&bytes[split..], &static_cfg);
    let adapted_replay = run_stream(&bytes[split..], &adapted_cfg);
    Ok(AdaptiveOutcome {
        probe,
        adapted,
        static_replay,
        adapted_replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// `InnerCode::new` calls made on this thread.
        pub(super) static COMPILES: Cell<usize> = const { Cell::new(0) };
    }

    fn compiles() -> usize {
        COMPILES.with(Cell::get)
    }

    #[test]
    fn each_inner_code_compiles_once() {
        let a = StreamConfig::static_8023df(1);
        let b = StreamConfig::static_8023df(2);
        assert!(Arc::ptr_eq(&a.inner.kernel, &b.inner.kernel));
        assert!(Arc::ptr_eq(&a.inner.kernel, &a.clone().inner.kernel));

        // the probe and the static replay run on `a`'s kernel; only
        // the adapted code compiles
        let payload = deterministic_payload(16384, 1);
        let acfg = AdaptConfig {
            timeout: Duration::from_secs(1),
            ..AdaptConfig::default()
        };
        let before = compiles();
        let out = run_adaptive(&payload, &a, &acfg).expect("synthesis");
        assert_eq!(compiles() - before, 1);

        let before = compiles();
        let adapted = a.with_adapted(&out.adapted, acfg.gen_size);
        assert_eq!(compiles() - before, 1);
        assert!(Arc::ptr_eq(
            &adapted.inner.kernel,
            &adapted.clone().inner.kernel
        ));
        assert_eq!(
            adapted.inner.codeword_len(),
            out.adapted.code.codeword_len()
        );
    }
}
