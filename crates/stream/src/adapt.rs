//! The feedback loop: measured burst profile → §4.3 weighted spec →
//! CEGIS → a deployable composite inner code plus channel-tuned
//! transport parameters.
//!
//! Three things are adapted from the measurement, each with a stated
//! rationale:
//!
//! - **The inner code** is synthesized by `synthesize_weighted` from
//!   the profile's positional weights and measured BER: a strong
//!   md-3 generator and a weak parity generator split the word so the
//!   weighted undetected-error objective is minimal. Detection is what
//!   matters here — in a detect-and-erase pipeline every caught error
//!   becomes an erasure the fountain layer can repair, while a missed
//!   one corrupts the output silently.
//! - **Interleaver depth**: classic interleaving spreads a burst over
//!   many codewords, which helps *correcting* codes. A detect-and-
//!   erase + fountain stack wants the opposite — a burst concentrated
//!   into few frames costs few erasures — so a measured-bursty channel
//!   selects depth 1 and a memoryless one keeps a modest depth.
//! - **Repair budget**: provisioned from the measured burst arrival
//!   rate so that the expected erasure cluster per generation fits the
//!   repair words with a ×3 safety margin.

use crate::estimate::BurstProfile;
use fec_hamming::CompositeCode;
use fec_synth::cegis::{SynthError, SynthesisConfig};
use fec_synth::weights::{synthesize_weighted, WeightedGenSpec};
use std::time::Duration;

/// Data word length of the adapted code (the §4.3 examples use 16).
const WORD_LEN: usize = 16;

/// Tunables for one adaptation step.
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Fountain generation size the adapted phase will run with.
    pub gen_size: usize,
    /// Wall-clock budget for the whole weighted synthesis: the map
    /// enumeration and every matrix sub-run share one deadline.
    pub timeout: Duration,
    /// Portfolio workers per solver query.
    pub jobs: usize,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            gen_size: 16,
            timeout: Duration::from_secs(20),
            jobs: 1,
        }
    }
}

/// A synthesized, channel-tuned replacement for the static code.
#[derive(Clone, Debug)]
pub struct AdaptedCode {
    /// The composite inner code (strong + weak segment per the map).
    pub code: CompositeCode,
    /// `map[j]` = generator index protecting data bit `j`.
    pub map: Vec<usize>,
    /// Achieved weighted objective.
    pub sum_w: f64,
    /// Solver iterations spent.
    pub iterations: u64,
    /// Synthesis wall-clock.
    pub elapsed: Duration,
    /// Tuned interleaver depth.
    pub depth: usize,
    /// Tuned repair words per generation.
    pub repair: usize,
}

/// Runs one adaptation: weighted synthesis against the measured
/// profile, plus depth/repair selection from its burst statistics.
pub fn synthesize_adapted(
    profile: &BurstProfile,
    cfg: &AdaptConfig,
) -> Result<AdaptedCode, SynthError> {
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
    let problem = profile.to_weighted_problem(WORD_LEN, gens);
    let synth_cfg = SynthesisConfig {
        timeout: cfg.timeout,
        jobs: cfg.jobs,
        ..Default::default()
    };
    let result = synthesize_weighted(&problem, &synth_cfg)?;
    let code = CompositeCode::from_map(result.generators.clone(), &result.map)
        .map_err(SynthError::Inconsistent)?;

    let depth = if profile.is_bursty() { 1 } else { 4 };
    let n = code.codeword_len();
    // Burst arrival rate per channel bit: prefer the erasure-cluster
    // rate (bias-free — every syndrome verdict is observed, recovered
    // or not); fall back to the bit-level rate when the probe produced
    // no frame evidence.
    let rate = {
        let r = profile.erasure_cluster_rate();
        if r > 0.0 {
            r
        } else {
            profile.burst_rate()
        }
    };
    // Channel extent of one burst, in bits. Interleaving censors it
    // (an R-frame erasure run only lower-bounds the burst at depth R),
    // so take the widest evidence available and double it.
    let extent = profile
        .mean_burst()
        .max(profile.mean_erasure_run())
        .max(4.0)
        * 2.0;
    // Frames one burst erases in the *adapted* deployment: at depth 1 a
    // burst of E bits spans ceil(E/n)+1 consecutive frames; at depth d
    // it fans out over min(d, E)+1.
    let cost = if depth == 1 {
        (extent / n as f64).ceil() + 1.0
    } else {
        (depth as f64).min(extent) + 1.0
    };
    // Expected erased frames per generation is arrival rate × the
    // generation's channel footprint × per-burst cost; provision with a
    // ×3 safety margin (repair enlarges the footprint, hence the fixed
    // point).
    let mut repair = 2usize;
    for _ in 0..8 {
        let frames = cfg.gen_size + repair;
        let expected = rate * (frames * n) as f64 * cost;
        let need = ((expected * 3.0).ceil() as usize + 1).clamp(2, cfg.gen_size);
        if need <= repair {
            break;
        }
        repair = need;
    }

    fec_trace::event!(
        fec_trace::Level::Info,
        "stream.adapt",
        "sum_w" => result.sum_w,
        "iterations" => result.iterations,
        "word_len" => WORD_LEN,
        "depth" => depth,
        "repair" => repair,
        "design_ber" => problem.bit_error_rate,
        "mean_burst" => profile.mean_burst(),
        "mean_erasure_run" => profile.mean_erasure_run(),
        "erasure_rate" => profile.erasure_rate(),
    );

    Ok(AdaptedCode {
        code,
        map: result.map,
        sum_w: result.sum_w,
        iterations: result.iterations,
        elapsed: result.elapsed,
        depth,
        repair,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_synthesizes_a_deployable_composite() {
        let mut profile = BurstProfile::new();
        // a clearly bursty channel: 12-bit bursts every ~600 bits
        for _ in 0..40 {
            profile.observe((0..600).map(|i| i < 12));
        }
        profile.discontinuity();
        assert!(profile.is_bursty());
        let cfg = AdaptConfig {
            timeout: Duration::from_secs(30),
            ..Default::default()
        };
        let adapted = synthesize_adapted(&profile, &cfg).expect("synthesis");
        assert_eq!(adapted.code.data_len(), 16);
        assert!(adapted.code.codeword_len() <= 64);
        assert_eq!(adapted.depth, 1, "bursty channel concentrates erasures");
        assert!((2..=cfg.gen_size).contains(&adapted.repair));
        assert!(adapted.repair >= 3, "measured bursts must raise the budget");
        // the synthesized ensemble must run as one minimized kernel: a
        // word is `data | checks << 16`, valid when its data re-encodes
        // to its checks
        let mut k = fec_circ::CircuitKernel::minimized(&adapted.code.generator());
        let w = 0xBEEF | k.encode_checks(0xBEEF) << 16;
        let mut valid = |w: u64| k.encode_checks(w & 0xFFFF) == w >> 16;
        assert!(valid(w));
        assert!(!valid(w ^ 1));
    }
}
