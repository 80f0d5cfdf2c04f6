//! Robustness trial harnesses: the machinery behind Fig. 4 and Table 2.
//!
//! Both trial loops run on one certified minimized `CircuitKernel`
//! from `fec-circ` whenever the codeword fits one `u64`; the width
//! alone picks the worker. A §4.3 composite runs as its combined
//! `CompositeCode::generator()`. The generator is minimized once per
//! trial, and each worker clones the compiled kernel. A worker runs
//! its trials in batches of 64, one per bit lane of
//! `CircuitKernel::encode_checks_lanes`, so the minimized circuit's
//! XORs are paid once per 64 trials. A batch first draws its trials
//! one after another, each its data word and then its BSC error
//! pattern, into stack arrays. One lanes pass then encodes the clean
//! words (a word is `data | checks << k`), and a second re-encodes
//! the received data bits: a trial's syndrome is zero when those
//! checks equal the received ones. Nothing is allocated per batch.
//!
//! Wider codewords take the scalar `BitVec` matrix–vector workers,
//! which are also the reference the kernel workers are tested
//! against: both consume the RNG in the same order (the BSC's gap
//! sampler draws the same sequence for `BitVec` and `u64` words), so
//! they produce bit-identical reports under the same seed, whatever
//! the trial count.

use crate::bsc::Bsc;
use crate::floatbits::random_numeric_f32;
use fec_circ::CircuitKernel;
use fec_gf2::BitVec;
use fec_hamming::robustness::p_at_least_m_flips;
use fec_hamming::{CompositeCode, Generator};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The encoder a Monte-Carlo trial drives. The input alone decides
/// the worker, so this has one variant; it remains only for
/// [`robustness_trial_backend`]'s callers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EncodeBackend {
    /// Certified minimized circuit kernels (`fec-circ`), or the matrix
    /// workers for codewords wider than one `u64`.
    #[default]
    MinimizedKernel,
}

/// Results of a Fig. 4-style robustness trial for one generator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RobustnessReport {
    /// Trials whose channel flipped at least `md` bits — the paper's
    /// upper line, matching the theoretical `P_u · trials`.
    pub at_least_md_flips: u64,
    /// Trials where the corrupted word was a *different valid
    /// codeword* — true undetected errors (the lower line).
    pub undetected: u64,
    /// Trials with a non-zero syndrome (errors that were detected).
    pub detected: u64,
    /// Total trials.
    pub trials: u64,
}

impl RobustnessReport {
    fn merge(self, other: RobustnessReport) -> RobustnessReport {
        RobustnessReport {
            at_least_md_flips: self.at_least_md_flips + other.at_least_md_flips,
            undetected: self.undetected + other.undetected,
            detected: self.detected + other.detected,
            trials: self.trials + other.trials,
        }
    }

    /// The theoretical expectation of the upper line:
    /// `P(≥ md flips) · trials` (§2.2).
    pub fn theoretical_at_least_md(n: usize, md: usize, p: f64, trials: u64) -> f64 {
        p_at_least_m_flips(n, md, p) * trials as f64
    }
}

/// Splits `trials` across `threads` scoped workers and returns their
/// reports in worker order. Worker `t` runs `work(n, seed')` with its
/// share `n` (the last takes the remainder) and
/// `seed' = seed + salt · (t + 1)`.
fn split_trials<R: Send>(
    trials: u64,
    seed: u64,
    salt: u64,
    threads: usize,
    work: impl Fn(u64, u64) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1);
    let chunk = trials / threads as u64;
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let n = if t == threads - 1 {
                    trials - chunk * (threads as u64 - 1)
                } else {
                    chunk
                };
                let worker_seed = seed.wrapping_add(salt.wrapping_mul(t as u64 + 1));
                scope.spawn(move || work(n, worker_seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Per-worker seed salts of the two experiments.
const ROBUSTNESS_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const FLOAT32_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Runs the §4.2 robustness experiment for one generator: `trials`
/// random data words, encode, BSC with rate `p`, count outcomes.
///
/// `md` is the generator's minimum distance (used only for the
/// ≥-md-flips counter). Work is split across `threads`. Codewords up
/// to 64 bits run on the certified minimized kernel, wider ones on
/// the matrix worker.
pub fn robustness_trial(
    g: &Generator,
    md: usize,
    p: f64,
    trials: u64,
    seed: u64,
    threads: usize,
) -> RobustnessReport {
    let reports = if g.codeword_len() <= 64 {
        // minimize (and certify) once, outside the worker threads
        let kernel = CircuitKernel::minimized(g);
        split_trials(trials, seed, ROBUSTNESS_SALT, threads, |n, s| {
            robustness_worker_kernel(kernel.clone(), md, p, n, s)
        })
    } else {
        split_trials(trials, seed, ROBUSTNESS_SALT, threads, |n, s| {
            robustness_worker(g, md, p, n, s)
        })
    };
    reports
        .into_iter()
        .fold(RobustnessReport::default(), RobustnessReport::merge)
}

/// [`robustness_trial`]; `backend` has one value and changes nothing.
pub fn robustness_trial_backend(
    g: &Generator,
    md: usize,
    p: f64,
    trials: u64,
    seed: u64,
    threads: usize,
    backend: EncodeBackend,
) -> RobustnessReport {
    match backend {
        EncodeBackend::MinimizedKernel => robustness_trial(g, md, p, trials, seed, threads),
    }
}

fn robustness_worker(g: &Generator, md: usize, p: f64, trials: u64, seed: u64) -> RobustnessReport {
    let bsc = Bsc::new(p);
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = g.data_len();
    assert!(k <= 64, "robustness_trial supports k ≤ 64");
    let mut report = RobustnessReport {
        trials,
        ..Default::default()
    };
    for _ in 0..trials {
        let data_bits: u64 = rng.random::<u64>() & mask64(k);
        let data = BitVec::from_u128(data_bits as u128, k);
        let clean = g.encode(&data);
        let mut received = clean.clone();
        let flips = bsc.transmit(&mut rng, &mut received);
        if flips >= md {
            report.at_least_md_flips += 1;
        }
        if flips == 0 {
            continue;
        }
        if g.is_valid(&received) {
            report.undetected += 1;
        } else {
            report.detected += 1;
        }
    }
    report
}

fn robustness_worker_kernel(
    kernel: CircuitKernel,
    md: usize,
    p: f64,
    trials: u64,
    seed: u64,
) -> RobustnessReport {
    let data_mask = mask64(kernel.data_len());
    let mut report = RobustnessReport {
        trials,
        ..Default::default()
    };
    kernel_trials(
        kernel,
        p,
        trials,
        seed,
        |rng| rng.random::<u64>() & data_mask,
        |_, error, valid| {
            let flips = error.count_ones() as usize;
            if flips >= md {
                report.at_least_md_flips += 1;
            }
            if flips == 0 {
                return;
            }
            if valid {
                report.undetected += 1;
            } else {
                report.detected += 1;
            }
        },
    );
    report
}

/// Trials per pass of the kernel: one per bit lane of
/// `CircuitKernel::encode_checks_lanes`.
const LANES: usize = 64;

/// Runs `trials` encode–channel–detect trials on `kernel` over a BSC
/// at rate `p`, from one RNG seeded with `seed`, 64 to a pass. A batch
/// draws its trials one at a time: `data` draws a trial's data word,
/// then the BSC draws its n-bit error pattern, so the RNG order is
/// that of one trial after another. One lanes pass encodes the
/// batch's clean words, a second re-encodes the received data bits;
/// then `tally(sent, error, valid)` sees each trial in order, with
/// `valid` true when the received check bits equal the re-encoded
/// ones (a zero syndrome). The buffers live on the stack.
fn kernel_trials(
    mut kernel: CircuitKernel,
    p: f64,
    trials: u64,
    seed: u64,
    mut data: impl FnMut(&mut SmallRng) -> u64,
    mut tally: impl FnMut(u64, u64, bool),
) {
    let bsc = Bsc::new(p);
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = kernel.data_len();
    let n = k + kernel.check_len();
    let check_mask = mask64(kernel.check_len());
    let mut words = [0u64; LANES];
    let mut errors = [0u64; LANES];
    let mut checks = [0u64; LANES];
    let mut left = trials;
    while left > 0 {
        let lanes = left.min(LANES as u64) as usize;
        left -= lanes as u64;
        for (word, error) in words[..lanes].iter_mut().zip(&mut errors[..lanes]) {
            *word = data(&mut rng);
            *error = 0;
            bsc.transmit_u64(&mut rng, error, n);
        }
        kernel.encode_checks_lanes(&words[..lanes], 1, &mut checks);
        // the received word: data | checks << k, through the channel
        for ((word, check), error) in words[..lanes].iter_mut().zip(&checks).zip(&errors) {
            *word = (*word | check << k) ^ error;
        }
        kernel.encode_checks_lanes(&words[..lanes], 1, &mut checks);
        for ((word, check), error) in words[..lanes].iter().zip(&checks).zip(&errors) {
            tally(word ^ error, *error, *check == (word >> k) & check_mask);
        }
    }
}

fn mask64(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Results of a Table 2-style float32 trial for one code ensemble.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Float32Report {
    /// Undetected errors: every segment's syndrome was zero but the
    /// received word differs from the transmitted one.
    pub undetected: u64,
    /// Sum of |Δ| over undetected errors whose corrupted data decodes
    /// to a *numeric* float (divide by `numeric_errors` for Table 2's
    /// "avg. err.").
    pub error_magnitude_sum: f64,
    /// Undetected errors whose corrupted data is numeric.
    pub numeric_errors: u64,
    /// Undetected errors where numeric data was corrupted into NaN/±∞
    /// (the "non-num." column).
    pub non_numeric: u64,
    /// Total trials.
    pub trials: u64,
}

impl Float32Report {
    fn merge(self, o: Float32Report) -> Float32Report {
        Float32Report {
            undetected: self.undetected + o.undetected,
            error_magnitude_sum: self.error_magnitude_sum + o.error_magnitude_sum,
            numeric_errors: self.numeric_errors + o.numeric_errors,
            non_numeric: self.non_numeric + o.non_numeric,
            trials: self.trials + o.trials,
        }
    }

    /// Average numeric error magnitude over undetected numeric errors.
    pub fn avg_error_magnitude(&self) -> f64 {
        if self.numeric_errors == 0 {
            0.0
        } else {
            self.error_magnitude_sum / self.numeric_errors as f64
        }
    }
}

/// Runs the §4.3 experiment: `trials` random *numeric* float32 words,
/// encoded with `code`, BSC at rate `p`; counts undetected errors,
/// their numeric magnitude, and non-numeric corruptions. Codewords up
/// to 64 bits run on the minimized kernel of `code.generator()`, wider
/// ones on the matrix worker.
pub fn float32_trial(
    code: &CompositeCode,
    p: f64,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Float32Report {
    assert_eq!(code.data_len(), 32, "float32 trial needs a 32-bit code");
    let reports = if code.codeword_len() <= 64 {
        let kernel = CircuitKernel::minimized(&code.generator());
        split_trials(trials, seed, FLOAT32_SALT, threads, |n, s| {
            float32_worker_kernel(kernel.clone(), p, n, s)
        })
    } else {
        split_trials(trials, seed, FLOAT32_SALT, threads, |n, s| {
            float32_worker(code, p, n, s)
        })
    };
    reports
        .into_iter()
        .fold(Float32Report::default(), Float32Report::merge)
}

fn float32_worker(code: &CompositeCode, p: f64, trials: u64, seed: u64) -> Float32Report {
    let bsc = Bsc::new(p);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut report = Float32Report {
        trials,
        ..Default::default()
    };
    for _ in 0..trials {
        let bits = random_numeric_f32(&mut rng);
        let data = BitVec::from_u128(bits as u128, 32);
        let clean = code.encode(&data);
        let mut received = clean.clone();
        let flips = bsc.transmit(&mut rng, &mut received);
        if flips == 0 {
            continue;
        }
        if !code.is_valid(&received) {
            continue; // detected
        }
        report.undetected += 1;
        let got_bits = received.slice(0..32).to_u128() as u32;
        if got_bits == bits {
            // flips confined to check bits reproduced a valid word with
            // identical data: numerically harmless, magnitude 0
            report.numeric_errors += 1;
            continue;
        }
        let original = f32::from_bits(bits);
        let corrupted = f32::from_bits(got_bits);
        if corrupted.is_finite() {
            report.numeric_errors += 1;
            report.error_magnitude_sum += (corrupted as f64 - original as f64).abs();
        } else {
            report.non_numeric += 1;
        }
    }
    report
}

fn float32_worker_kernel(kernel: CircuitKernel, p: f64, trials: u64, seed: u64) -> Float32Report {
    let mut report = Float32Report {
        trials,
        ..Default::default()
    };
    kernel_trials(
        kernel,
        p,
        trials,
        seed,
        |rng| u64::from(random_numeric_f32(rng)),
        |sent, error, valid| {
            if error == 0 || !valid {
                return; // clean, or detected
            }
            report.undetected += 1;
            let bits = sent as u32;
            let got_bits = (sent ^ error) as u32;
            if got_bits == bits {
                report.numeric_errors += 1;
                return;
            }
            let original = f32::from_bits(bits);
            let corrupted = f32::from_bits(got_bits);
            if corrupted.is_finite() {
                report.numeric_errors += 1;
                report.error_magnitude_sum += (corrupted as f64 - original as f64).abs();
            } else {
                report.non_numeric += 1;
            }
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_hamming::standards;

    /// The matrix workers over the same split and seeds as the trials.
    fn robustness_by_matrix(
        g: &Generator,
        md: usize,
        p: f64,
        trials: u64,
        seed: u64,
    ) -> RobustnessReport {
        split_trials(trials, seed, ROBUSTNESS_SALT, 3, |n, s| {
            robustness_worker(g, md, p, n, s)
        })
        .into_iter()
        .fold(RobustnessReport::default(), RobustnessReport::merge)
    }

    #[test]
    fn backends_produce_bit_identical_reports() {
        // same seed, same RNG consumption → the kernel path must
        // reproduce the matrix path exactly, field for field
        let g = standards::hamming_extended_8_4();
        let a = robustness_by_matrix(&g, 4, 0.1, 60_000, 42);
        let b = robustness_trial(&g, 4, 0.1, 60_000, 42, 3);
        assert_eq!(a, b);
        let code = CompositeCode::contiguous_msb_first(vec![
            standards::shortened_hamming(16, 6).unwrap(),
            standards::parity_code(16),
        ])
        .unwrap();
        let fa = split_trials(60_000, 42, FLOAT32_SALT, 3, |n, s| {
            float32_worker(&code, 0.1, n, s)
        })
        .into_iter()
        .fold(Float32Report::default(), Float32Report::merge);
        let fb = float32_trial(&code, 0.1, 60_000, 42, 3);
        assert_eq!(fa, fb);
        // the frozen entry point is the same trial
        let c = robustness_trial_backend(&g, 4, 0.1, 60_000, 42, 3, EncodeBackend::MinimizedKernel);
        assert_eq!(b, c);
    }

    #[test]
    fn wide_codewords_take_the_matrix_worker() {
        // codeword_len 67 > 64 but k = 60 ≤ 64: the trial takes the
        // matrix worker and matches it exactly
        let g = standards::shortened_hamming(60, 7).unwrap();
        let a = robustness_trial(&g, 3, 0.02, 5_000, 7, 3);
        assert_eq!(a.trials, 5_000);
        assert_eq!(a, robustness_by_matrix(&g, 3, 0.02, 5_000, 7));
    }

    #[test]
    fn strong_code_has_fewer_undetected_than_weak() {
        let weak = standards::parity_code(4); // md 2
        let strong = standards::hamming_extended_8_4(); // md 4
        let trials = 200_000;
        let rw = robustness_trial(&weak, 2, 0.1, trials, 1, 4);
        let rs = robustness_trial(&strong, 4, 0.1, trials, 1, 4);
        assert!(
            rw.undetected > rs.undetected * 2,
            "weak {} vs strong {}",
            rw.undetected,
            rs.undetected
        );
    }

    #[test]
    fn at_least_md_matches_theory() {
        let g = standards::hamming_7_4();
        let trials = 400_000;
        let r = robustness_trial(&g, 3, 0.1, trials, 99, 4);
        let theory = RobustnessReport::theoretical_at_least_md(7, 3, 0.1, trials);
        let rel = (r.at_least_md_flips as f64 - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "observed {} vs theory {theory}",
            r.at_least_md_flips
        );
    }

    #[test]
    fn undetected_errors_are_bounded_by_flip_count_line() {
        // every undetected error needs ≥ md flips, so the lower line
        // can never exceed the upper one
        let g = standards::hamming_7_4();
        let r = robustness_trial(&g, 3, 0.1, 100_000, 5, 2);
        assert!(r.undetected <= r.at_least_md_flips);
        assert_eq!(r.trials, 100_000);
    }

    #[test]
    fn trials_split_exactly_across_threads() {
        let g = standards::parity_code(8);
        let r = robustness_trial(&g, 2, 0.05, 100_003, 5, 4);
        assert_eq!(r.trials, 100_003);
    }

    #[test]
    fn float32_parity_only_misses_doubles() {
        // two 16-bit parity codes: every single-bit flip is caught, so
        // undetected requires ≥ 2 flips within one segment
        let code = CompositeCode::contiguous_msb_first(vec![
            standards::parity_code(16),
            standards::parity_code(16),
        ])
        .unwrap();
        let r = float32_trial(&code, 0.1, 100_000, 17, 4);
        assert!(r.undetected > 0, "p=0.1 must produce undetected doubles");
        assert!(r.numeric_errors + r.non_numeric <= r.undetected);
    }

    #[test]
    fn stronger_float_code_cuts_undetected_errors() {
        let parity2 = CompositeCode::contiguous_msb_first(vec![
            standards::parity_code(16),
            standards::parity_code(16),
        ])
        .unwrap();
        let strong = CompositeCode::contiguous_msb_first(vec![
            standards::shortened_hamming(16, 6).unwrap(),
            standards::shortened_hamming(16, 6).unwrap(),
        ])
        .unwrap();
        let trials = 150_000;
        let rp = float32_trial(&parity2, 0.1, trials, 23, 4);
        let rs = float32_trial(&strong, 0.1, trials, 23, 4);
        assert!(
            rp.undetected > rs.undetected * 10,
            "parity {} vs strong {}",
            rp.undetected,
            rs.undetected
        );
    }

    #[test]
    fn float32_specific_code_cuts_error_magnitude() {
        // the Table 2 claim: protecting the upper bits more strongly
        // reduces the *magnitude* of undetected numeric error even if
        // the undetected *count* is higher than full md-3 protection
        let weighted = CompositeCode::contiguous_msb_first(vec![
            standards::shortened_hamming(8, 5).unwrap(),
            standards::parity_code(8),
            standards::parity_code(16),
        ])
        .unwrap();
        let parity2 = CompositeCode::contiguous_msb_first(vec![
            standards::parity_code(16),
            standards::parity_code(16),
        ])
        .unwrap();
        let trials = 300_000;
        let rw = float32_trial(&weighted, 0.1, trials, 31, 4);
        let rp = float32_trial(&parity2, 0.1, trials, 31, 4);
        assert!(rw.undetected < rp.undetected);
        assert!(
            rw.avg_error_magnitude() < rp.avg_error_magnitude(),
            "weighted {:e} vs parity {:e}",
            rw.avg_error_magnitude(),
            rp.avg_error_magnitude()
        );
    }
}
