//! Solver heuristic configuration.
//!
//! Every knob the CDCL engine used to hard-code is a public field here,
//! so a portfolio (`fec-portfolio`) can run *diversified* workers over
//! the same formula: different restart schedules, branching decay,
//! initial phases, and tie-break orders explore different parts of the
//! search space, and the first worker to finish wins.
//!
//! [`SolverConfig::default`] reproduces the historical behaviour
//! exactly, so a solver built with `Solver::new()` is bit-for-bit the
//! solver this crate always had.

/// Restart schedule.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RestartPolicy {
    /// Luby sequence (1 1 2 1 1 2 4 ...) scaled by `base` conflicts.
    /// The classic MiniSat default: aggressive early, provably within a
    /// log factor of the optimal schedule.
    Luby {
        /// Conflicts per unit of the sequence.
        base: u64,
    },
    /// Geometric growth: restart `i` allows `base * factor^i` conflicts.
    /// Slower cadence that favours deep dives — a useful portfolio
    /// complement to Luby.
    Geometric {
        /// Conflicts allowed before the first restart.
        base: u64,
        /// Growth factor (> 1.0).
        factor: f64,
    },
}

impl RestartPolicy {
    /// Conflict limit of the `idx`-th restart interval (0-based).
    pub(crate) fn limit(self, idx: u64) -> u64 {
        match self {
            RestartPolicy::Luby { base } => base.saturating_mul(luby(idx)),
            RestartPolicy::Geometric { base, factor } => {
                let scaled = base as f64 * factor.powi(idx.min(1 << 20) as i32);
                if scaled >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    scaled as u64
                }
            }
        }
    }
}

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
pub(crate) fn luby(mut i: u64) -> u64 {
    // size of the smallest complete subsequence containing index i
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i + 1 {
            k += 1;
        }
        if (1u64 << k) - 1 == i + 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Initial polarity assigned to fresh variables (phase saving takes
/// over after the first assignment).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseInit {
    /// All variables start false (the historical default).
    AllFalse,
    /// All variables start true.
    AllTrue,
    /// Seeded pseudo-random initial phases.
    Random,
}

/// Heuristic knobs of the CDCL engine.
///
/// All randomness is driven by the explicit `seed` through a
/// deterministic xorshift generator, so two solvers with equal configs
/// behave identically.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SolverConfig {
    /// EVSIDS variable-activity decay (activity increment grows by
    /// `1/var_decay` per conflict). Smaller = more aggressive focus on
    /// recent conflicts.
    pub var_decay: f64,
    /// Clause-activity decay for learnt-DB retention.
    pub clause_decay: f64,
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// Initial polarity of fresh variables.
    pub phase_init: PhaseInit,
    /// Perturb the initial branching order with tiny seeded activities
    /// (breaks the index-order tie among untouched variables).
    pub randomize_order: bool,
    /// Seed for `phase_init: Random` and `randomize_order`.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart: RestartPolicy::Luby { base: 100 },
            phase_init: PhaseInit::AllFalse,
            randomize_order: false,
            seed: 0,
        }
    }
}

/// xorshift64* — the solver's only randomness source; deterministic
/// and dependency-free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct XorShift64(u64);

impl XorShift64 {
    pub fn new(seed: u64) -> XorShift64 {
        // avoid the all-zero fixed point
        XorShift64(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn restart_limits() {
        let l = RestartPolicy::Luby { base: 100 };
        assert_eq!(l.limit(0), 100);
        assert_eq!(l.limit(2), 200);
        let g = RestartPolicy::Geometric {
            base: 100,
            factor: 2.0,
        };
        assert_eq!(g.limit(0), 100);
        assert_eq!(g.limit(3), 800);
    }

    #[test]
    fn default_matches_historical_constants() {
        let c = SolverConfig::default();
        assert_eq!(c.var_decay, 0.95);
        assert_eq!(c.clause_decay, 0.999);
        assert_eq!(c.restart, RestartPolicy::Luby { base: 100 });
        assert_eq!(c.phase_init, PhaseInit::AllFalse);
        assert!(!c.randomize_order);
    }

    #[test]
    fn xorshift_is_deterministic_and_nonconstant() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = XorShift64::new(43);
        assert_ne!(c.next_u64(), xs[0]);
    }
}
