//! Parallel portfolio SAT solving.
//!
//! Races N diversified `fec-sat` CDCL workers over the same CNF: each
//! worker gets a distinct [`fec_sat::SolverConfig`] (restart schedule,
//! VSIDS decay, initial phases, seeded tie-breaking), workers exchange
//! low-LBD learned clauses through bounded `std::sync::mpsc` inboxes
//! that drop clauses when full, and the first worker to reach a verdict
//! cancels the rest through an atomic stop flag checked inside their
//! propagation loops. Workers share nothing but std channels, the stop
//! flag and an atomic winner slot.
//!
//! The engine is the resident warm [`Pool`]: workers persist across a
//! session of queries and receive only each query's clause delta. A
//! one-shot solve is a one-query session,
//! `Pool::new(&config).solve(num_vars, clauses, assumptions, budget)`.
//! Two execution modes:
//!
//! - `jobs == 1` — one worker on the calling thread, no threads, no
//!   channels: the plain `Solver` with the default config, fed each
//!   clause as it is added. It is the engine behind every `fec-smt`
//!   query at the default `--jobs 1`.
//! - `jobs > 1` — one resident OS thread per worker, first-to-finish
//!   wins each query.
//!
//! # Certification
//!
//! With [`PortfolioConfig::certify`], every worker logs a DRAT stream
//! and each query returns every worker's new steps as a proof segment;
//! the winner's segments, concatenated, form its stream. Clause
//! sharing would normally break proof self-containedness — an imported
//! clause is a consequence
//! of the shared formula but not necessarily derivable by unit
//! propagation from the importer's own database — so under proof
//! logging the solver RUP-filters every import (see
//! `Solver::set_import_hook`): a shared clause is admitted only if
//! reverse unit propagation over the importer's live database derives
//! it, and is then logged as an ordinary learned clause. The winning
//! proof therefore checks stand-alone with `fec-drat`.
//!
//! See [`Pool`] for a worked example.

#![forbid(unsafe_code)]

mod pool;

pub use pool::{Pool, PoolOutcome, PortfolioStats};

use fec_sat::{PhaseInit, RestartPolicy, SolverConfig};

/// Portfolio-level configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PortfolioConfig {
    /// Number of workers. `1` means plain single-threaded solving.
    pub jobs: usize,
    /// Log a DRAT stream in every worker and return each worker's new
    /// steps with every query.
    pub certify: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            jobs: 1,
            certify: false,
        }
    }
}

impl PortfolioConfig {
    /// Default configuration with `jobs` workers.
    pub fn with_jobs(jobs: usize) -> Self {
        PortfolioConfig {
            jobs: jobs.max(1),
            ..PortfolioConfig::default()
        }
    }
}

/// The diversification schedule: the solver configuration of worker
/// `worker`.
///
/// Worker 0 always runs the stock default configuration, so a 1-job
/// portfolio is exactly the plain solver. Workers 1.. cycle through six
/// hand-picked heuristic mixes (restart cadence × decay × phase
/// polarity × tie-break randomization) with per-worker seeds, repeating
/// with different seeds past worker 6 — more workers never repeat an
/// identical search.
pub fn diversify(worker: usize) -> SolverConfig {
    // distinct, deterministic per-worker seed (splitmix-style mixing)
    let wseed = (worker as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xD1B54A32D192ED03);
    let base = SolverConfig {
        seed: wseed,
        ..SolverConfig::default()
    };
    if worker == 0 {
        return base;
    }
    match (worker - 1) % 6 {
        0 => SolverConfig {
            // deep dives: slow geometric restarts
            restart: RestartPolicy::Geometric {
                base: 100,
                factor: 1.5,
            },
            ..base
        },
        1 => SolverConfig {
            // aggressive focus on recent conflicts, opposite polarity
            var_decay: 0.90,
            phase_init: PhaseInit::AllTrue,
            ..base
        },
        2 => SolverConfig {
            // slow decay (broad activity memory), randomized everything
            var_decay: 0.99,
            restart: RestartPolicy::Geometric {
                base: 128,
                factor: 1.3,
            },
            phase_init: PhaseInit::Random,
            randomize_order: true,
            ..base
        },
        3 => SolverConfig {
            // lazy Luby with random phases
            restart: RestartPolicy::Luby { base: 256 },
            phase_init: PhaseInit::Random,
            randomize_order: true,
            ..base
        },
        4 => SolverConfig {
            // doubling geometric, shuffled branching order
            var_decay: 0.97,
            restart: RestartPolicy::Geometric {
                base: 100,
                factor: 2.0,
            },
            randomize_order: true,
            ..base
        },
        _ => SolverConfig {
            // rapid Luby with very aggressive decay
            var_decay: 0.85,
            restart: RestartPolicy::Luby { base: 50 },
            phase_init: PhaseInit::Random,
            randomize_order: true,
            ..base
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_zero_is_stock_config() {
        let c = diversify(0);
        let d = SolverConfig::default();
        assert_eq!(c.var_decay, d.var_decay);
        assert_eq!(c.restart, d.restart);
        assert_eq!(c.phase_init, d.phase_init);
        assert!(!c.randomize_order);
    }

    #[test]
    fn diversification_is_distinct_and_deterministic() {
        let configs: Vec<SolverConfig> = (0..8).map(diversify).collect();
        // deterministic
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(*c, diversify(i));
        }
        // pairwise distinct (seeds differ even when knobs repeat)
        for i in 0..configs.len() {
            for j in i + 1..configs.len() {
                assert_ne!(configs[i], configs[j], "workers {i} and {j} identical");
            }
        }
    }

    #[test]
    fn diversification_schedule_is_pinned() {
        // every field of the first 14 workers' configurations: the
        // schedule is part of the portfolio's search, so a refactor of
        // `diversify` must leave each worker's config unchanged
        use PhaseInit::{AllFalse, AllTrue, Random};
        let geo = |base, factor| RestartPolicy::Geometric { base, factor };
        let luby = |base| RestartPolicy::Luby { base };
        let pinned: [(f64, RestartPolicy, PhaseInit, bool, u64); 14] = [
            (0.95, luby(100), AllFalse, false, 0xd1b54a32d192ed03),
            (0.95, geo(100, 1.5), AllFalse, false, 0x6fecc3ec50dd6918),
            (0.90, luby(100), AllTrue, false, 0x0e243da5d027e52d),
            (0.99, geo(128, 1.3), Random, true, 0xac5bb75f4f726142),
            (0.95, luby(256), Random, true, 0x4a933118cebcdd57),
            (0.97, geo(100, 2.0), AllFalse, true, 0xe8caaad24e07596c),
            (0.85, luby(50), Random, true, 0x8702248bcd51d581),
            (0.95, geo(100, 1.5), AllFalse, false, 0x25399e454c9c5196),
            (0.90, luby(100), AllTrue, false, 0xc37117fecbe6cdab),
            (0.99, geo(128, 1.3), Random, true, 0x61a891b84b3149c0),
            (0.95, luby(256), Random, true, 0xffe00b71ca7bc5d5),
            (0.97, geo(100, 2.0), AllFalse, true, 0x9e17852b49c641ea),
            (0.85, luby(50), Random, true, 0x3c4efee4c910bdff),
            (0.95, geo(100, 1.5), AllFalse, false, 0xda86789e485b3a14),
        ];
        for (i, (var_decay, restart, phase_init, randomize_order, seed)) in
            pinned.into_iter().enumerate()
        {
            let expected = SolverConfig {
                var_decay,
                clause_decay: 0.999,
                restart,
                phase_init,
                randomize_order,
                seed,
            };
            assert_eq!(diversify(i), expected, "worker {i}");
        }
    }

    #[test]
    fn default_config() {
        let c = PortfolioConfig::default();
        assert_eq!(c.jobs, 1);
        assert!(!c.certify);
        assert_eq!(PortfolioConfig::with_jobs(0).jobs, 1);
        assert_eq!(PortfolioConfig::with_jobs(4).jobs, 4);
    }
}
