//! The from-scratch reference driver: Algorithm 1 with every solver
//! rebuilt on every CEGIS iteration and the accumulated
//! counterexamples replayed into the fresh synthesizer.
//!
//! It shares the bound loop with [`Synthesizer`] but none of its solver
//! state: for `maximal(md)` each bound's distance is built into the
//! verifiers as a unit clause instead of the warm driver's
//! `¬weight[d − 1]` assumption. It exists as the oracle the
//! differential suite and the `cegis_incremental` bench compare the
//! warm driver against; nothing in the production path calls it.

use crate::cegis::{
    Bound, CegisOutcome, Objective, ProblemShape, SynthError, SynthesisConfig, SynthesisResult,
    Synthesizer,
};
use crate::encode::CexMode;
use crate::spec::Prop;
use fec_gf2::BitVec;
use fec_hamming::Generator;
use fec_smt::{Budget, SmtResult};
use std::time::Instant;

/// A counterexample kept for replay, keyed by generator index.
enum Cex {
    /// A violating data word (`CexMode::DataWord`), replayed at the
    /// distance the current bound requires.
    DataWord(BitVec),
    /// A rejected candidate to block verbatim (`CexMode::BlockCandidate`).
    Block(Generator),
}

/// Synthesizes `prop` under `config` the slow, obviously-sound way.
/// Verdicts, optima and timeout semantics match [`Synthesizer::run`].
pub fn synthesize(prop: &Prop, config: SynthesisConfig) -> Result<SynthesisResult, SynthError> {
    let start = Instant::now();
    let deadline = start + config.timeout;
    let synth = Synthesizer::new(config);
    let shape = synth.prepare(&synth.shape_of(prop)?)?;
    let mut cexs = Vec::new();
    synth.optimize(&shape, start, |bound, iterations| {
        if !config.persist_counterexamples {
            cexs.clear();
        }
        cegis(&synth, &shape, bound, &mut cexs, deadline, iterations)
    })
}

/// One bound's synthesize–verify loop, rebuilding every solver per
/// iteration.
fn cegis(
    synth: &Synthesizer,
    shape: &ProblemShape,
    bound: Bound,
    cexs: &mut Vec<(usize, Cex)>,
    deadline: Instant,
    iterations: &mut u64,
) -> CegisOutcome {
    // the shape every iteration rebuilds: a maximal(md) bound becomes
    // that generator's fixed distance, everything else is asserted on
    // the synthesizer
    let mut fixed = shape.clone();
    let mut syn_bound = bound;
    if let Some((Objective::MaxDistance(gi), d)) = bound {
        fixed.gens[gi].min_distance = d as usize;
        fixed.objective = None;
        syn_bound = None;
    }
    let config = &synth.config;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return CegisOutcome::Timeout;
        }
        *iterations += 1;
        let mut state = synth.build(&fixed);
        if let Some((obj, b)) = syn_bound {
            synth.assert_bound(&mut state, obj, b);
        }
        for (i, cex) in cexs.iter() {
            let sym = &state.syms[*i];
            match cex {
                Cex::DataWord(x) => {
                    let d = fixed.gens[*i].min_distance;
                    sym.add_dataword_counterexample(&mut state.syn, x, d);
                }
                Cex::Block(g) => {
                    let clause = sym.blocking_clause(&state.syn, g);
                    state.syn.add_clause(&clause);
                }
            }
        }
        let budget = Budget::with_timeout(deadline - now);
        match state.syn.solve_with_budget(&[], budget) {
            SmtResult::Unsat => return CegisOutcome::Exhausted,
            SmtResult::Unknown => return CegisOutcome::Timeout,
            SmtResult::Sat => {}
        }
        let candidates: Vec<Generator> = state.syms.iter().map(|s| s.extract(&state.syn)).collect();
        let mut refuted = false;
        for (i, cand) in candidates.iter().enumerate() {
            let Some(ver) = state.verifiers[i].as_mut() else {
                continue;
            };
            let budget = Budget::with_timeout(deadline.saturating_duration_since(Instant::now()));
            let pins = ver.sym.pin_assumptions(cand);
            match ver.solver.solve_with_budget(&pins, budget) {
                SmtResult::Unsat => {}
                SmtResult::Unknown => return CegisOutcome::Timeout,
                SmtResult::Sat => {
                    refuted = true;
                    let cex = match config.cex_mode {
                        CexMode::DataWord => Cex::DataWord(ver.witness()),
                        CexMode::BlockCandidate => Cex::Block(cand.clone()),
                    };
                    cexs.push((i, cex));
                }
            }
        }
        if !refuted {
            return CegisOutcome::Found(candidates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;
    use fec_hamming::distance;
    use std::time::Duration;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            timeout: Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn reference_matches_the_warm_optimum() {
        // every solver rebuilt per iteration, stored counterexamples
        // replayed: it must land on the optimal Hamming (7,4) the warm
        // driver finds
        let p = parse_property(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        let r = synthesize(&p, quick_config()).unwrap();
        let g = &r.generators[0];
        assert_eq!(g.check_len(), 3);
        assert_eq!(distance::min_distance_exhaustive(g), 3);
        assert!(r.optimal);
    }

    #[test]
    fn reference_block_candidate_replays_blocks() {
        // blocking-clause counterexamples survive the per-iteration
        // rebuild through the replay store
        let cfg = SynthesisConfig {
            cex_mode: CexMode::BlockCandidate,
            ..quick_config()
        };
        let p = parse_property("len_d(G0) = 3 && len_c(G0) = 3 && md(G0) = 3").unwrap();
        let r = synthesize(&p, cfg).unwrap();
        assert_eq!(distance::min_distance_exhaustive(&r.generators[0]), 3);
    }
}
