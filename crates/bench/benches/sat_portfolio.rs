//! Portfolio scaling on the hardest verification instance.
//!
//! Races 1/2/4/8 diversified workers on the §4.1 (128,120) 802.3df
//! minimum-distance query (the UNSAT direction, `md ≥ 3` — the query
//! the paper reports at 14.40 s) and prints wall-clock speedups over
//! the single-worker baseline, together with the machine's core count —
//! speedup claims are only meaningful relative to the printed cores.
//!
//! A final 4-worker certified run replays the winning worker's DRAT
//! stream through the independent `fec-drat` checker, so the parallel
//! answer is shown to carry a checkable proof.
//!
//! ```text
//! cargo bench -p fec-bench --bench sat_portfolio
//! ```

use fec_hamming::standards;
use fec_smt::Budget;
use fec_synth::verify::{verify_min_distance_at_least_with, VerifyOptions, VerifyOutcome};
use std::time::Instant;

const JOBS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let g = standards::ieee_8023df_128_120();
    println!(
        "802.3df (128,120) md ≥ 3 verification, {REPS} reps per configuration, {cores} core(s)"
    );

    let mut baseline = 0.0f64;
    for jobs in JOBS {
        let opts = VerifyOptions {
            budget: Budget::unlimited(),
            check_certificates: false,
            jobs,
        };
        let mut secs = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            let (outcome, _) = verify_min_distance_at_least_with(&g, 3, opts);
            secs.push(t.elapsed().as_secs_f64());
            assert_eq!(
                outcome,
                VerifyOutcome::Holds,
                "jobs={jobs} changed the verdict"
            );
        }
        secs.sort_by(|a, b| a.total_cmp(b));
        let median = secs[REPS / 2];
        if jobs == 1 {
            baseline = median;
        }
        let speedup = baseline / median;
        println!("  jobs={jobs}: {median:.3} s (speedup {speedup:.2}x)");
    }

    // certified parallel run: the winning worker's proof must check
    let opts = VerifyOptions {
        budget: Budget::unlimited(),
        check_certificates: true,
        jobs: 4,
    };
    let (outcome, stats) = verify_min_distance_at_least_with(&g, 3, opts);
    assert_eq!(outcome, VerifyOutcome::Holds);
    assert!(
        stats.unsat_certified >= 1,
        "certified run produced no certificate"
    );
    println!(
        "  certified jobs=4 run: {} lemmas RUP-checked, {} UNSAT answers certified",
        stats.lemmas_checked, stats.unsat_certified
    );
}
