//! Incremental-CEGIS speedup on the hardest Table 1 rows.
//!
//! The bench replays the Table 1 `min_dist ∈ {7, 8}` optimization rows in
//! paper mode (`CexMode::BlockCandidate`, counterexamples not carried
//! across bounds — thousands of CEGIS iterations) under the default
//! incremental core, and against `fec_synth::reference::synthesize`,
//! which rebuilds every solver per iteration. The reference side is
//! given a wall-clock cap for the whole run; when it times out, its
//! elapsed time is a *lower bound* on the true cost and the recorded
//! speedup is therefore conservative. Gate: incremental ≥ 2× on both
//! rows; a missed gate fails an assert, so the bench exits nonzero.
//!
//! ```text
//! cargo bench -p fec-bench --bench cegis_incremental
//! ```

use fec_synth::cegis::{SynthError, SynthesisConfig, Synthesizer};
use fec_synth::encode::CexMode;
use fec_synth::reference;
use fec_synth::spec::parse_property;
use std::time::{Duration, Instant};

const REPS: usize = 3;
/// Wall cap for the from-scratch reference runs: they are 10–50×
/// slower than the incremental core, so the bench records a capped
/// lower bound instead of waiting minutes per rep.
const SCRATCH_TIMEOUT: Duration = Duration::from_secs(20);
/// The gate this bench enforces.
const CEGIS_GATE: f64 = 2.0;

struct Table1Row {
    min_dist: usize,
    incr_secs: f64,
    incr_iters: u64,
    check_len: usize,
    scratch_secs: f64,
    scratch_completed: bool,
    speedup: f64,
}

fn table1_config(timeout: Duration) -> SynthesisConfig {
    SynthesisConfig {
        timeout,
        cex_mode: CexMode::BlockCandidate,
        persist_counterexamples: false,
        ..SynthesisConfig::default()
    }
}

fn table1_row(min_dist: usize) -> Table1Row {
    let prop = parse_property(&format!(
        "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = {min_dist} && minimal(len_c(G0))"
    ))
    .expect("Table 1 spec parses");

    let mut secs = Vec::with_capacity(REPS);
    let mut incr_iters = 0;
    let mut check_len = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = Synthesizer::new(table1_config(Duration::from_secs(120)))
            .run(&prop)
            .expect("incremental core solves the Table 1 row");
        secs.push(t.elapsed().as_secs_f64());
        incr_iters = r.iterations;
        check_len = r.generators[0].check_len();
    }
    secs.sort_by(|a, b| a.total_cmp(b));
    let incr_secs = secs[REPS / 2];

    // one reference rep: capped, so timing out yields a lower bound
    let t = Instant::now();
    let scratch = reference::synthesize(&prop, table1_config(SCRATCH_TIMEOUT));
    let scratch_secs = t.elapsed().as_secs_f64();
    let scratch_completed = match scratch {
        Ok(r) if r.optimal => {
            assert_eq!(
                r.generators[0].check_len(),
                check_len,
                "modes disagree on the md={min_dist} optimum"
            );
            true
        }
        Ok(_) | Err(SynthError::Timeout) => false,
        Err(e) => panic!("from-scratch md={min_dist} failed: {e}"),
    };

    Table1Row {
        min_dist,
        incr_secs,
        incr_iters,
        check_len,
        scratch_secs,
        scratch_completed,
        speedup: scratch_secs / incr_secs,
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("incremental CEGIS bench, {REPS} reps, {cores} core(s)");

    // Table 1 min_dist = 7/8 optimization rows, paper mode.
    for min_dist in [7usize, 8] {
        let row = table1_row(min_dist);
        println!(
            "  md={}: incremental {:.2}s ({} iters, check_len {}), from-scratch {:.2}s{} => {:.1}x",
            row.min_dist,
            row.incr_secs,
            row.incr_iters,
            row.check_len,
            row.scratch_secs,
            if row.scratch_completed {
                ""
            } else {
                " (capped; lower bound)"
            },
            row.speedup,
        );
        assert!(
            row.speedup >= CEGIS_GATE,
            "md={} incremental speedup {:.2}x below the {CEGIS_GATE}x gate",
            row.min_dist,
            row.speedup
        );
    }
}
