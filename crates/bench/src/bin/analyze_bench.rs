//! Static-analysis pruning benchmark: how much of an 802.3df-style
//! parameter sweep the fec-analyze bounds engine decides *without* a
//! solver, and the wall-clock saved versus running CEGIS on every
//! point.
//!
//! The sweep is a fixed-point grid over `(k, r, d)` — data length,
//! check length, required minimum distance — the same axes the paper's
//! Table 1 sweep walks. Both arms run:
//!
//! - **solver-only**: CEGIS on every point (static gate disabled);
//! - **analyze**: `analyze_point(k + r, k, d)` first, CEGIS only on
//!   the points the bounds leave open (`NeedsSearch`).
//!
//! While at it, the run double-checks soundness against the solver
//! arm's answers: an `Infeasible` verdict must coincide with CEGIS
//! UNSAT and `TriviallyFeasible` with a synthesized code (timeouts are
//! skipped). Exits 1 unless at least half the grid is decided
//! statically; the verdict counts alone are pinned by fec-analyze's
//! `bench_grid_verdict_counts` test.
//!
//! ```text
//! cargo run -p fec-bench --release --bin analyze_bench
//!     [--quick] [--timeout=SECS]
//! ```

use fec_analyze::{analyze_point, PointVerdict};
use fec_bench::{arg_flag, print_header, print_row, synth_timeout};
use fec_cli::Arity::{Bare, Value};
use fec_synth::cegis::{SynthError, SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;
use std::time::Instant;

/// Raw CEGIS outcome for one grid point (static gate off).
#[derive(Clone, Copy, PartialEq)]
enum Solved {
    Found,
    Unsat,
    Timeout,
}

fn solve(k: usize, r: usize, d: usize, config: &SynthesisConfig) -> Solved {
    let prop = parse_property(&format!(
        "len_d(G0) = {k} && len_c(G0) = {r} && md(G0) >= {d}"
    ))
    .expect("static grid property");
    match Synthesizer::new(*config).run(&prop) {
        Ok(_) => Solved::Found,
        Err(SynthError::NoSolution) => Solved::Unsat,
        Err(SynthError::Timeout) => Solved::Timeout,
        Err(e) => panic!("[{}, {k}, {d}]: {e}", k + r),
    }
}

fn main() {
    fec_bench::check_flags(&[("quick", Bare), ("timeout", Value)]);
    let quick = arg_flag("quick");
    let (ks, r_hi, d_hi): (&[usize], usize, usize) =
        if quick { (&[4], 5, 5) } else { (&[4, 8], 6, 6) };
    let config = SynthesisConfig {
        timeout: synth_timeout(),
        static_analysis: false, // both arms time the raw solver
        ..Default::default()
    };
    println!(
        "analyze_bench: grid k ∈ {ks:?}, r ∈ 1..={r_hi}, d ∈ 2..={d_hi} (timeout {:?})",
        config.timeout
    );
    let widths = [12, 20, 14, 14];
    print_header(&["[n, k, d]", "static verdict", "solver", "agree"], &widths);

    let (mut infeasible, mut trivial, mut open) = (0usize, 0usize, 0usize);
    let mut analyze_secs = 0.0f64;
    let mut solver_secs = 0.0f64;
    for &k in ks {
        for r in 1..=r_hi {
            for d in 2..=d_hi {
                let n = k + r;
                let t0 = Instant::now();
                let verdict = analyze_point(n, k, d);
                let mut analyze_arm = t0.elapsed().as_secs_f64();

                let t1 = Instant::now();
                let solved = solve(k, r, d, &config);
                let solver_arm = t1.elapsed().as_secs_f64();

                let agree = match (&verdict, solved) {
                    (_, Solved::Timeout) => "timeout",
                    (PointVerdict::Infeasible(c), s) => {
                        assert!(
                            s == Solved::Unsat,
                            "soundness violation at [{n}, {k}, {d}]: {c}"
                        );
                        "yes"
                    }
                    (PointVerdict::TriviallyFeasible, s) => {
                        assert!(
                            s == Solved::Found,
                            "completeness violation at [{n}, {k}, {d}]: GV promised a code"
                        );
                        "yes"
                    }
                    (PointVerdict::NeedsSearch { .. }, _) => "open",
                };
                match verdict {
                    PointVerdict::Infeasible(_) => infeasible += 1,
                    PointVerdict::TriviallyFeasible => trivial += 1,
                    PointVerdict::NeedsSearch { .. } => {
                        open += 1;
                        // the analyze arm still has to search open points
                        analyze_arm += solver_arm;
                    }
                }
                analyze_secs += analyze_arm;
                solver_secs += solver_arm;
                print_row(
                    &[
                        format!("[{n}, {k}, {d}]"),
                        verdict.kind().to_string(),
                        match solved {
                            Solved::Found => "found".into(),
                            Solved::Unsat => "unsat".into(),
                            Solved::Timeout => "timeout".into(),
                        },
                        agree.to_string(),
                    ],
                    &widths,
                );
            }
        }
    }

    let points = infeasible + trivial + open;
    let decided = infeasible + trivial;
    let fraction = decided as f64 / points as f64;
    let speedup = solver_secs / analyze_secs.max(1e-9);
    let gate_met = fraction >= 0.5;
    println!(
        "\n{decided}/{points} points decided statically ({:.0}%): \
         {infeasible} infeasible, {trivial} trivially feasible, {open} need search",
        fraction * 100.0
    );
    println!(
        "wall-clock: solver-only {solver_secs:.2} s vs analyze {analyze_secs:.2} s \
         ({speedup:.1}x){}",
        if gate_met { "" } else { " — GATE MISSED" }
    );

    if !gate_met {
        std::process::exit(1);
    }
}
