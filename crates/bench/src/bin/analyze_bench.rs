//! Static-analysis pruning benchmark: how much of an 802.3df-style
//! parameter sweep the fec-analyze bounds engine decides *without* a
//! solver, and the wall-clock saved versus running CEGIS on every
//! point. Recorded as `BENCH_analyze.json` at the workspace root.
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
//! statically — the PR's acceptance gate.
//!
//! ```text
//! cargo run -p fec-bench --release --bin analyze_bench
//!     [--quick] [--timeout=SECS]
//! cargo run -p fec-bench --release --bin analyze_bench -- --validate
//! ```
//!
//! `--validate` re-reads an existing BENCH_analyze.json and checks it
//! against the schema (used by the CI analyze-differential job).

use fec_analyze::{analyze_point, PointVerdict};
use fec_bench::{arg_flag, print_header, print_row, synth_timeout};
use fec_synth::cegis::{SynthError, SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;
use std::fmt::Write as _;
use std::path::Path;
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

/// Schema check for an existing BENCH_analyze.json; returns an error
/// description on the first violation.
fn validate(text: &str) -> Result<(), String> {
    let v = fec_trace::parse_json(text).map_err(|e| e.to_string())?;
    fec_cli::validate_bench_meta(&v)?;
    let num = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(|x| x.as_num())
            .ok_or(format!("missing numeric {key:?}"))
    };
    let points = num("points")?;
    let infeasible = num("infeasible")?;
    let trivially_feasible = num("trivially_feasible")?;
    let needs_search = num("needs_search")?;
    let decided = num("decided_static")?;
    let fraction = num("fraction_decided")?;
    for key in ["analyze_arm_secs", "solver_only_arm_secs", "speedup"] {
        num(key)?;
    }
    if decided != infeasible + trivially_feasible {
        return Err(format!(
            "decided_static = {decided} is not infeasible + trivially_feasible"
        ));
    }
    if points != decided + needs_search {
        return Err(format!("points = {points} is not decided + needs_search"));
    }
    // the emitter rounds to 6 decimal places, so allow a half-ulp of
    // that precision (1e-9 rejects e.g. the exact 55/60 = 0.916667)
    if points <= 0.0 || (fraction - decided / points).abs() > 5e-7 {
        return Err(format!("fraction_decided = {fraction} inconsistent"));
    }
    let gate = match v.get("gate_met") {
        Some(fec_trace::Json::Bool(b)) => *b,
        _ => return Err("missing boolean \"gate_met\"".into()),
    };
    if gate != (fraction >= 0.5) {
        return Err(format!(
            "gate_met = {gate} contradicts fraction_decided = {fraction}"
        ));
    }
    if !gate {
        return Err("acceptance gate not met: under half the grid decided statically".into());
    }
    Ok(())
}

fn main() {
    fec_bench::check_flags(&["quick", "timeout", "validate"]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_analyze.json");

    if arg_flag("validate") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        match validate(&text) {
            Ok(()) => println!("{}: schema OK, acceptance gate met", path.display()),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

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

    let mut json = String::from("{\n");
    json.push_str(&fec_bench::bench_meta(1));
    let _ = writeln!(
        json,
        "  \"grid\": \"k in {ks:?}, r in 1..={r_hi}, d in 2..={d_hi}\","
    );
    let _ = writeln!(json, "  \"points\": {points},");
    let _ = writeln!(json, "  \"infeasible\": {infeasible},");
    let _ = writeln!(json, "  \"trivially_feasible\": {trivial},");
    let _ = writeln!(json, "  \"needs_search\": {open},");
    let _ = writeln!(json, "  \"decided_static\": {decided},");
    let _ = writeln!(json, "  \"fraction_decided\": {fraction:.6},");
    let _ = writeln!(json, "  \"analyze_arm_secs\": {analyze_secs:.4},");
    let _ = writeln!(json, "  \"solver_only_arm_secs\": {solver_secs:.4},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.2},");
    let _ = writeln!(json, "  \"gate_met\": {gate_met}");
    json.push_str("}\n");
    std::fs::write(&path, &json).expect("write BENCH_analyze.json");
    println!("wrote {}", path.display());
    if !gate_met {
        std::process::exit(1);
    }
}
