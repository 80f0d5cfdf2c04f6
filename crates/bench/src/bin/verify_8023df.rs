//! §4.1: formally verify the 802.3df-shape (128,120) Hamming code.
//!
//! The paper verifies (a) that the code has minimum distance 3
//! (14.40 s on their machine) and (b) that it does NOT have minimum
//! distance 4 (122.58 s). Absolute times differ on our solver and
//! hardware; the verdicts are what is reproduced.
//!
//! ```text
//! cargo run -p fec-bench --release --bin verify_8023df \
//!     [-- --check-proofs] [-- --jobs N]
//! ```
//!
//! With `--check-proofs`, every UNSAT answer is certified by the
//! independent `fec-drat` RUP checker and every SAT model is replayed
//! against the input clauses; the run aborts on any discrepancy.
//! With `--jobs N`, every query races N diversified portfolio workers
//! (certification then applies to the winning worker's proof).
//!
//! Observability (any flag enables the fec-trace collector):
//! `--trace LEVEL` logs spans/events on stderr, `--trace-out PATH`
//! writes a Chrome trace_event JSON for Perfetto/about:tracing,
//! `--trace-jsonl PATH` a raw JSONL event stream, and
//! `--metrics-out PATH` the aggregated end-of-run report.

use fec_cli::Arity::{Bare, Value};
use fec_hamming::standards;
use fec_smt::Budget;
use fec_synth::verify::{verify_min_distance_exact_with, VerifyOptions, VerifyOutcome};

fn main() {
    fec_bench::check_flags(&[("check-proofs", Bare), ("jobs", Value)]);
    let args: Vec<String> = std::env::args().skip(1).collect();
    // the fecsynth flag rules: a bad --jobs or an unwritable trace
    // path is a usage error (exit 2)
    let parsed =
        fec_cli::parse_jobs(&args).and_then(|jobs| Ok((jobs, fec_cli::setup_trace(&args)?)));
    let (jobs, traced) = parsed.unwrap_or_else(|e| fec_bench::usage_exit(&e));
    let check_proofs = fec_cli::has_flag(&args, "check-proofs");
    let opts = VerifyOptions {
        budget: Budget::unlimited(),
        check_certificates: check_proofs,
        jobs,
    };
    let g = standards::ieee_8023df_128_120();
    println!(
        "verifying the (128,120) inner Hamming code (k={}, c={}, {} coefficient ones){}{}",
        g.data_len(),
        g.check_len(),
        g.coefficient_ones(),
        if check_proofs {
            " with proof checking"
        } else {
            ""
        },
        if jobs > 1 {
            format!(", {jobs}-worker portfolio")
        } else {
            String::new()
        }
    );

    let (outcome, stats) = verify_min_distance_exact_with(&g, 3, opts);
    println!(
        "md(G) = 3: {}  [{:.2} s, {} conflicts, {} solver calls]",
        verdict(&outcome),
        stats.elapsed.as_secs_f64(),
        stats.conflicts,
        stats.solve_calls
    );
    if check_proofs {
        print_certificates(&stats);
    }
    print_portfolio(&stats);
    assert_eq!(outcome, VerifyOutcome::Holds, "the code must have md 3");

    let (outcome, stats) = verify_min_distance_exact_with(&g, 4, opts);
    println!(
        "md(G) = 4: {}  [{:.2} s, {} conflicts, {} solver calls]",
        verdict(&outcome),
        stats.elapsed.as_secs_f64(),
        stats.conflicts,
        stats.solve_calls
    );
    if check_proofs {
        print_certificates(&stats);
    }
    print_portfolio(&stats);
    assert!(
        matches!(outcome, VerifyOutcome::Fails { .. }),
        "the negated property must fail"
    );
    if let VerifyOutcome::Fails { witness: Some(x) } = outcome {
        let w = g.encode(&x);
        println!(
            "  counterexample: data word of weight {} gives a codeword of weight {}",
            x.count_ones(),
            w.count_ones()
        );
    }
    println!(
        "paper: md=3 verified in 14.40 s; ¬(md=4) verified in 122.58 s (Z3 4.8.11, i9-10900K)"
    );
    if traced {
        if let Some(report) = fec_trace::shutdown() {
            print!("{}", report.render_text());
        }
    }
}

fn print_certificates(stats: &fec_synth::verify::VerifyStats) {
    println!(
        "  certificates: {} lemmas RUP-checked, {} models validated, {} UNSAT answers certified",
        stats.lemmas_checked, stats.models_validated, stats.unsat_certified
    );
}

fn print_portfolio(stats: &fec_synth::verify::VerifyStats) {
    for (qi, p) in stats.portfolio.iter().enumerate() {
        let winner = p
            .winner
            .map_or("none".to_string(), |w| format!("worker {w}"));
        println!(
            "  portfolio query {qi}: {} workers, winner {winner}, per-worker conflicts {:?}, \
             {} exported / {} imported / {} rejected clauses",
            p.workers, p.per_worker_conflicts, p.exported, p.imported, p.rejected
        );
    }
}

fn verdict(o: &VerifyOutcome) -> &'static str {
    match o {
        VerifyOutcome::Holds => "HOLDS",
        VerifyOutcome::Fails { .. } => "FAILS",
        VerifyOutcome::Unknown => "UNKNOWN",
    }
}
