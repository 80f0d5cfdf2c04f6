//! Observability overhead budget: tracing must be free when disabled.
//!
//! Two measurements, printed to stdout:
//!
//! 1. **Disabled bound** (the gate): every instrumentation site hides
//!    behind one relaxed `AtomicU8` load (`fec_trace::enabled`). We
//!    microbenchmark that guard, conservatively over-count how many
//!    times the §4.1 verification workload could evaluate it (every
//!    conflict, restart, and solver call), and bound the disabled-mode
//!    overhead as `guard_cost × visits / runtime`. The bench **fails**
//!    if that bound reaches 2%.
//! 2. **Enabled cost** (context only): the same workload A/B-ed with a
//!    full-level collector draining into in-memory sinks, to show
//!    what turning tracing on actually costs. Not gated — it
//!    legitimately pays for formatting and sink I/O.
//!
//! ```text
//! cargo bench -p fec-bench --bench trace_overhead
//! ```

use fec_hamming::standards;
use fec_smt::Budget;
use fec_synth::verify::{verify_min_distance_at_least_with, VerifyOptions, VerifyOutcome};
use fec_trace::test_support::SharedBuf;
use fec_trace::{Level, TraceConfig};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;
const GUARD_CALLS: u64 = 50_000_000;
const BUDGET_PCT: f64 = 2.0;

fn median_workload_secs() -> (f64, fec_synth::verify::VerifyStats) {
    let g = standards::ieee_8023df_128_120();
    let opts = VerifyOptions {
        budget: Budget::unlimited(),
        ..VerifyOptions::default()
    };
    let mut secs = Vec::with_capacity(REPS);
    let mut stats = fec_synth::verify::VerifyStats::default();
    for _ in 0..REPS {
        let t = Instant::now();
        let (outcome, s) = verify_min_distance_at_least_with(&g, 3, opts);
        secs.push(t.elapsed().as_secs_f64());
        assert_eq!(outcome, VerifyOutcome::Holds, "workload verdict changed");
        stats = s;
    }
    secs.sort_by(|a, b| a.total_cmp(b));
    (secs[REPS / 2], stats)
}

fn main() {
    println!(
        "trace overhead budget: guard cost with tracing disabled must stay under {BUDGET_PCT}%"
    );
    assert!(
        !fec_trace::is_installed(),
        "bench must start with tracing disabled"
    );

    // -- 1. the gated bound: disabled-guard microbenchmark ------------
    let t = Instant::now();
    let mut hits = 0u64;
    for _ in 0..GUARD_CALLS {
        if black_box(fec_trace::enabled(black_box(Level::Debug))) {
            hits += 1;
        }
    }
    let guard_total = t.elapsed().as_secs_f64();
    assert_eq!(
        hits, 0,
        "collector must stay uninstalled during the microbench"
    );
    let guard_ns = guard_total / GUARD_CALLS as f64 * 1e9;
    println!("  disabled guard: {guard_ns:.3} ns/call over {GUARD_CALLS} calls");

    let (disabled_secs, stats) = median_workload_secs();
    println!("  workload (802.3df md ≥ 3, tracing off): {disabled_secs:.3} s");

    // Conservative over-count of guard evaluations in that run: the
    // SAT hot loop consults the guard at most twice per conflict (LBD
    // record + export filter), the restart boundary adds the progress
    // advance tick, two gauges, and up to 17 histogram delta flushes
    // (restarts ≤ conflicts, so fold them in as two more per-conflict
    // visits plus a 32-per-restart-worth allowance inside the 96
    // per-call term); everything outside the hot loop is O(1) per
    // solver call with a generous allowance for encode/verify/CEGIS
    // spans, CEGIS iteration hist/event, and portfolio import/export
    // instrumentation.
    let visits = stats.conflicts * 4 + stats.solve_calls * 96 + 1_000;
    let disabled_pct = visits as f64 * (guard_ns / 1e9) / disabled_secs * 100.0;
    println!("  bound: {visits} guard visits × {guard_ns:.3} ns = {disabled_pct:.4}% of runtime");

    // -- 2. context: the same workload with tracing fully on ----------
    let jsonl = SharedBuf::default();
    fec_trace::install(TraceConfig::new(Level::Off).jsonl_writer(Box::new(jsonl.clone())));
    let (enabled_secs, _) = median_workload_secs();
    fec_trace::shutdown();
    let enabled_pct = (enabled_secs / disabled_secs - 1.0) * 100.0;
    println!(
        "  workload (tracing on, in-memory JSONL sink): {enabled_secs:.3} s ({enabled_pct:+.2}% vs off, {} bytes emitted)",
        jsonl.len()
    );

    assert!(
        disabled_pct < BUDGET_PCT,
        "disabled-mode tracing overhead bound {disabled_pct:.4}% exceeds the {BUDGET_PCT}% budget"
    );
}
