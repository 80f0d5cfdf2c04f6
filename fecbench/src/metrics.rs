//! The metric catalogue and the result line.
//!
//! Every name printed by the benchmark is declared here, once, with its
//! unit; `BENCHMARK.json` at the repository root lists the same names
//! (a test keeps the two in step). A run without tracing prints exactly
//! [`END_TO_END`]; a traced run prints exactly [`PER_LAYER`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric. Which direction is better, and the regression
/// bounds, live in `BENCHMARK.json` alone.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user sees, on every workload, with tracing off.
pub const END_TO_END: &[Metric] = &[
    // median of repeated set-ups (inputs made from the seed, pinned
    // checks), so work moved out of the timed passes still shows
    m("setup_s", "s"),
    // wall time of one pass over the workload's operations, each
    // operation at its fastest over the run's passes
    m("wall_s", "s"),
    // VmHWM at the end of the run: one workload per process
    m("peak_rss_mb", "MB"),
];

/// Per-layer numbers from one traced run. Counts and `_frac` shares
/// come from the workload's traced pass (zero on a workload that never
/// enters the layer); times in ns/us/ms, rates and the portfolio's
/// counts come from the layer probes, which run on fixed seed-made
/// inputs after every traced pass.
pub const PER_LAYER: &[Metric] = &[
    m("analyze.us_per_spec", "us"),
    m("analyze.refuted", "count"),
    m("core.cegis_iterations", "count"),
    m("core.cegis_iter_us", "us"),
    m("core.synth_frac", "fraction"),
    m("core.verify_frac", "fraction"),
    m("core.self_frac", "fraction"),
    m("core.spec_frac.m8", "fraction"),
    m("core.spec_frac.m7", "fraction"),
    m("core.spec_frac.m6", "fraction"),
    m("core.spec_frac.m5", "fraction"),
    m("core.spec_frac.m4", "fraction"),
    m("core.spec_frac.m3", "fraction"),
    m("core.spec_frac.m2", "fraction"),
    m("core.query_frac.8023df-md3", "fraction"),
    m("core.query_frac.8023df-md4", "fraction"),
    m("core.query_frac.crc16-k112", "fraction"),
    m("core.query_frac.crc24-k104", "fraction"),
    m("core.query_frac.crc32c-k96", "fraction"),
    m("smt.solve_calls", "count"),
    m("smt.self_frac", "fraction"),
    m("smt.enc.totalizer.vars", "count"),
    m("smt.enc.totalizer.clauses", "count"),
    m("smt.enc.xor.vars", "count"),
    m("smt.enc.xor.clauses", "count"),
    m("sat.conflicts", "count"),
    m("sat.propagations", "count"),
    m("sat.props_per_s", "1/s"),
    m("sat.conflicts_per_s", "1/s"),
    m("portfolio.dispatch_us.p50", "us"),
    m("portfolio.dispatch_us.p90", "us"),
    m("portfolio.conflicts", "count"),
    m("portfolio.winner_frac", "fraction"),
    m("portfolio.exported", "count"),
    m("portfolio.imported", "count"),
    m("portfolio.rejected", "count"),
    m("circuit.xors.8023df", "count"),
    m("circuit.xors.k4", "count"),
    m("circuit.encode_ns.8023df", "ns"),
    m("circuit.encode_ns.k4", "ns"),
    m("circuit.minimize_ms.8023df", "ms"),
    m("channel.bsc_ns_word", "ns"),
    m("channel.ge_ns_bit", "ns"),
    m("channel.interleave_ns_bit", "ns"),
    m("channel.self_frac", "fraction"),
    m("stream.packetize_ns_word", "ns"),
    m("stream.fountain_encode_ns_word", "ns"),
    m("stream.recover_ns_word", "ns"),
    m("stream.estimate_ns_word", "ns"),
    m("stream.depacketize_ns_word", "ns"),
    m("stream.run_ns_word", "ns"),
    m("stream.unattributed_frac", "fraction"),
    m("stream.erased_frames", "count"),
    m("stream.recovered_words", "count"),
    m("stream.lost_words", "count"),
    m("stream.corrupted_words", "count"),
    m("stream.self_frac", "fraction"),
    m("trace.overhead_frac", "fraction"),
    m("trace.records", "count"),
];

/// Measured values by metric name.
#[derive(Default, Debug)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one workload run, printed as the last stdout line.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Oracles aside, `false` when the traced run's JSONL was invalid.
    pub trace_valid: bool,
    pub catalogue: &'static [Metric],
    pub values: Values,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.trace_valid
    }

    /// The result as one JSON object, metrics in catalogue order.
    ///
    /// # Panics
    /// Panics if a catalogued metric has no value, or a value has no
    /// catalogue entry: both are bugs in the runner.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.catalogue.iter().enumerate() {
            let v = self
                .values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        for name in self.values.0.keys() {
            assert!(
                self.catalogue.iter().any(|m| m.name == name),
                "metric {name} is not in the catalogue"
            );
        }
        out.push_str("}}");
        out
    }
}
