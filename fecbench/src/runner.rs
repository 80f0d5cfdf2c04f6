//! One workload run: an untimed warm-up pass for throughput workloads,
//! then timed passes until the run's time is used, each pass preceded
//! by a batch of set-ups; with tracing, one more pass traced and the
//! layer probes.

use crate::metrics::{RunResult, Values, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::traced::{self, Traced};
use crate::workload::{run_pass, setup, Inputs, Pass, Workload};
use crate::{probe, stats};
use fec_stream::StreamStats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Settings {
    pub seed: u64,
    /// Time the set-ups, the warm-up and the timed passes may take, in
    /// seconds.
    pub seconds: u64,
    pub traced: bool,
    /// Shrunken inputs and one timed pass, for the test suite.
    pub quick: bool,
}

/// A set-up batch repeats set-up until it has run at least this often
/// and this long, so a set-up of microseconds still yields a steady
/// median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BATCH_TIME: Duration = Duration::from_millis(20);
const SETUP_MAX_REPS: usize = 400;

/// Runs one batch of set-ups, recording each one's time, and returns
/// the inputs of the last. A batch precedes every pass, so the samples
/// span the run as the passes do and a slow second of the host weighs
/// no more on `setup_s` than on `wall_s`.
fn setup_batch(w: Workload, s: &Settings, samples: &mut Vec<f64>) -> Result<Inputs, String> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let inputs = setup(w, s.seed, s.quick)?;
        samples.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_MAX_REPS || (reps >= SETUP_MIN_REPS && start.elapsed() >= SETUP_BATCH_TIME)
        {
            return Ok(inputs);
        }
    }
}

pub fn run(w: Workload, s: &Settings) -> Result<RunResult, String> {
    // the run's time covers set-ups, the warm-up and the timed passes
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut inputs = setup_batch(w, s, &mut setup_s)?;
    let mut tally = Tally::default();
    let reference = w
        .warms_up()
        .then(|| tally.add(run_pass(w, &inputs, None)).counts.stream);

    let budget = Duration::from_secs(s.seconds) / if s.traced { 2 } else { 1 };
    // in a traced run the untraced passes only serve as the baseline
    // of trace.overhead_frac
    let min_passes = if s.quick || s.traced { 1 } else { 2 };
    let mut passes = Vec::new();
    let mut busy = Vec::new();
    loop {
        let pass = tally.add(run_pass(w, &inputs, reference.as_deref()));
        busy.push(pass.busy_s());
        passes.push(pass);
        // start another pass only if it should end within the budget
        let next_ends = start.elapsed().as_secs_f64() + median(&busy);
        if passes.len() >= min_passes && next_ends > budget.as_secs_f64() {
            break;
        }
        inputs = setup_batch(w, s, &mut setup_s)?;
    }
    let wall_s = undisturbed_pass_s(&passes);
    eprintln!(
        "fecbench: {} seed {}: timed passes {:.4?} s (spread {:.2}%), wall_s {:.4} s, set-up median {:.6} s over {} reps",
        w.name(),
        s.seed,
        busy,
        100.0 * stats::iqr_share(&busy),
        wall_s,
        median(&setup_s),
        setup_s.len()
    );

    let mut values = Values::default();
    if !s.traced {
        values.set("setup_s", median(&setup_s));
        values.set("wall_s", wall_s);
        values.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(tally.result(END_TO_END, values, true));
    }

    let jsonl = trace_dir().join(format!("{}.jsonl", w.name()));
    let traced = traced::run(w, &inputs, reference.as_deref(), &jsonl)?;
    eprintln!(
        "fecbench: traced pass {:.4} s, {} records in {}",
        traced.pass.busy_s(),
        traced.records,
        jsonl.display()
    );
    layer_values(&traced, wall_s, &mut values);
    probe::run(s.seed, s.quick, &mut values);
    let valid = traced.attribution.is_some();
    tally.add(traced.pass);
    Ok(tally.result(PER_LAYER, values, valid))
}

/// The time of a pass the host did not slow: each operation's fastest
/// time over the timed passes, summed. Every operation is deterministic
/// single-threaded work for its seed, so time above its fastest run is
/// the host's; shared 2-vCPU virtual machines slow a run by 1.2–1.9× in
/// spells of seconds to minutes, and the per-operation minimum spreads
/// less from run to run than the per-operation median (see the README).
fn undisturbed_pass_s(passes: &[Pass]) -> f64 {
    let ops = passes[0].op_s.len();
    (0..ops)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.op_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Operations attempted and failed over every pass of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, pass: Pass) -> Pass {
        self.attempted += pass.op_s.len() as u64;
        self.failed += pass.failed;
        pass
    }

    fn result(
        &self,
        catalogue: &'static [crate::metrics::Metric],
        values: Values,
        trace_valid: bool,
    ) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            trace_valid,
            catalogue,
            values,
        }
    }
}

/// Per-layer values read from the traced pass: the program's own
/// counts, the trace's counters and span totals, and self-time shares.
fn layer_values(t: &Traced, untraced_wall_s: f64, out: &mut Values) {
    let c = &t.pass.counts;
    let wall_us = t.wall.as_secs_f64() * 1e6;
    let share = |us: f64| us / wall_us;
    let counter = |name: &str| t.report.counters.get(name).copied().unwrap_or(0) as f64;
    let span_total = |name: &str| t.report.spans.get(name).map_or(0, |s| s.total_us) as f64;

    out.set("analyze.refuted", c.refuted as f64);
    out.set("core.cegis_iterations", c.cegis_iterations as f64);
    out.set("core.synth_frac", share(span_total("cegis.synth")));
    out.set("core.verify_frac", share(span_total("cegis.verify")));
    out.set(
        "smt.solve_calls",
        t.report.spans.get("smt.solve").map_or(0, |s| s.count) as f64,
    );
    for family in ["totalizer", "xor"] {
        for what in ["vars", "clauses"] {
            let name = format!("smt.enc.{family}.{what}");
            out.set(name.clone(), counter(&name));
        }
    }
    out.set("sat.conflicts", c.conflicts as f64);
    out.set("sat.propagations", c.propagations as f64);
    let stream_total = |f: fn(&StreamStats) -> u64| c.stream.iter().map(f).sum::<u64>() as f64;
    out.set("stream.erased_frames", stream_total(|s| s.erased_frames));
    out.set(
        "stream.recovered_words",
        stream_total(|s| s.recovered_words),
    );
    out.set("stream.lost_words", stream_total(|s| s.lost_words));
    out.set(
        "stream.corrupted_words",
        stream_total(|s| s.corrupted_words),
    );
    out.set(
        "trace.overhead_frac",
        t.pass.busy_s() / untraced_wall_s - 1.0,
    );
    out.set("trace.records", t.records as f64);

    let a = t.attribution.as_ref();
    let self_us = |layer: &str| a.and_then(|a| a.self_us.get(layer)).copied().unwrap_or(0) as f64;
    for layer in ["core", "smt", "channel", "stream"] {
        out.set(format!("{layer}.self_frac"), share(self_us(layer)));
    }
    let op_us = |op: &str| a.and_then(|a| a.op_us.get(op)).copied().unwrap_or(0) as f64;
    for md in 2..=8 {
        out.set(
            format!("core.spec_frac.m{md}"),
            share(op_us(&format!("m{md}"))),
        );
    }
    for q in [
        "8023df-md3",
        "8023df-md4",
        "crc16-k112",
        "crc24-k104",
        "crc32c-k96",
    ] {
        out.set(format!("core.query_frac.{q}"), share(op_us(q)));
    }
}

/// Where traced runs write their JSONL: the cargo target directory the
/// benchmark was built into.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("fecbench")
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, shrunk: every oracle passes. One traced run
    /// prints exactly the per-layer catalogue and a valid trace. Kept
    /// in one test because tracing is process-global.
    #[test]
    fn quick_pass_of_every_workload_is_correct() {
        for w in Workload::ALL {
            let s = Settings {
                seed: 3,
                seconds: 1,
                traced: false,
                quick: true,
            };
            let r = run(w, &s).expect("run");
            assert!(r.attempted > 0, "{}", w.name());
            assert_eq!(r.failed, 0, "{}", w.name());
            assert!(r.correct());
            let line = r.to_json();
            assert!(fec_trace::parse_json(&line).is_ok(), "{line}");
        }
        let s = Settings {
            seed: 3,
            seconds: 1,
            traced: true,
            quick: true,
        };
        let r = run(Workload::VerifyCrc, &s).expect("traced run");
        assert!(r.correct(), "traced run");
        assert!(r.values.get("trace.records").expect("records") > 0.0);
        assert!(r.values.get("portfolio.conflicts").expect("conflicts") > 0.0);
        r.to_json();
    }
}
