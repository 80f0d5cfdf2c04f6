//! `fecsynth report`: post-run analysis of a `--trace-jsonl` stream.
//!
//! Replays the span tree recorded by `fec-trace` and attributes
//! wall-clock time to the pipeline's phases. Attribution works on
//! *self-time*: each span's duration minus the duration of its child
//! spans on the same thread, credited to the nearest enclosing span
//! whose name maps to a phase. The driver thread (the one carrying the
//! most top-level span time — the thread that blocks on solver calls)
//! yields the headline breakdown: its self-times partition the spans'
//! wall-clock exactly, so `synth + verify + proof-check + portfolio +
//! other + untraced == wall`. A portfolio solve's blocked wait on the
//! driver side lands in the `portfolio` phase, and the workers' busy
//! time shows up separately in the all-thread table.
//!
//! A traced `fecsynth stream` run also gets a stage table: the
//! self-time of each `stream.*` stage span and of `stream.run` itself
//! (the glue between stages), as shares of the `stream.run` total.
//!
//! Also summarized: idle time of portfolio workers after they finish
//! while the slowest worker of the same query is still running (the
//! diagnosable half of a sub-1.0× speedup), and the watchdog's
//! progress/stall telemetry.

use fec_trace::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{fail, has_flag, usage};

/// Phase names, in report order. `other` and `untraced` are appended
/// by the renderers.
const PHASES: [&str; 4] = ["synth", "verify", "proof-check", "portfolio"];

/// The stream pipeline's stage spans, children of `stream.run`, in
/// datapath order.
pub const STREAM_STAGES: [&str; 6] = [
    "stream.packetize",
    "stream.encode",
    "stream.channel",
    "stream.decode",
    "stream.estimate",
    "stream.deliver",
];

/// The stage spans, then `stream.run` itself (its self-time is the
/// glue between stages).
fn stream_spans() -> impl Iterator<Item = &'static str> {
    STREAM_STAGES.into_iter().chain(["stream.run"])
}

/// Maps a span name to its phase. Unmapped spans inherit the nearest
/// mapped ancestor's phase; with no mapped ancestor they count as
/// `other` (traced but unattributed).
fn phase_of(name: &str) -> Option<&'static str> {
    if name.starts_with("cegis.synth") {
        Some("synth")
    } else if name.starts_with("cegis.verify") || name.starts_with("verify.") {
        Some("verify")
    } else if name.starts_with("drat.") || name.starts_with("cert.") {
        Some("proof-check")
    } else if name.starts_with("portfolio.") {
        Some("portfolio")
    } else {
        None
    }
}

/// One still-open span on a thread's stack.
struct Open {
    name: String,
    /// Accumulated duration of direct children (subtracted for self-time).
    child_us: u64,
    /// Own phase, or the phase inherited from the nearest mapped ancestor.
    phase: Option<&'static str>,
}

/// Everything the renderers need, extracted in one pass.
#[derive(Default)]
pub struct RunReport {
    pub records: u64,
    pub threads: usize,
    pub wall_us: u64,
    pub driver_tid: u64,
    /// Driver-thread self-time per phase (plus `other`).
    pub driver_self_us: BTreeMap<&'static str, u64>,
    /// Self-time per phase summed over every thread.
    pub busy_self_us: BTreeMap<&'static str, u64>,
    /// Self-time of each stream stage span and of `stream.run`, over
    /// every thread (empty when the trace holds no stream run).
    pub stream_self_us: BTreeMap<&'static str, u64>,
    /// Summed duration of the `stream.run` spans.
    pub stream_run_us: u64,
    pub worker_spans: u64,
    pub portfolio_idle_us: u64,
    pub heartbeats: u64,
    pub stall_events: u64,
    pub max_stall_ms: u64,
}

impl RunReport {
    /// Driver self-time attributed to a *named* phase (excludes `other`).
    pub fn attributed_us(&self) -> u64 {
        total(PHASES.iter().filter_map(|p| self.driver_self_us.get(p)))
    }

    /// Driver wall-clock not covered by any span.
    pub fn untraced_us(&self) -> u64 {
        let traced = total(self.driver_self_us.values());
        self.wall_us.saturating_sub(traced)
    }
}

/// Builds the report from validated JSONL text. Records are processed
/// in file order, which is the collector's dispatch order (sinks are
/// serialized behind one lock), so per-thread begin/end nesting is
/// well-formed.
pub fn analyze(text: &str) -> RunReport {
    let mut r = RunReport::default();
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    // per-tid: phase -> self us ("other" key for unmapped), and total
    // top-level span time (driver election)
    let mut self_us: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut top_us: BTreeMap<u64, u64> = BTreeMap::new();
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;
    // (begin, end) intervals for worker-idle accounting
    let mut solves: Vec<(u64, u64)> = Vec::new();
    let mut workers: Vec<(u64, u64)> = Vec::new();

    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = parse_json(line) else { continue };
        let num = |k: &str| v.get(k).and_then(Json::as_num);
        let (Some(ts), Some(tid), Some(kind), Some(name)) = (
            num("ts_us"),
            num("tid"),
            v.get("kind").and_then(Json::as_str),
            v.get("name").and_then(Json::as_str),
        ) else {
            continue;
        };
        let (ts, tid) = (ts as u64, tid as u64);
        r.records += 1;
        min_ts = min_ts.min(ts);
        max_ts = max_ts.max(ts);
        let stack = stacks.entry(tid).or_default();
        match kind {
            "begin" => {
                let inherited = phase_of(name).or_else(|| stack.last().and_then(|o| o.phase));
                stack.push(Open {
                    name: name.to_string(),
                    child_us: 0,
                    phase: inherited,
                });
            }
            "end" => {
                let dur = num("dur_us").unwrap_or(0.0) as u64;
                // tolerate truncated traces: only pop a matching open
                if stack.last().is_some_and(|o| o.name == name) {
                    let open = stack.pop().expect("just checked");
                    let self_time = dur.saturating_sub(open.child_us);
                    let phase = open.phase.unwrap_or("other");
                    add(
                        self_us.entry(tid).or_default().entry(phase).or_default(),
                        self_time,
                    );
                    match stack.last_mut() {
                        Some(parent) => add(&mut parent.child_us, dur),
                        None => add(top_us.entry(tid).or_default(), dur),
                    }
                    if let Some(stage) = stream_spans().find(|&s| s == name) {
                        add(r.stream_self_us.entry(stage).or_default(), self_time);
                        if stage == "stream.run" {
                            add(&mut r.stream_run_us, dur);
                        }
                    }
                }
                if name == "portfolio.pool.solve" {
                    solves.push((ts.saturating_sub(dur), ts));
                } else if name == "portfolio.pool.worker" {
                    r.worker_spans += 1;
                    workers.push((ts.saturating_sub(dur), ts));
                }
            }
            "progress" => {
                r.heartbeats += 1;
                if let Some(ms) = v
                    .get("fields")
                    .and_then(|f| f.get("stall_ms"))
                    .and_then(Json::as_num)
                {
                    r.max_stall_ms = r.max_stall_ms.max(ms as u64);
                }
            }
            "event" if name == "progress.stall" => r.stall_events += 1,
            _ => {}
        }
    }

    r.threads = stacks.len();
    r.wall_us = max_ts.saturating_sub(if min_ts == u64::MAX { 0 } else { min_ts });
    // the driver is the thread that spends the most time inside
    // top-level spans — the one sequencing solver queries
    r.driver_tid = top_us
        .iter()
        .max_by_key(|(_, &us)| us)
        .map_or(0, |(&tid, _)| tid);
    r.driver_self_us = self_us.remove(&r.driver_tid).unwrap_or_default();
    for per_tid in std::iter::once(&r.driver_self_us).chain(self_us.values()) {
        for (&phase, &us) in per_tid {
            add(r.busy_self_us.entry(phase).or_default(), us);
        }
    }
    // a worker that finishes early idles until its query's slowest
    // worker releases the portfolio.pool.solve span
    for &(wb, we) in &workers {
        if let Some(&(_, se)) = solves.iter().find(|&&(sb, se)| sb <= wb && wb <= se) {
            add(&mut r.portfolio_idle_us, se.saturating_sub(we));
        }
    }
    r
}

/// Microsecond totals saturate: a corrupt `dur_us` or `ts_us` (a JSON
/// number past `u64::MAX` reads as `u64::MAX`) must not overflow.
fn add(acc: &mut u64, us: u64) {
    *acc = acc.saturating_add(us);
}

fn total<'a>(us: impl Iterator<Item = &'a u64>) -> u64 {
    us.fold(0, |acc, &x| acc.saturating_add(x))
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the human-readable report.
pub fn render_text(r: &RunReport, path: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "report: {path} — {} records, {} threads, wall {:.3} s",
        r.records,
        r.threads,
        secs(r.wall_us)
    );
    let _ = writeln!(
        out,
        "driver-thread phase attribution (tid {}, self-time):",
        r.driver_tid
    );
    let row = |out: &mut String, name: &str, us: u64, wall: u64| {
        let _ = writeln!(
            out,
            "  {name:<12} {:>10.3} s  {:>5.1}%",
            secs(us),
            pct(us, wall)
        );
    };
    for phase in PHASES {
        row(
            &mut out,
            phase,
            r.driver_self_us.get(phase).copied().unwrap_or(0),
            r.wall_us,
        );
    }
    row(
        &mut out,
        "other",
        r.driver_self_us.get("other").copied().unwrap_or(0),
        r.wall_us,
    );
    row(&mut out, "untraced", r.untraced_us(), r.wall_us);
    let attributed = r.attributed_us();
    let _ = writeln!(
        out,
        "  attributed to named phases: {:.3} s ({:.1}% of wall)",
        secs(attributed),
        pct(attributed, r.wall_us)
    );
    let busy = total(r.busy_self_us.values());
    if busy > 0 {
        let _ = writeln!(out, "all-thread busy self-time:");
        for phase in PHASES.iter().copied().chain(["other"]) {
            if let Some(&us) = r.busy_self_us.get(phase) {
                if us > 0 {
                    let _ = writeln!(out, "  {phase:<12} {:>10.3} s", secs(us));
                }
            }
        }
    }
    if r.stream_run_us > 0 {
        let _ = writeln!(
            out,
            "stream stages (self-time, share of {:.3} s in stream.run):",
            secs(r.stream_run_us)
        );
        for stage in stream_spans() {
            let label = if stage == "stream.run" {
                "stream.run (glue)"
            } else {
                stage
            };
            let us = r.stream_self_us.get(stage).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "  {label:<18} {:>10.3} s  {:>5.1}%",
                secs(us),
                pct(us, r.stream_run_us)
            );
        }
    }
    if r.worker_spans > 0 {
        let _ = writeln!(
            out,
            "portfolio: {} worker spans, {:.3} s idle after finishing (losers waiting on the winner)",
            r.worker_spans,
            secs(r.portfolio_idle_us)
        );
    }
    if r.heartbeats > 0 || r.stall_events > 0 {
        let _ = writeln!(
            out,
            "progress: {} heartbeats, {} stall episode(s), max observed stall {} ms",
            r.heartbeats, r.stall_events, r.max_stall_ms
        );
    }
    out
}

/// Renders the same breakdown as one JSON object.
pub fn render_json(r: &RunReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"records\": {}, \"threads\": {}, \"wall_us\": {}, \"driver_tid\": {},\n",
        r.records, r.threads, r.wall_us, r.driver_tid
    );
    let map =
        |out: &mut String, key: &str, m: &BTreeMap<&'static str, u64>, untraced: Option<u64>| {
            let _ = write!(out, "  \"{key}\": {{");
            let mut first = true;
            for phase in PHASES.iter().copied().chain(["other"]) {
                let us = m.get(phase).copied().unwrap_or(0);
                let _ = write!(out, "{}\"{phase}\": {us}", if first { "" } else { ", " });
                first = false;
            }
            if let Some(us) = untraced {
                let _ = write!(out, ", \"untraced\": {us}");
            }
            let _ = writeln!(out, "}},");
        };
    map(
        &mut out,
        "driver_self_us",
        &r.driver_self_us,
        Some(r.untraced_us()),
    );
    map(&mut out, "busy_self_us", &r.busy_self_us, None);
    let attributed = r.attributed_us();
    let _ = writeln!(
        out,
        "  \"attributed_us\": {attributed}, \"attributed_fraction\": {:.4},",
        if r.wall_us == 0 {
            0.0
        } else {
            attributed as f64 / r.wall_us as f64
        }
    );
    let _ = write!(
        out,
        "  \"stream\": {{\"run_us\": {}, \"self_us\": {{",
        r.stream_run_us
    );
    for (i, stage) in stream_spans().enumerate() {
        let us = r.stream_self_us.get(stage).copied().unwrap_or(0);
        let _ = write!(out, "{}\"{stage}\": {us}", if i == 0 { "" } else { ", " });
    }
    let _ = writeln!(out, "}}}},");
    let _ = writeln!(
        out,
        "  \"portfolio\": {{\"worker_spans\": {}, \"idle_us\": {}}},",
        r.worker_spans, r.portfolio_idle_us
    );
    let _ = writeln!(
        out,
        "  \"progress\": {{\"heartbeats\": {}, \"stall_events\": {}, \"max_stall_ms\": {}}}",
        r.heartbeats, r.stall_events, r.max_stall_ms
    );
    out.push_str("}\n");
    out
}

/// `fecsynth report <trace.jsonl> [--json]`.
pub fn cmd_report(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let Some(path) = args.get(1).filter(|s| !s.starts_with("--")) else {
        return usage(err, "report: missing <trace.jsonl> argument");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return usage(err, &format!("cannot read {path:?}: {e}")),
    };
    if let Err(e) = fec_trace::validate_jsonl(&text) {
        fail(err, "schema", &e);
        return 1;
    }
    let r = analyze(&text);
    if has_flag(args, "json") {
        out.push_str(&render_json(&r));
    } else {
        out.push_str(&render_text(&r, path));
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ts: u64, tid: u64, kind: &str, name: &str, dur: Option<u64>) -> String {
        let extra = dur.map_or(String::new(), |d| format!(", \"dur_us\": {d}"));
        format!(
            "{{\"ts_us\": {ts}, \"tid\": {tid}, \"level\": \"info\", \"kind\": \"{kind}\", \"name\": \"{name}\"{extra}}}\n"
        )
    }

    #[test]
    fn self_time_attribution_partitions_wall() {
        // driver (tid 0): verify.query [0, 1000] containing
        // drat.check [100, 300] and portfolio.pool.solve [400, 900];
        // worker (tid 1): portfolio.pool.worker [410, 700]
        let mut t = String::new();
        t += &line(0, 0, "begin", "verify.query", None);
        t += &line(100, 0, "begin", "drat.check", None);
        t += &line(300, 0, "end", "drat.check", Some(200));
        t += &line(400, 0, "begin", "portfolio.pool.solve", None);
        t += &line(410, 1, "begin", "portfolio.pool.worker", None);
        t += &line(700, 1, "end", "portfolio.pool.worker", Some(290));
        t += &line(900, 0, "end", "portfolio.pool.solve", Some(500));
        t += &line(1000, 0, "end", "verify.query", Some(1000));
        let r = analyze(&t);
        assert_eq!(r.wall_us, 1000);
        assert_eq!(r.driver_tid, 0);
        assert_eq!(r.driver_self_us["verify"], 300); // 1000 - 200 - 500
        assert_eq!(r.driver_self_us["proof-check"], 200);
        assert_eq!(r.driver_self_us["portfolio"], 500);
        assert_eq!(r.untraced_us(), 0);
        assert_eq!(r.attributed_us(), 1000);
        assert_eq!(r.worker_spans, 1);
        // worker finished at 700, solve released at 900
        assert_eq!(r.portfolio_idle_us, 200);
        assert_eq!(r.busy_self_us["portfolio"], 500 + 290);
    }

    #[test]
    fn unmapped_spans_inherit_nearest_mapped_ancestor() {
        let mut t = String::new();
        t += &line(0, 0, "begin", "cegis.run", None);
        t += &line(0, 0, "begin", "cegis.synth", None);
        t += &line(10, 0, "begin", "smt.solve", None);
        t += &line(500, 0, "end", "smt.solve", Some(490));
        t += &line(500, 0, "end", "cegis.synth", Some(500));
        t += &line(600, 0, "end", "cegis.run", Some(600));
        let r = analyze(&t);
        // smt.solve has no phase of its own but sits under cegis.synth
        assert_eq!(r.driver_self_us["synth"], 500);
        assert_eq!(r.driver_self_us["other"], 100); // cegis.run self
        assert_eq!(r.attributed_us(), 500);
    }

    #[test]
    fn stream_stages_get_self_time_and_shares() {
        // stream.run [0, 1000] with packetize [0, 100] and channel
        // [100, 700]; the other 300 us are glue
        let mut t = String::new();
        t += &line(0, 0, "begin", "stream.run", None);
        t += &line(0, 0, "begin", "stream.packetize", None);
        t += &line(100, 0, "end", "stream.packetize", Some(100));
        t += &line(100, 0, "begin", "stream.channel", None);
        t += &line(700, 0, "end", "stream.channel", Some(600));
        t += &line(1000, 0, "end", "stream.run", Some(1000));
        let r = analyze(&t);
        assert_eq!(r.stream_run_us, 1000);
        assert_eq!(r.stream_self_us["stream.packetize"], 100);
        assert_eq!(r.stream_self_us["stream.channel"], 600);
        assert_eq!(r.stream_self_us["stream.run"], 300);
        let text = render_text(&r, "t.jsonl");
        assert!(text.contains("stream.channel"), "{text}");
        assert!(text.contains("60.0%"), "{text}");
        let json = fec_trace::parse_json(&render_json(&r)).expect("report JSON parses");
        let stream = json.get("stream").expect("stream section");
        assert_eq!(stream.get("run_us").and_then(Json::as_num), Some(1000.0));
    }

    #[test]
    fn huge_durations_saturate_instead_of_overflowing() {
        let mut t = String::new();
        t += &line(0, 0, "begin", "cegis.run", None);
        t += &line(1, 0, "begin", "cegis.synth", None);
        t += &line(2, 0, "end", "cegis.synth", Some(u64::MAX));
        t += &line(3, 0, "begin", "cegis.verify", None);
        t += &line(4, 0, "end", "cegis.verify", Some(u64::MAX));
        t += &line(5, 0, "end", "cegis.run", Some(u64::MAX));
        let r = analyze(&t);
        assert_eq!(r.attributed_us(), u64::MAX);
        assert!(render_text(&r, "t.jsonl").contains("synth"));
        fec_trace::parse_json(&render_json(&r)).expect("report JSON parses");
    }

    #[test]
    fn progress_and_stall_records_are_summarized() {
        let mut t = String::new();
        t += "{\"ts_us\": 5, \"tid\": 2, \"level\": \"info\", \"kind\": \"progress\", \"name\": \"progress\", \"fields\": {\"stalled\": false, \"stall_ms\": 0}}\n";
        t += "{\"ts_us\": 9, \"tid\": 2, \"level\": \"warn\", \"kind\": \"event\", \"name\": \"progress.stall\", \"fields\": {\"idle_ms\": 31}}\n";
        t += "{\"ts_us\": 12, \"tid\": 2, \"level\": \"info\", \"kind\": \"progress\", \"name\": \"progress\", \"fields\": {\"stalled\": true, \"stall_ms\": 34}}\n";
        let r = analyze(&t);
        assert_eq!(r.heartbeats, 2);
        assert_eq!(r.stall_events, 1);
        assert_eq!(r.max_stall_ms, 34);
        let json = render_json(&r);
        fec_trace::parse_json(&json).expect("report JSON parses");
    }
}
