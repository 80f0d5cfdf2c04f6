//! The traced pass: one extra pass with fec-trace installed, its JSONL
//! written to disk, validated, and reduced to per-layer self times.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Only the thread that runs the operations is attributed.

use crate::workload::{run_pass, Inputs, Pass, Workload};
use fec_stream::StreamStats;
use fec_trace::{parse_json, validate_jsonl, Json, Level, MetricsReport, TraceConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Traced {
    pub pass: Pass,
    /// Wall time of the whole traced pass, oracles included: the base
    /// every `_frac` share is taken of.
    pub wall: Duration,
    pub report: MetricsReport,
    pub records: u64,
    /// `None` when the JSONL failed validation (the message is printed).
    pub attribution: Option<Attribution>,
}

#[derive(Default, Debug)]
pub struct Attribution {
    /// Self time per layer on the operations' thread, microseconds.
    pub self_us: BTreeMap<String, u64>,
    /// `bench.op` span time per operation name, microseconds.
    pub op_us: BTreeMap<String, u64>,
}

/// The layer a span belongs to: the program's span prefixes, and the
/// benchmark's own `bench.stage.<layer>` spans around calls into
/// layers that have no spans of their own.
fn layer_of(span: &str) -> &str {
    if let Some(layer) = span.strip_prefix("bench.stage.") {
        return layer;
    }
    match span.split('.').next().unwrap_or(span) {
        "cegis" | "verify" | "synth" => "core",
        "smt" | "cert" => "smt",
        other => other,
    }
}

pub fn run(
    w: Workload,
    inputs: &Inputs,
    reference: Option<&[StreamStats]>,
    jsonl: &Path,
) -> Result<Traced, String> {
    if let Some(dir) = jsonl.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = File::create(jsonl).map_err(|e| format!("{}: {e}", jsonl.display()))?;
    // file sinks record every level, so the program's Trace-level
    // spans (smt.solve) are in the JSONL whatever level is named here
    fec_trace::install(TraceConfig::new(Level::Debug).jsonl_writer(Box::new(BufWriter::new(file))));
    let start = Instant::now();
    let pass = run_pass(w, inputs, reference);
    let wall = start.elapsed();
    let report = fec_trace::shutdown().ok_or("trace collector vanished")?;
    let (records, attribution) = match read_trace(jsonl) {
        Ok((records, a)) => (records, Some(a)),
        Err(e) => {
            eprintln!("fecbench: {}: invalid trace: {e}", jsonl.display());
            (0, None)
        }
    };
    Ok(Traced {
        pass,
        wall,
        report,
        records,
        attribution,
    })
}

/// Validates the JSONL with `fec_trace::validate_jsonl` and computes
/// self times, streaming the file in chunks of lines.
fn read_trace(path: &Path) -> Result<(u64, Attribution), String> {
    const CHUNK_LINES: usize = 8192;
    let file = File::open(path).map_err(|e| e.to_string())?;
    let mut records = 0u64;
    let mut chunk = String::new();
    let mut lines_in_chunk = 0;
    let mut spans = SelfTimes::default();
    let validate = |chunk: &mut String, records: &mut u64| -> Result<(), String> {
        *records +=
            validate_jsonl(chunk).map_err(|e| format!("after record {records}: {e}"))? as u64;
        chunk.clear();
        Ok(())
    };
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        spans.record(&line);
        chunk.push_str(&line);
        chunk.push('\n');
        lines_in_chunk += 1;
        if lines_in_chunk == CHUNK_LINES {
            validate(&mut chunk, &mut records)?;
            lines_in_chunk = 0;
        }
    }
    validate(&mut chunk, &mut records)?;
    Ok((records, spans.attribution))
}

struct Open {
    name: String,
    op: Option<String>,
    child_us: u64,
}

/// Span replay for the operations' thread, found as the thread of the
/// first `bench.op` span.
#[derive(Default)]
struct SelfTimes {
    tid: Option<u64>,
    stack: Vec<Open>,
    attribution: Attribution,
}

impl SelfTimes {
    fn record(&mut self, line: &str) {
        let begin = line.contains("\"kind\": \"begin\"");
        if !begin && !line.contains("\"kind\": \"end\"") {
            return;
        }
        let Ok(v) = parse_json(line) else { return };
        let (Some(tid), Some(name)) = (
            v.get("tid").and_then(Json::as_num),
            v.get("name").and_then(Json::as_str),
        ) else {
            return;
        };
        let tid = tid as u64;
        if self.tid.is_none() && begin && name == "bench.op" {
            self.tid = Some(tid);
        }
        if self.tid != Some(tid) {
            return;
        }
        if begin {
            let op = v
                .get("fields")
                .and_then(|f| f.get("op"))
                .and_then(Json::as_str)
                .map(str::to_string);
            self.stack.push(Open {
                name: name.to_string(),
                op,
                child_us: 0,
            });
            return;
        }
        if self.stack.last().is_none_or(|o| o.name != name) {
            return;
        }
        let open = self.stack.pop().expect("checked above");
        let dur = v.get("dur_us").and_then(Json::as_num).unwrap_or(0.0) as u64;
        *self
            .attribution
            .self_us
            .entry(layer_of(name).to_string())
            .or_default() += dur.saturating_sub(open.child_us);
        if let Some(op) = open.op {
            *self.attribution.op_us.entry(op).or_default() += dur;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_us += dur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_ops_thread() {
        let lines = [
            r#"{"ts_us": 1, "tid": 2, "level": "info", "kind": "begin", "name": "bench.op", "fields": {"op": "m8"}}"#,
            r#"{"ts_us": 2, "tid": 2, "level": "info", "kind": "begin", "name": "cegis.run"}"#,
            r#"{"ts_us": 3, "tid": 2, "level": "trace", "kind": "begin", "name": "smt.solve"}"#,
            r#"{"ts_us": 4, "tid": 9, "level": "info", "kind": "begin", "name": "portfolio.pool.worker"}"#,
            r#"{"ts_us": 8, "tid": 2, "level": "trace", "kind": "end", "name": "smt.solve", "dur_us": 5}"#,
            r#"{"ts_us": 9, "tid": 9, "level": "info", "kind": "end", "name": "portfolio.pool.worker", "dur_us": 5}"#,
            r#"{"ts_us": 10, "tid": 2, "level": "info", "kind": "end", "name": "cegis.run", "dur_us": 8}"#,
            r#"{"ts_us": 12, "tid": 2, "level": "info", "kind": "end", "name": "bench.op", "dur_us": 11}"#,
        ];
        let mut s = SelfTimes::default();
        for l in lines {
            s.record(l);
        }
        let a = s.attribution;
        assert_eq!(a.self_us["smt"], 5);
        assert_eq!(a.self_us["core"], 3);
        assert_eq!(a.self_us["bench"], 3);
        assert!(!a.self_us.contains_key("portfolio"));
        assert_eq!(a.op_us["m8"], 11);
    }

    #[test]
    fn layers_follow_span_prefixes() {
        assert_eq!(layer_of("cegis.synth"), "core");
        assert_eq!(layer_of("verify.query"), "core");
        assert_eq!(layer_of("cert.check"), "smt");
        assert_eq!(layer_of("portfolio.pool.solve"), "portfolio");
        assert_eq!(layer_of("bench.stage.channel"), "channel");
        assert_eq!(layer_of("bench.op"), "bench");
        assert_eq!(layer_of("stream.run"), "stream");
    }
}
