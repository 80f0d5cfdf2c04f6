//! `fecsynth bench-compare`: the perf-trajectory gate.
//!
//! Validates every `BENCH_*.json` in the current directory against the
//! shared `bench_meta` schema (emitted by every fec-bench harness) and
//! diffs its metrics against the committed baseline snapshot in
//! `results/bench-baseline/`. Metrics are flattened to dotted paths
//! (`results.2.secs`, `table1_rows.0.incremental_secs`) and classified
//! by name into direction-aware families, each with its own regression
//! threshold:
//!
//! - timings (`*_secs`, `*_us`, `*_ms`, `*_ns`, `*latency*`): lower is
//!   better, regression when the current value rises more than 10%
//! - quality ratios (`*speedup*`, `*reduction*`, `*fraction*`): higher
//!   is better, regression when the value drops more than 10%
//! - loss metrics (`*residual*`, `*loss*`, `*overhead*`): lower is
//!   better, regression when the value rises more than 10%
//! - booleans (`pass`, `gate_met`, `*_certified`, …): regression on
//!   any `true → false` flip
//! - everything else numeric: informational drift only, never a gate
//!
//! A metric present only in one side is informational (benchmarks may
//! grow fields); a *file* present only in the current set is flagged
//! as missing a baseline but does not fail the gate. Exit 1 on any
//! schema violation or threshold regression.

use fec_trace::{parse_json, Json};
use std::fmt::Write as _;
use std::path::Path;

use crate::{fail, has_flag, usage};

/// Version every BENCH_*.json emitter stamps into `bench_meta.schema`;
/// bump on incompatible layout changes.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Relative change beyond which a gated metric is a regression.
const THRESHOLD: f64 = 0.10;
/// Absolute slack: changes smaller than this never gate (guards tiny
/// denominators like a 7 ms synthesis run or a 0.008 loss rate
/// against measurement noise).
const ABS_FLOOR: f64 = 1e-4;

/// Gated metric families, by flattened path.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Class {
    LowerBetter,
    HigherBetter,
    Info,
}

fn classify(path: &str) -> Class {
    let lower_timing = path.contains("secs")
        || ["_us", "_ms", "_ns"].iter().any(|s| path.ends_with(s))
        || path.contains("latency");
    let lower_loss =
        path.contains("residual") || path.contains("loss") || path.contains("overhead");
    let higher =
        path.contains("speedup") || path.contains("reduction") || path.contains("fraction");
    if lower_timing || lower_loss {
        Class::LowerBetter
    } else if higher {
        Class::HigherBetter
    } else {
        Class::Info
    }
}

/// Flattens numeric and boolean leaves to (dotted path, value) pairs,
/// skipping the `bench_meta` header (its cores/commit legitimately
/// differ between machines).
fn flatten(v: &Json, prefix: &str, nums: &mut Vec<(String, f64)>, bools: &mut Vec<(String, bool)>) {
    match v {
        Json::Num(n) => nums.push((prefix.to_string(), *n)),
        Json::Bool(b) => bools.push((prefix.to_string(), *b)),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{prefix}.{i}"), nums, bools);
            }
        }
        Json::Obj(m) => {
            for (k, val) in m {
                if prefix.is_empty() && k == "bench_meta" {
                    continue;
                }
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(val, &path, nums, bools);
            }
        }
        Json::Null | Json::Str(_) => {}
    }
}

/// Checks the shared `bench_meta` header of a parsed BENCH_*.json: the
/// one schema both this gate and the fec-bench emitters' `--validate`
/// enforce.
pub fn validate_bench_meta(v: &Json) -> Result<(), String> {
    let m = v
        .get("bench_meta")
        .ok_or("missing \"bench_meta\" header (re-run the fec-bench emitter)")?;
    let num = |k: &str| {
        m.get(k)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("bench_meta: missing numeric {k:?}"))
    };
    let string = |k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("bench_meta: missing string {k:?}"))
    };
    let schema = num("schema")?;
    if schema != BENCH_SCHEMA_VERSION as f64 {
        return Err(format!(
            "bench_meta: schema {schema} (expected {BENCH_SCHEMA_VERSION})"
        ));
    }
    if num("reps")? < 1.0 {
        return Err("bench_meta: reps must be >= 1".into());
    }
    num("cores")?;
    string("git_commit")?;
    string("rustc")?;
    Ok(())
}

/// One comparison verdict for a single metric.
struct Delta {
    path: String,
    baseline: f64,
    current: f64,
    regression: bool,
}

fn compare_metrics(baseline: &Json, current: &Json) -> (Vec<Delta>, Vec<String>) {
    let (mut bn, mut bb, mut cn, mut cb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    flatten(baseline, "", &mut bn, &mut bb);
    flatten(current, "", &mut cn, &mut cb);
    let mut deltas = Vec::new();
    let mut notes = Vec::new();
    for (path, cur) in &cn {
        let Some((_, base)) = bn.iter().find(|(p, _)| p == path) else {
            notes.push(format!("new metric {path} = {cur}"));
            continue;
        };
        let (base, cur) = (*base, *cur);
        let diff = cur - base;
        if diff.abs() < ABS_FLOOR {
            continue;
        }
        let rel = if base.abs() > f64::EPSILON {
            diff / base
        } else {
            // a zero baseline has no meaningful relative change
            0.0
        };
        let regression = match classify(path) {
            Class::LowerBetter => rel > THRESHOLD,
            Class::HigherBetter => rel < -THRESHOLD,
            Class::Info => false,
        };
        if regression || rel.abs() > THRESHOLD {
            deltas.push(Delta {
                path: path.clone(),
                baseline: base,
                current: cur,
                regression,
            });
        }
    }
    for (path, cur) in &cb {
        match bb.iter().find(|(p, _)| p == path) {
            Some((_, true)) if !cur => deltas.push(Delta {
                path: path.clone(),
                baseline: 1.0,
                current: 0.0,
                regression: true,
            }),
            Some(_) => {}
            None => notes.push(format!("new metric {path} = {cur}")),
        }
    }
    (deltas, notes)
}

fn list_bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// `fecsynth bench-compare <baseline-dir> <current-dir> [--json]`.
pub fn cmd_bench_compare(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let [baseline_dir, current_dir] = positional[..] else {
        return usage(err, "bench-compare: expected <baseline-dir> <current-dir>");
    };
    let current_files = match list_bench_files(Path::new(current_dir)) {
        Ok(f) => f,
        Err(e) => return usage(err, &e),
    };
    if current_files.is_empty() {
        return usage(err, &format!("no BENCH_*.json files in {current_dir:?}"));
    }
    let json_mode = has_flag(args, "json");
    let mut failures = 0usize;
    let mut jout = String::from("{\n  \"files\": [\n");
    for (fi, name) in current_files.iter().enumerate() {
        let cur_path = Path::new(current_dir).join(name);
        let cur = match std::fs::read_to_string(&cur_path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_json(&t).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                fail(err, "schema", &format!("{name}: {e}"));
                failures += 1;
                continue;
            }
        };
        if let Err(e) = validate_bench_meta(&cur) {
            fail(err, "schema", &format!("{name}: {e}"));
            failures += 1;
            continue;
        }
        let base_path = Path::new(baseline_dir).join(name);
        let mut file_regressions = 0usize;
        let mut lines = String::new();
        match std::fs::read_to_string(&base_path) {
            Err(_) => {
                let _ = writeln!(
                    lines,
                    "  no baseline (new benchmark — commit one to {baseline_dir})"
                );
            }
            Ok(text) => match parse_json(&text) {
                Err(e) => {
                    fail(err, "schema", &format!("baseline {name}: {e}"));
                    failures += 1;
                    continue;
                }
                Ok(base) => {
                    let (deltas, notes) = compare_metrics(&base, &cur);
                    for d in &deltas {
                        let verdict = if d.regression {
                            "REGRESSION"
                        } else {
                            "changed"
                        };
                        let _ = writeln!(
                            lines,
                            "  {verdict}: {} {} -> {} ({:+.1}%)",
                            d.path,
                            d.baseline,
                            d.current,
                            100.0 * (d.current - d.baseline)
                                / if d.baseline.abs() > f64::EPSILON {
                                    d.baseline
                                } else {
                                    1.0
                                }
                        );
                        if d.regression {
                            file_regressions += 1;
                        }
                    }
                    for n in &notes {
                        let _ = writeln!(lines, "  note: {n}");
                    }
                }
            },
        }
        failures += file_regressions;
        let status = if file_regressions > 0 { "FAIL" } else { "ok" };
        let _ = writeln!(out, "{name}: {status}");
        out.push_str(&lines);
        if json_mode {
            let _ = writeln!(
                jout,
                "    {{\"file\": \"{name}\", \"status\": \"{status}\", \"regressions\": {file_regressions}}}{}",
                if fi + 1 < current_files.len() { "," } else { "" }
            );
        }
    }
    if json_mode {
        out.clear();
        let _ = write!(
            jout,
            "  ],\n  \"regressions\": {failures}, \"pass\": {}\n}}\n",
            failures == 0
        );
        out.push_str(&jout);
    }
    if failures > 0 {
        fail(
            err,
            "regression",
            &format!("{failures} regression(s) against {baseline_dir}"),
        );
        1
    } else {
        let _ = writeln!(
            out,
            "bench-compare: {} file(s), no regressions",
            current_files.len()
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = "\"bench_meta\": {\"schema\": 1, \"git_commit\": \"abc1234\", \"cores\": 8, \"reps\": 3, \"rustc\": \"rustc 1.75.0\"}";

    fn write_dir(dir: &Path, name: &str, body: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(name), body).unwrap();
    }

    fn run_compare(base: &Path, cur: &Path) -> (i32, String, String) {
        let args: Vec<String> = [
            "bench-compare",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (mut out, mut err) = (String::new(), String::new());
        let code = cmd_bench_compare(&args, &mut out, &mut err);
        (code, out, err)
    }

    fn temp_pair(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!("fec_bc_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        (root.join("base"), root.join("cur"))
    }

    #[test]
    fn classifies_metric_families() {
        assert_eq!(classify("baseline_secs"), Class::LowerBetter);
        assert_eq!(
            classify("table1_rows.0.incremental_secs"),
            Class::LowerBetter
        );
        assert_eq!(classify("results.0.secs"), Class::LowerBetter);
        assert_eq!(classify("probe.residual_loss"), Class::LowerBetter);
        assert_eq!(classify("disabled_overhead_pct"), Class::LowerBetter);
        assert_eq!(classify("results.1.speedup"), Class::HigherBetter);
        assert_eq!(classify("flagship.reduction"), Class::HigherBetter);
        assert_eq!(classify("fraction_decided"), Class::HigherBetter);
        assert_eq!(classify("points"), Class::Info);
    }

    #[test]
    fn injected_regression_fails_identical_passes() {
        let (base, cur) = temp_pair("inject");
        let good = format!("{{{META}, \"solve_secs\": 1.0, \"speedup\": 2.0, \"pass\": true}}");
        write_dir(&base, "BENCH_x.json", &good);
        write_dir(&cur, "BENCH_x.json", &good);
        let (code, out, _) = run_compare(&base, &cur);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no regressions"));

        // +20% timing: regression
        let slow = format!("{{{META}, \"solve_secs\": 1.2, \"speedup\": 2.0, \"pass\": true}}");
        write_dir(&cur, "BENCH_x.json", &slow);
        let (code, out, err) = run_compare(&base, &cur);
        assert_eq!(code, 1, "{out}{err}");
        assert!(out.contains("REGRESSION"), "{out}");

        // -15% speedup: regression; a boolean flip also gates
        let worse = format!("{{{META}, \"solve_secs\": 1.0, \"speedup\": 1.7, \"pass\": false}}");
        write_dir(&cur, "BENCH_x.json", &worse);
        let (code, out, _) = run_compare(&base, &cur);
        assert_eq!(code, 1);
        assert!(out.contains("speedup") && out.contains("pass"), "{out}");

        // improvements in the right direction never gate
        let better = format!("{{{META}, \"solve_secs\": 0.5, \"speedup\": 9.0, \"pass\": true}}");
        write_dir(&cur, "BENCH_x.json", &better);
        let (code, out, _) = run_compare(&base, &cur);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn missing_bench_meta_is_a_schema_failure() {
        let (base, cur) = temp_pair("meta");
        write_dir(&cur, "BENCH_y.json", "{\"secs\": 1.0}");
        write_dir(&base, "BENCH_y.json", "{\"secs\": 1.0}");
        let (code, _, err) = run_compare(&base, &cur);
        assert_eq!(code, 1);
        assert!(err.contains("bench_meta"), "{err}");
    }

    #[test]
    fn new_benchmark_without_baseline_does_not_gate() {
        let (base, cur) = temp_pair("nobase");
        std::fs::create_dir_all(&base).unwrap();
        write_dir(&cur, "BENCH_z.json", &format!("{{{META}, \"secs\": 1.0}}"));
        let (code, out, _) = run_compare(&base, &cur);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no baseline"), "{out}");
    }
}
