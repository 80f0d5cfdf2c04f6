//! `fecbench`: the repository benchmark.
//!
//! ```text
//! fecbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! fecbench run --all [--seed N] [--runs R] [--seconds S] [--trace 0|1] [--quick]
//! fecbench compare PARENT.jsonl CHANGE.jsonl [--metric M --workload W] [--spec BENCHMARK.json]
//! fecbench selftest
//! ```
//!
//! `run --workload` runs one workload in this process and prints its
//! result as the last stdout line: `{"correct", "attempted", "failed",
//! "metrics"}`, the end-to-end metrics without tracing and the
//! per-layer metrics with `--trace 1`. `run --all` runs every workload
//! in a process of its own, `--runs` times with seeds N, N+1, …, and
//! prints one record per run (workload, seed, commit, nproc, rustc,
//! result): the format `compare` reads and `results/` keeps.

mod compare;
mod metrics;
mod probe;
mod runner;
mod selftest;
mod stats;
mod traced;
mod workload;

use runner::Settings;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use workload::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        Some("selftest") => selftest::cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("fecbench: {e}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage: fecbench run (--workload W | --all) [--seed N] [--runs R] [--seconds S] [--trace 0|1] [--quick]
       fecbench compare PARENT.jsonl CHANGE.jsonl [--metric M --workload W] [--spec BENCHMARK.json]
       fecbench selftest";

/// `--name value` / `--name=value` flags and bare switches; anything
/// else is an error, so a misspelt flag never runs silently.
#[derive(Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    pub positional: Vec<String>,
}

impl Flags {
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                f.positional.push(a.clone());
                continue;
            };
            let (name, inline) = match flag.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (flag, None),
            };
            if valued.contains(&name) {
                let v = match inline {
                    Some(v) => v,
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| format!("--{name} needs a value"))?,
                };
                f.values.insert(name.to_string(), v);
            } else if switches.contains(&name) && inline.is_none() {
                f.switches.push(name.to_string());
            } else {
                return Err(format!("unknown flag --{name}\n{USAGE}"));
            }
        }
        Ok(f)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    pub fn u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} wants a whole number, got {v:?}"))
        })
    }
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(
        args,
        &["workload", "seed", "seconds", "trace", "runs"],
        &["all", "quick"],
    )?;
    if !f.positional.is_empty() {
        return Err(format!(
            "unexpected argument {:?}\n{USAGE}",
            f.positional[0]
        ));
    }
    let settings = Settings {
        seed: f.u64("seed", 1)?,
        seconds: f.u64("seconds", 30)?,
        traced: match f.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace wants 0 or 1, got {t:?}")),
        },
        quick: f.has("quick"),
    };
    if f.has("all") {
        if f.get("workload").is_some() {
            return Err("--all and --workload exclude each other".into());
        }
        return run_all(&settings, f.u64("runs", 1)?);
    }
    if f.get("runs").is_some() {
        return Err("--runs needs --all".into());
    }
    let name = f.get("workload").ok_or_else(|| USAGE.to_string())?;
    let w = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let result = runner::run(w, &settings)?;
    println!("{}", result.to_json());
    Ok(0)
}

/// Runs every workload `runs` times, each run in a process of its own,
/// and prints one record per run.
fn run_all(s: &Settings, runs: u64) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let commit = probe_command("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = probe_command("rustc", &["--version"]);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut code = 0;
    for r in 0..runs {
        let seed = s.seed.wrapping_add(r);
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &s.seconds.to_string()])
                .args(["--trace", if s.traced { "1" } else { "0" }]);
            if s.quick {
                cmd.arg("--quick");
            }
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !out.status.success() || fec_trace::parse_json(line).is_err() {
                eprintln!(
                    "fecbench: {} seed {seed}: no result ({})",
                    w.name(),
                    out.status
                );
                code = 1;
                continue;
            }
            println!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"commit\": \"{commit}\", \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"result\": {line}}}",
                w.name()
            );
        }
    }
    Ok(code)
}

/// First line of a command's output, for run records; `unknown` when
/// the command is unavailable.
fn probe_command(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use fec_trace::{parse_json, Json};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_take_both_spellings_and_reject_unknown_ones() {
        let f = Flags::parse(
            &args("--seed 4 --trace=1 --quick"),
            &["seed", "trace"],
            &["quick"],
        )
        .expect("parse");
        assert_eq!(f.u64("seed", 0), Ok(4));
        assert_eq!(f.get("trace"), Some("1"));
        assert!(f.has("quick"));
        assert!(Flags::parse(&args("--traced"), &["trace"], &[]).is_err());
        assert!(Flags::parse(&args("--seed"), &["seed"], &[]).is_err());
        assert!(Flags::parse(&args("--quick=1"), &[], &["quick"]).is_err());
    }

    /// Every printed name is well-formed, and BENCHMARK.json declares
    /// exactly the catalogue with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(entries)) = spec.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            assert_eq!(entries.len(), catalogue.len(), "{key}");
            for (e, m) in entries.iter().zip(catalogue) {
                assert!(
                    !m.name.is_empty()
                        && m.name.len() <= 64
                        && m.name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {:?}",
                    m.name
                );
                assert_eq!(e.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(
                    matches!(
                        e.get("better").and_then(Json::as_str),
                        Some("lower" | "higher")
                    ),
                    "{}",
                    m.name
                );
            }
        }
        let Some(Json::Arr(workloads)) = spec.get("workloads") else {
            panic!("BENCHMARK.json has no workloads list");
        };
        let declared: Vec<_> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);
    }
}
