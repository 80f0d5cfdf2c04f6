//! Experiment harness: shared helpers for the per-table/figure
//! binaries in `src/bin/` and the Criterion benchmarks in `benches/`.
//!
//! Every binary starts with [`check_flags`]: an unknown flag, or a
//! numeric flag whose value does not parse, exits 2 with an
//! `error: kind=usage` line, as in `fecsynth`. The binaries that
//! synthesize accept `--quick` (scaled-down workload for smoke runs).
//! Each prints the same rows/series the paper reports; see
//! EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]

use std::time::Duration;

/// Prints the structured `error: kind=usage` line and exits 2.
pub fn usage_exit(msg: &str) -> ! {
    let mut err = String::new();
    fec_cli::fail(&mut err, "usage", msg);
    eprint!("{err}");
    std::process::exit(2)
}

/// Exits 2 (see [`usage_exit`]) unless every `--name` on the command
/// line is in `accepted` or in the CLI's TRACE family, with the
/// [`fec_cli::Arity`] listed there — the `fecsynth` flag rules. Each
/// binary calls this first in `main`.
pub fn check_flags(accepted: &[(&str, fec_cli::Arity)]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = fec_cli::check_flags(&args, accepted) {
        usage_exit(&e);
    }
}

/// Parses `--name=value` (or `--name value`) from the command line,
/// with a default; a value that is not a non-negative integer exits 2
/// (see [`usage_exit`]).
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    match fec_cli::flag_value(&args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            usage_exit(&format!(
                "--{name} must be a non-negative integer, got {v:?}"
            ))
        }),
    }
}

/// `true` when `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    fec_cli::has_flag(&std::env::args().collect::<Vec<_>>(), name)
}

/// The standard trial count: the paper's 10,000,000, or 1,000,000
/// under `--quick`, overridable with `--trials=N`.
pub fn trial_count() -> u64 {
    let default = if arg_flag("quick") {
        1_000_000
    } else {
        10_000_000
    };
    arg_u64("trials", default)
}

/// Per-run synthesis timeout: the paper's 120 s, or 20 s under
/// `--quick`, overridable with `--timeout=SECS`.
pub fn synth_timeout() -> Duration {
    let default = if arg_flag("quick") { 20 } else { 120 };
    Duration::from_secs(arg_u64("timeout", default))
}

/// Worker threads for simulation harnesses.
pub fn thread_count() -> usize {
    arg_u64(
        "threads",
        std::thread::available_parallelism().map_or(4, |n| n.get() as u64),
    ) as usize
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row plus separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(arg_u64("definitely-not-set", 7), 7);
        assert!(!arg_flag("definitely-not-set"));
    }

    #[test]
    fn trial_count_has_paper_default() {
        assert_eq!(trial_count(), 10_000_000);
    }
}
