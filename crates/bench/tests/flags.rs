//! Every experiment binary applies the `fecsynth` flag rules before it
//! does any work: an unknown flag, a value on a switch, a valued flag
//! with no value, or a numeric flag whose value does not parse, exits 2
//! with an `error: kind=usage` line.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str], mentions: &str) {
    let (code, err) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: {err}");
    assert!(err.contains("error: kind=usage"), "{bin} {args:?}: {err}");
    assert!(err.contains(mentions), "{bin} {args:?}: {err}");
}

#[test]
fn removed_flags_are_usage_errors() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig4"),
        &["--backend=matrix"],
        "--backend",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_verify_8023df"),
        &["--simplify"],
        "unknown flag --simplify",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_analyze_bench"),
        &["--validate"],
        "unknown flag --validate",
    );
}

#[test]
fn malformed_numbers_are_usage_errors() {
    assert_usage_error(env!("CARGO_BIN_EXE_fig5"), &["--stride=abc"], "--stride");
    assert_usage_error(env!("CARGO_BIN_EXE_fig4"), &["--trials=1e6"], "--trials");
    assert_usage_error(env!("CARGO_BIN_EXE_table2"), &["--seed", "x"], "--seed");
}

#[test]
fn flags_take_their_arity() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_table1"),
        &["--quick=1"],
        "--quick takes no value",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_verify_8023df"),
        &["--check-proofs=1"],
        "--check-proofs takes no value",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig4"),
        &["--quick", "--trials"],
        "--trials needs a value",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_verify_8023df"),
        &["--jobs", "--check-proofs"],
        "--jobs needs a value",
    );
}

#[test]
fn every_binary_rejects_unknown_flags() {
    for bin in [
        env!("CARGO_BIN_EXE_analyze_bench"),
        env!("CARGO_BIN_EXE_code_families"),
        env!("CARGO_BIN_EXE_codegen_tv"),
        env!("CARGO_BIN_EXE_concat_fec"),
        env!("CARGO_BIN_EXE_crc_baseline"),
        env!("CARGO_BIN_EXE_fig1"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_pairsum"),
        env!("CARGO_BIN_EXE_soft_decoding"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_verify_8023df"),
    ] {
        assert_usage_error(bin, &["--no-such-flag"], "unknown flag --no-such-flag");
    }
}
