//! `--progress` keeps its live status line off pipes: the watchdog
//! draws the `\r\x1b[K` line only when stderr is a terminal, so a
//! piped stderr holds no escape sequence, even on a run that ticks
//! every millisecond.

use std::process::Command;

#[test]
fn progress_writes_no_escapes_into_a_pipe() {
    let out = Command::new(env!("CARGO_BIN_EXE_fecsynth"))
        .args([
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--progress=1",
        ])
        .output()
        .expect("fecsynth starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(
        !out.stderr.contains(&0x1b),
        "escape bytes on a pipe: {stderr:?}"
    );
}
