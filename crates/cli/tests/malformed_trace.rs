//! Malformed input never panics in `fecsynth report`'s reader: a small
//! traced JSONL stream with random edits goes through the schema check
//! and `report::analyze`, and the report renders, whatever the edits.
//!
//! The base stream has every record kind the reader handles: nested
//! spans on two threads (synth, verify, proof check, portfolio), the
//! stream stages under `stream.run`, an event, a counter, a histogram,
//! a gauge and a watchdog progress record. Each case applies up to
//! three edits (a token of the JSON alphabet, a raw byte, or a byte
//! deleted), so cases reach number parsing, nesting and span matching
//! instead of failing on the first byte. Edits may split a UTF-8
//! sequence; the bytes are then read as text the way a file reader
//! would, with U+FFFD for what is not UTF-8.

use fec_cli::report::{analyze, render_json, render_text, STREAM_STAGES};
use proptest::collection::vec;
use proptest::prelude::*;

const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    "\\u00",
    "-",
    ".",
    "e",
    "1e309",
    "-1",
    "99999999999999999999",
    "18446744073709551615",
    "0",
    "null",
    "true",
    "ts_us",
    "tid",
    "dur_us",
    "kind",
    "name",
    "begin",
    "end",
    "stream.run",
    "cegis.synth",
    " ",
    "\n",
];

fn line(ts: u64, tid: u64, kind: &str, name: &str, extra: &str) -> String {
    format!(
        "{{\"ts_us\": {ts}, \"tid\": {tid}, \"level\": \"info\", \"kind\": \"{kind}\", \"name\": \"{name}\"{extra}}}\n"
    )
}

/// A well-formed trace of one synthesis run and one stream run.
fn base_trace() -> String {
    let mut t = String::new();
    t += &line(0, 0, "begin", "cegis.run", "");
    t += &line(5, 0, "begin", "cegis.synth", "");
    t += &line(40, 0, "end", "cegis.synth", ", \"dur_us\": 35");
    t += &line(41, 0, "begin", "cegis.verify", "");
    t += &line(42, 0, "begin", "portfolio.pool.solve", "");
    t += &line(43, 1, "begin", "portfolio.pool.worker", "");
    t += &line(70, 1, "end", "portfolio.pool.worker", ", \"dur_us\": 27");
    t += &line(80, 0, "end", "portfolio.pool.solve", ", \"dur_us\": 38");
    t += &line(81, 0, "begin", "drat.check", "");
    t += &line(90, 0, "end", "drat.check", ", \"dur_us\": 9");
    t += &line(95, 0, "end", "cegis.verify", ", \"dur_us\": 54");
    t += &line(
        96,
        0,
        "event",
        "cegis.candidate",
        ", \"fields\": {\"iteration\": 1}",
    );
    t += &line(97, 0, "counter", "cegis.iterations", ", \"delta\": 1");
    t += &line(98, 0, "hist", "sat.lbd", ", \"value\": 3, \"count\": 2");
    t += &line(99, 0, "gauge", "sat.trail_depth", ", \"value\": 17");
    t += &line(100, 0, "end", "cegis.run", ", \"dur_us\": 100");
    t += &line(110, 0, "begin", "stream.run", "");
    let mut ts = 110;
    for stage in STREAM_STAGES {
        t += &line(ts, 0, "begin", stage, "");
        ts += 10;
        t += &line(ts, 0, "end", stage, ", \"dur_us\": 10");
    }
    t += &line(ts + 5, 0, "end", "stream.run", ", \"dur_us\": 65");
    t += &line(
        ts + 6,
        2,
        "progress",
        "progress",
        ", \"fields\": {\"stalled\": false, \"stall_ms\": 12}",
    );
    t
}

/// Picks one of `items`.
fn one_of(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// The base trace with up to three random edits: a token or a raw byte
/// inserted at a random position, or the byte there deleted.
fn mutated_trace() -> impl Strategy<Value = String> {
    let edit = prop_oneof![
        one_of(JSON_TOKENS).prop_map(|t| t.as_bytes().to_vec()),
        any::<u8>().prop_map(|b| vec![b]),
        Just(Vec::new()),
    ];
    vec((any::<u16>(), edit), 0..4).prop_map(|edits| {
        let mut bytes = base_trace().into_bytes();
        for (at, edit) in edits {
            let at = usize::from(at) % (bytes.len() + 1);
            if edit.is_empty() {
                if at < bytes.len() {
                    bytes.remove(at);
                }
            } else {
                bytes.splice(at..at, edit);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

#[test]
fn the_base_trace_is_valid_and_read_in_full() {
    let text = base_trace();
    fec_trace::validate_jsonl(&text).expect("base trace validates");
    let r = analyze(&text);
    assert_eq!(r.threads, 3);
    assert_eq!(r.worker_spans, 1);
    assert_eq!(r.heartbeats, 1);
    assert_eq!(r.stream_run_us, 65);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn report_reader_never_panics(text in mutated_trace()) {
        let _ = fec_trace::validate_jsonl(&text);
        let r = analyze(&text);
        render_text(&r, "trace.jsonl");
        render_json(&r);
    }
}
