//! Streaming-pipeline benchmark: static 802.3df vs. channel-adapted
//! code on the bursty Gilbert–Elliott channel, recorded as
//! `BENCH_stream.json` at the workspace root.
//!
//! The run is the full feedback-loop experiment (`fec-stream`): probe
//! the first half of a deterministic payload under the static
//! deployment, synthesize a replacement from the decoder's measured
//! burst profile, replay the second half under both codes at the same
//! replay seed, and record residual loss / recovery latency / overhead
//! for each. Exits 1 unless the adapted code's residual loss is
//! *strictly* lower than the static code's — the PR's acceptance gate.
//!
//! ```text
//! cargo run -p fec-bench --release --bin stream_bench
//!     [--seed=N] [--bytes=N] [--timeout=SECS]
//! cargo run -p fec-bench --release --bin stream_bench -- --validate
//! ```
//!
//! `--validate` re-reads an existing BENCH_stream.json and checks it
//! against the schema (used by the CI observability job).

use fec_bench::{arg_flag, arg_u64};
use fec_stream::{deterministic_payload, run_adaptive, AdaptConfig, StreamConfig, StreamOutcome};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// The per-deployment numbers the schema records.
fn side_json(o: &StreamOutcome, word_len: usize) -> String {
    let s = &o.stats;
    format!(
        "{{\"residual_loss\": {:.6}, \"lost_words\": {}, \"corrupted_words\": {}, \
         \"recovered_words\": {}, \"erased_frames\": {}, \
         \"recovery_latency_mean\": {:.3}, \"recovery_latency_max\": {}, \
         \"overhead\": {:.4}}}",
        s.residual_loss(),
        s.lost_words,
        s.corrupted_words,
        s.recovered_words,
        s.erased_frames,
        s.recovery_latency_mean,
        s.recovery_latency_max,
        s.overhead(word_len)
    )
}

const SIDE_KEYS: [&str; 8] = [
    "residual_loss",
    "lost_words",
    "corrupted_words",
    "recovered_words",
    "erased_frames",
    "recovery_latency_mean",
    "recovery_latency_max",
    "overhead",
];

/// Schema check for an existing BENCH_stream.json; returns an error
/// description on the first violation.
fn validate(text: &str) -> Result<(), String> {
    let v = fec_trace::parse_json(text).map_err(|e| e.to_string())?;
    fec_cli::validate_bench_meta(&v)?;
    for key in ["seed", "payload_bytes"] {
        v.get(key)
            .and_then(|x| x.as_num())
            .ok_or(format!("missing numeric {key:?}"))?;
    }
    v.get("channel")
        .and_then(|x| x.as_str())
        .ok_or("missing string \"channel\"")?;
    let code = v.get("adapted_code").ok_or("missing \"adapted_code\"")?;
    for key in [
        "data_len",
        "codeword_len",
        "depth",
        "repair",
        "sum_w",
        "iterations",
    ] {
        code.get(key)
            .and_then(|x| x.as_num())
            .ok_or(format!("adapted_code: missing numeric {key:?}"))?;
    }
    let mut residuals = Vec::new();
    for side in ["static", "adapted"] {
        let s = v.get(side).ok_or(format!("missing {side:?}"))?;
        for key in SIDE_KEYS {
            s.get(key)
                .and_then(|x| x.as_num())
                .ok_or(format!("{side}: missing numeric {key:?}"))?;
        }
        residuals.push(s.get("residual_loss").unwrap().as_num().unwrap());
    }
    let flag = match v.get("adapted_strictly_lower") {
        Some(fec_trace::Json::Bool(b)) => *b,
        _ => return Err("missing boolean \"adapted_strictly_lower\"".into()),
    };
    if flag != (residuals[1] < residuals[0]) {
        return Err(format!(
            "adapted_strictly_lower = {flag} contradicts residuals {} vs {}",
            residuals[1], residuals[0]
        ));
    }
    if !flag {
        return Err("acceptance gate not met: adapted residual loss is not strictly lower".into());
    }
    Ok(())
}

fn main() {
    fec_bench::check_flags(&["bytes", "seed", "timeout", "validate"]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_stream.json");

    if arg_flag("validate") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        match validate(&text) {
            Ok(()) => println!("{}: schema OK, acceptance gate met", path.display()),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let seed = arg_u64("seed", 1);
    let bytes = arg_u64("bytes", 16384) as usize;
    let timeout = arg_u64("timeout", 30);
    let payload = deterministic_payload(bytes, seed);
    let base = StreamConfig::static_8023df(seed);
    let acfg = AdaptConfig {
        timeout: Duration::from_secs(timeout),
        ..Default::default()
    };
    println!("stream_bench: {bytes} bytes, seed {seed}, static 802.3df vs adapted …");
    let a = run_adaptive(&payload, &base, &acfg).expect("adaptation synthesis");

    let static_k = base.inner.data_len();
    let adapted_k = a.adapted.code.data_len();
    let sres = a.static_replay.stats.residual_loss();
    let ares = a.adapted_replay.stats.residual_loss();
    let strictly_lower = ares < sres;
    println!(
        "probe residual {:.4} | replay: static {sres:.4} vs adapted {ares:.4} ({})",
        a.probe.stats.residual_loss(),
        if strictly_lower {
            "adapted strictly lower"
        } else {
            "GATE MISSED"
        },
    );

    let mut json = String::from("{\n");
    json.push_str(&fec_bench::bench_meta(1));
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"payload_bytes\": {bytes},");
    let _ = writeln!(json, "  \"channel\": \"gilbert_elliott_bursty\",");
    let _ = writeln!(json, "  \"probe\": {},", side_json(&a.probe, static_k));
    let _ = writeln!(
        json,
        "  \"adapted_code\": {{\"data_len\": {}, \"codeword_len\": {}, \"depth\": {}, \
         \"repair\": {}, \"sum_w\": {:.4}, \"iterations\": {}}},",
        adapted_k,
        a.adapted.code.codeword_len(),
        a.adapted.depth,
        a.adapted.repair,
        a.adapted.sum_w,
        a.adapted.iterations
    );
    let _ = writeln!(
        json,
        "  \"static\": {},",
        side_json(&a.static_replay, static_k)
    );
    let _ = writeln!(
        json,
        "  \"adapted\": {},",
        side_json(&a.adapted_replay, adapted_k)
    );
    let _ = writeln!(json, "  \"adapted_strictly_lower\": {strictly_lower}");
    json.push_str("}\n");

    std::fs::write(&path, &json).expect("write BENCH_stream.json");
    println!("wrote {}", path.display());
    if !strictly_lower {
        std::process::exit(1);
    }
}
