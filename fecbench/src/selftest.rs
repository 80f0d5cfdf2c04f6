//! `fecbench selftest`: evidence that the benchmark's checks can fail.
//!
//! 1. The five verification queries run again with certification on,
//!    so the independent `fec-drat` checker certifies every HOLDS.
//! 2. Each oracle is fed a wrong expectation or a tampered output and
//!    must report a failure; a starved budget must count as one too.

use crate::workload::{
    pinned_generator, run_pass, setup, stream_ok, verdict_ok, witness_ok, Inputs, StreamSegment,
    Workload, FIG4_GENERATORS,
};
use crate::Flags;
use fec_gf2::BitVec;
use fec_smt::Budget;
use fec_stream::run_stream;
use fec_synth::verify::{
    verify_min_distance_at_least_with, verify_min_distance_exact_with, VerifyOptions,
};
use std::time::Duration;

pub fn cmd(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &[], &[])?;
    if !f.positional.is_empty() {
        return Err("selftest takes no arguments".into());
    }
    let mut all_ok = true;
    let mut report = |name: &str, ok: bool| {
        println!("{} {name}", if ok { "ok  " } else { "FAIL" });
        all_ok &= ok;
    };
    certify(&mut report)?;
    oracles_fire(&mut report)?;
    Ok(if all_ok { 0 } else { 1 })
}

/// Every verdict of `verify-crc` again, certified.
fn certify(report: &mut impl FnMut(&str, bool)) -> Result<(), String> {
    let Inputs::Verify { opts, queries } = setup(Workload::VerifyCrc, 1, false)? else {
        unreachable!("verify-crc makes verification inputs");
    };
    let opts = VerifyOptions {
        check_certificates: true,
        ..opts
    };
    for q in &queries {
        let (outcome, stats) = if q.exact {
            verify_min_distance_exact_with(&q.generator, q.d, opts)
        } else {
            verify_min_distance_at_least_with(&q.generator, q.d, opts)
        };
        let certified = if q.expect_holds {
            stats.unsat_certified >= 1
        } else {
            stats.models_validated >= 1
        };
        report(
            &format!(
                "certified {}: {} UNSAT certified, {} models validated, {} lemmas RUP-checked",
                q.name, stats.unsat_certified, stats.models_validated, stats.lemmas_checked
            ),
            verdict_ok(q, &outcome) && certified,
        );
    }
    Ok(())
}

/// Runs a quick pass of `w` after `tamper` edits its inputs; the pass
/// must report at least one failed operation.
fn fails_after(w: Workload, tamper: impl FnOnce(&mut Inputs)) -> Result<bool, String> {
    let mut inputs = setup(w, 1, true)?;
    tamper(&mut inputs);
    Ok(run_pass(w, &inputs, None).failed > 0)
}

fn oracles_fire(report: &mut impl FnMut(&str, bool)) -> Result<(), String> {
    report(
        "oracle fires: table1-paper with a wrong expected optimum",
        fails_after(Workload::Table1Paper, |i| {
            if let Inputs::Table1 { rows, .. } = i {
                let last = rows.last_mut().expect("table 1 has rows");
                last.expected_check += 1;
            }
        })?,
    );
    report(
        "oracle fires: table1-paper when synthesis times out",
        fails_after(Workload::Table1Paper, |i| {
            if let Inputs::Table1 { config, .. } = i {
                config.timeout = Duration::from_nanos(1);
            }
        })?,
    );
    report(
        "oracle fires: verify-crc with a flipped expected verdict",
        fails_after(Workload::VerifyCrc, |i| {
            if let Inputs::Verify { queries, .. } = i {
                queries[0].expect_holds = !queries[0].expect_holds;
            }
        })?,
    );
    report(
        "oracle fires: verify-crc when the solver budget runs out",
        fails_after(Workload::VerifyCrc, |i| {
            if let Inputs::Verify { opts, .. } = i {
                opts.budget = Budget {
                    max_conflicts: 1,
                    timeout: None,
                };
            }
        })?,
    );
    let Inputs::Verify { queries, .. } = setup(Workload::VerifyCrc, 1, true)? else {
        unreachable!("verify-crc makes verification inputs");
    };
    let md4 = &queries[1];
    // every data bit set: a codeword far heavier than 4
    let heavy = BitVec::from_bools(&vec![true; md4.generator.data_len()]);
    report(
        "oracle fires: verify-crc witness whose codeword is too heavy",
        !witness_ok(&md4.generator, &heavy, md4.d),
    );

    let Inputs::Stream { segments } = setup(Workload::Stream8023df, 1, true)? else {
        unreachable!("stream-8023df makes stream inputs");
    };
    let StreamSegment { payload, config } = &segments[0];
    let out = run_stream(payload, config);
    let k = config.inner.data_len();
    // flip a bit inside a word that was delivered intact
    let word = k / 8;
    let intact = payload
        .chunks(word)
        .zip(out.bytes.chunks(word))
        .position(|(a, b)| a == b)
        .ok_or("no stream word was delivered intact")?;
    let mut tampered = out.clone();
    tampered.bytes[intact * word] ^= 1;
    report(
        "oracle fires: stream-8023df delivery with a silently flipped bit",
        stream_ok(payload, &out, k, None) && !stream_ok(payload, &tampered, k, None),
    );
    let mut drifted = out.stats.clone();
    drifted.lost_words += 1;
    report(
        "oracle fires: stream-8023df statistics differing from an earlier pass",
        !stream_ok(payload, &out, k, Some(&drifted)),
    );

    report(
        "oracle fires: fig4-mc with a wrong undetected-error expectation",
        fails_after(Workload::Fig4Mc, |i| {
            if let Inputs::Fig4 { rows, .. } = i {
                let last = rows.last_mut().expect("fig 4 has rows");
                last.expected_undetected = last.expected_undetected * 2.0 + 100.0;
            }
        })?,
    );
    report(
        "oracle fires: fig4-mc set-up with a generator of the wrong distance",
        pinned_generator(FIG4_GENERATORS[0].0 - 1, &FIG4_GENERATORS[0].1).is_err(),
    );
    Ok(())
}
