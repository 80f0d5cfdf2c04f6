//! Figure 5: encode/check performance vs. coefficient-matrix ones.
//!
//! §4.4: synthesize (49,32) md-3 generators across a range of `len_1`
//! values, emit a specialized C program for each from its sparse
//! generator circuit (only the set coefficient bits appear as `>>`/`^`
//! terms, one XOR chain per check bit), compile with the system C
//! compiler at `-O0` and `-O3`, and time the paper's sweep over 32-bit
//! words in steps of 21 (204,522,253 words; the default stride here is
//! larger so a laptop run finishes — use `--full` for 21).
//!
//! When no C compiler is found, the in-process [`CircuitKernel`] over
//! the same sparse circuit (whose cost is also proportional to `len_1`)
//! provides the series instead; its timing column is always printed as
//! a cross-check.
//!
//! ```text
//! cargo run -p fec-bench --release --bin fig5 \
//!     [--full] [--stride=N] [--points=N] [--runs=N]
//! ```

use fec_bench::{arg_flag, arg_u64, print_header, print_row, synth_timeout};
use fec_circ::{Circuit, CircuitKernel};
use fec_cli::Arity::{Bare, Value};
use fec_codegen::emit_c;
use fec_hamming::Generator;
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;
use std::path::Path;
use std::time::Instant;

fn main() {
    fec_bench::check_flags(&[
        ("full", Bare),
        ("points", Value),
        ("quick", Bare),
        ("runs", Value),
        ("stride", Value),
        ("timeout", Value),
    ]);
    let config = SynthesisConfig {
        timeout: synth_timeout(),
        ..Default::default()
    };
    // paper: stride 21 → 204,522,253 words
    let stride = if arg_flag("full") {
        21u64
    } else {
        arg_u64("stride", 401)
    };
    let points = arg_u64("points", 12) as usize;
    let runs = arg_u64("runs", if arg_flag("full") { 5 } else { 2 }) as u32;
    let cc = find_cc();

    // the paper's family spans len_1 ∈ [119, 200]; target exact ones
    // counts spread across [72, 200] (descending, like the paper's
    // minimization trace)
    let lo = 72i64;
    let hi = 200i64;
    let targets: Vec<i64> = (0..points)
        .map(|i| hi - (hi - lo) * i as i64 / (points.max(2) - 1) as i64)
        .collect();
    eprintln!("synthesizing (49,32) md-3 generators at len_1 = {targets:?} …");
    let mut family: Vec<(i64, Generator)> = Vec::new();
    for t in targets {
        let prop = parse_property(&format!(
            "len_d(G0) = 32 && len_c(G0) = 17 && md(G0) = 3 && len_1(G0) = {t}"
        ))
        .expect("static property");
        match Synthesizer::new(config).run(&prop) {
            Ok(r) => family.push((t, r.generators.into_iter().next().unwrap())),
            Err(e) => eprintln!("  len_1 = {t}: {e} (skipped)"),
        }
    }

    let words = (0x1_0000_0000u64).div_ceil(stride);
    println!(
        "\nFig. 5: encode/check of {words} words (stride {stride}, avg of {runs} runs){}",
        if cc.is_some() {
            ""
        } else {
            " — no C compiler, Rust sparse kernel only"
        }
    );
    let widths = [6, 11, 11, 13];
    print_header(&["ones", "C -O0 (s)", "C -O3 (s)", "sparse (s)"], &widths);
    for (ones, g) in &family {
        let circuit = Circuit::from_generator(g);
        let mut sparse = CircuitKernel::new(&circuit);
        let t_sparse = avg(runs, || {
            time_sweep(stride, |d| {
                let c = sparse.encode_checks(d);
                sparse.encode_checks(d) ^ c
            })
        });
        let (t_o0, t_o3) = match &cc {
            Some(cc) => {
                let src = emit_c(&circuit, Some(stride));
                let dir = std::env::temp_dir().join("fec_fig5");
                std::fs::create_dir_all(&dir).expect("temp dir");
                let c_path = dir.join(format!("gen_{ones}.c"));
                std::fs::write(&c_path, src).expect("write C");
                let t0 = compile_and_time(cc, &c_path, "-O0", runs);
                let t3 = compile_and_time(cc, &c_path, "-O3", runs);
                (format!("{t0:.3}"), format!("{t3:.3}"))
            }
            None => ("—".into(), "—".into()),
        };
        print_row(
            &[ones.to_string(), t_o0, t_o3, format!("{t_sparse:.3}")],
            &widths,
        );
    }
    println!(
        "\npaper's trend: runtime decreases with the number of set coefficient\n\
         bits at both optimization levels (−O0 ≈ 4-5× slower than −O3)."
    );
}

fn find_cc() -> Option<&'static str> {
    ["cc", "gcc", "clang"].into_iter().find(|c| {
        std::process::Command::new(c)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    })
}

fn compile_and_time(cc: &str, c_path: &Path, opt: &str, runs: u32) -> f64 {
    let bin = c_path.with_extension(format!("bin{}", opt.trim_start_matches('-')));
    let status = std::process::Command::new(cc)
        .arg(opt)
        .arg("-o")
        .arg(&bin)
        .arg(c_path)
        .status()
        .expect("run compiler");
    assert!(status.success(), "compilation failed at {opt}");
    avg(runs, || {
        let start = Instant::now();
        let out = std::process::Command::new(&bin)
            .output()
            .expect("run binary");
        assert!(out.status.success());
        start.elapsed().as_secs_f64()
    })
}

fn avg(runs: u32, mut f: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| f()).sum::<f64>() / runs as f64
}

fn time_sweep(stride: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    let mut d = 0u64;
    while d <= u32::MAX as u64 {
        acc = acc.wrapping_add(f(d));
        d += stride;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}
