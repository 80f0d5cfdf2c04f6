//! Translation-validation sweep over every generator the repo ships:
//! the named standards, the 802.3df flagship, and every coefficient
//! matrix printed into `results/*.txt` by earlier experiment runs.
//!
//! For each generator, the six encoder forms — the generator circuit,
//! the minimized circuit, and the C and Rust emitted from each — are
//! *proved* equal to the generator matrix by the symbolic GF(2)
//! validator, the same list `fecsynth lint-kernel` proves: no
//! compilation, no execution. The flagship must clear a ≥25%
//! XOR-reduction gate.
//!
//! Any failed proof (or a missed gate) exits nonzero so CI fails
//! loudly. fec-circ's `named_generators_minimize_to_pinned_xor_counts`
//! test pins the named generators' XOR counts.

use fec_hamming::{standards, Generator};
use std::path::Path;

/// One generator's sweep outcome.
struct Row {
    name: String,
    k: usize,
    r: usize,
    forms_proved: usize,
    sparse_xors: usize,
    minimized_xors: usize,
    reduction: f64,
    valid: bool,
}

/// Proves the six encoder forms of `g` (`fec_circ::validate_forms`);
/// returns the row and prints one line per failed proof.
fn sweep(name: &str, g: &Generator) -> Row {
    let (m, forms) = fec_circ::validate_forms(g);
    let mut valid = true;
    for (form, rep) in &forms {
        if !rep.is_valid() {
            valid = false;
            println!("  FAIL {name}/{form}:");
            for d in rep.errors() {
                println!("    {d}");
            }
        }
    }
    Row {
        name: name.into(),
        k: g.data_len(),
        r: g.check_len(),
        forms_proved: forms.len(),
        sparse_xors: m.sparse_xor_count,
        minimized_xors: m.xor_count(),
        reduction: m.reduction(),
        valid,
    }
}

/// Extracts generators from one results file: a matrix block is a
/// maximal run of `data|coeff` bit-string lines (as printed by the
/// `pairsum` synthesis log) whose left parts are the k identity rows
/// and whose right parts are the k coefficient rows.
fn matrices_in(text: &str) -> Vec<Generator> {
    let mut out = Vec::new();
    let mut block: Vec<(&str, &str)> = Vec::new();
    let mut flush = |block: &mut Vec<(&str, &str)>| {
        let k = block.len();
        let uniform = k >= 2
            && block
                .iter()
                .all(|(l, r)| l.len() == k && r.len() == block[0].1.len());
        if uniform {
            let coeff: Vec<&str> = block.iter().map(|&(_, r)| r).collect();
            if let Some(g) = Generator::from_coeff_str(&coeff.join("\n")) {
                out.push(g);
            }
        }
        block.clear();
    };
    for line in text.lines() {
        let line = line.trim();
        let is_row = line.split_once('|').is_some_and(|(l, r)| {
            !l.is_empty()
                && !r.is_empty()
                && l.chars().all(|c| c == '0' || c == '1')
                && r.chars().all(|c| c == '0' || c == '1')
        });
        if is_row {
            block.push(line.split_once('|').unwrap());
        } else {
            flush(&mut block);
        }
    }
    flush(&mut block);
    out
}

fn main() {
    fec_bench::check_flags(&[]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    let mut targets: Vec<(String, Generator)> = vec![
        ("hamming_7_4".into(), standards::hamming_7_4()),
        (
            "hamming_extended_8_4".into(),
            standards::hamming_extended_8_4(),
        ),
        ("parity_16".into(), standards::parity_code(16)),
        (
            "shortened_hamming_32_6".into(),
            standards::shortened_hamming(32, 6).unwrap(),
        ),
        (
            "shortened_hamming_57_7".into(),
            standards::shortened_hamming(57, 7).unwrap(),
        ),
        ("paper_g4_5".into(), standards::paper_g4_5()),
        (
            "ieee_8023df_128_120".into(),
            standards::ieee_8023df_128_120(),
        ),
    ];

    let mut matrices_checked = 0usize;
    let results = root.join("results");
    let mut files: Vec<_> = std::fs::read_dir(&results)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    for path in files {
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let stem = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        for (i, g) in matrices_in(&text).into_iter().enumerate() {
            matrices_checked += 1;
            targets.push((format!("results/{stem}#{i}"), g));
        }
    }

    println!(
        "codegen translation validation: {} generators ({} from results/)",
        targets.len(),
        matrices_checked
    );
    let mut rows = Vec::new();
    let mut all_valid = true;
    for (name, g) in &targets {
        let row = sweep(name, g);
        println!(
            "  {:<28} ({:>3},{:>2})  {} forms proved  sparse {:>4} -> min {:>4} xors ({:>5.1}%)  {}",
            row.name,
            row.k + row.r,
            row.k,
            row.forms_proved,
            row.sparse_xors,
            row.minimized_xors,
            100.0 * row.reduction,
            if row.valid { "OK" } else { "FAIL" }
        );
        all_valid &= row.valid;
        rows.push(row);
    }

    let flagship = rows
        .iter()
        .find(|r| r.name == "ieee_8023df_128_120")
        .expect("flagship row");
    let gate_met = flagship.reduction >= 0.25;
    println!(
        "flagship 802.3df: sparse {} -> minimized {} xors ({:.1}% reduction, gate >=25%: {})",
        flagship.sparse_xors,
        flagship.minimized_xors,
        100.0 * flagship.reduction,
        if gate_met { "met" } else { "MISSED" }
    );

    if !all_valid || !gate_met {
        std::process::exit(1);
    }
}
