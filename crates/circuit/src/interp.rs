//! Symbolic GF(2) abstract interpretation of emitted sources.
//!
//! Every 64-bit value is abstracted as a vector of 64 *affine forms*
//! over the data bits: bit `i` is `c_i ⊕ (⊕ x_y for y in form_i)`,
//! with the form stored as a [`BitVec`]. This domain is **exact** for
//! the operators the emitters use — XOR adds forms, shifts move the
//! vector, `& mask` projects, and `|` is accepted only where one
//! operand's bit is provably constant-zero (the accumulator pattern) —
//! so validation is a proof, not a test: if the final value's bit `j`
//! has exactly the generator's column-`j` form for every `j`, the
//! source computes the code, for *all* 2^k inputs. Operators outside
//! the domain (`+ - * / % ~ !`, opaque `&`/`|`) are rejected as
//! `non-linear-op` rather than approximated.

use crate::analyze::compare_form;
use crate::parse::{self, AssignOp, BinOp, Expr, Func, ParamShape, Stmt};
use crate::{LintClass, Report, Severity};
use fec_gf2::BitVec;
use fec_hamming::Generator;
use std::collections::HashMap;

/// Which language's emitted surface syntax to parse.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lang {
    C,
    Rust,
}

impl std::str::FromStr for Lang {
    type Err = String;
    fn from_str(s: &str) -> Result<Lang, String> {
        match s.to_ascii_lowercase().as_str() {
            "c" => Ok(Lang::C),
            "rust" | "rs" => Ok(Lang::Rust),
            other => Err(format!("unknown language `{other}` (expected c|rust)")),
        }
    }
}

/// One abstract bit: `c ⊕ (⊕ x_y for y in form)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct AffBit {
    form: BitVec,
    c: bool,
}

impl AffBit {
    fn konst(p: usize, c: bool) -> AffBit {
        AffBit {
            form: BitVec::zeros(p),
            c,
        }
    }

    fn input(p: usize, i: usize) -> AffBit {
        let mut form = BitVec::zeros(p);
        form.set(i, true);
        AffBit { form, c: false }
    }

    /// `Some(value)` when the bit carries no symbolic term.
    fn as_const(&self) -> Option<bool> {
        (self.form.count_ones() == 0).then_some(self.c)
    }

    fn xor(&self, other: &AffBit) -> AffBit {
        let mut form = self.form.clone();
        form ^= &other.form;
        AffBit {
            form,
            c: self.c ^ other.c,
        }
    }
}

/// A 64-bit word in the abstract domain.
type SymWord = Vec<AffBit>;

fn const_word(p: usize, value: u64) -> SymWord {
    (0..64)
        .map(|i| AffBit::konst(p, (value >> i) & 1 == 1))
        .collect()
}

/// `Some(v)` when every bit of the word is constant.
fn word_as_const(w: &SymWord) -> Option<u64> {
    let mut v = 0u64;
    for (i, bit) in w.iter().enumerate() {
        if bit.as_const()? {
            v |= 1 << i;
        }
    }
    Some(v)
}

enum Slot {
    /// Declared, not yet assigned (C's `uint64_t b;`).
    Unset,
    /// A structural error already reported; uses propagate silently.
    Poisoned,
    Val(SymWord),
}

struct Ev<'a> {
    g: &'a Generator,
    report: &'a mut Report,
    /// Padded input-universe size: `words × 64` bits, of which only the
    /// first `data_len` are legitimate.
    p: usize,
    param: String,
    shape: ParamShape,
    env: HashMap<String, Slot>,
    /// var → statement index of a definition not yet read.
    pending: HashMap<String, usize>,
    /// value → first variable that computed it (duplicate detection).
    values: HashMap<SymWord, String>,
}

/// Statically validates emitted source text against `g`: parses it,
/// abstractly interprets `encode_checks`, and proves (or refutes) that
/// the returned word carries exactly the generator's check columns in
/// bits `0..check_len` and zeros above.
pub fn validate_source(src: &str, lang: Lang, g: &Generator) -> Report {
    let mut report = Report {
        diags: Vec::new(),
        xor_count: 0,
        outputs: g.check_len(),
    };
    if g.check_len() > 64 {
        report.push(
            LintClass::WidthOverflow,
            Severity::Error,
            None,
            format!(
                "generator has {} check bits; sources return a u64",
                g.check_len()
            ),
        );
        return report;
    }
    let func = match parse::parse_encode_checks(src, lang) {
        Ok(f) => f,
        Err(msg) => {
            report.push(LintClass::Parse, Severity::Error, None, msg);
            return report;
        }
    };
    report.xor_count = parse::count_xors(&func);

    let k = g.data_len();
    let words = match func.shape {
        ParamShape::Scalar => {
            if k > 64 {
                report.push(
                    LintClass::InputRange,
                    Severity::Error,
                    None,
                    format!("scalar data parameter cannot carry {k} data bits"),
                );
                return report;
            }
            1
        }
        ParamShape::Array(w) => {
            if w * 64 < k {
                report.push(
                    LintClass::InputRange,
                    Severity::Error,
                    None,
                    format!(
                        "data parameter has {w} words ({} bits) but data_len is {k}",
                        w * 64
                    ),
                );
                return report;
            }
            w
        }
    };

    let mut ev = Ev {
        g,
        report: &mut report,
        p: words * 64,
        param: func.param.clone(),
        shape: func.shape,
        env: HashMap::new(),
        pending: HashMap::new(),
        values: HashMap::new(),
    };
    ev.run(&func);
    report
}

impl Ev<'_> {
    fn run(&mut self, func: &Func) {
        let mut returned = false;
        for (si, stmt) in func.stmts.iter().enumerate() {
            match stmt {
                Stmt::Decl { name, init } => {
                    let slot = match init {
                        None => Slot::Unset,
                        Some(e) => self.define(name, si, e),
                    };
                    self.env.insert(name.clone(), slot);
                }
                Stmt::Assign { name, op, expr } => {
                    if !self.env.contains_key(name) && name != &self.param {
                        self.report.push(
                            LintClass::Parse,
                            Severity::Error,
                            None,
                            format!("assignment to undeclared variable `{name}`"),
                        );
                        continue;
                    }
                    let slot = match op {
                        AssignOp::Set => self.define(name, si, expr),
                        AssignOp::OrEq | AssignOp::XorEq => {
                            // compound assigns read their own target, so
                            // they never shadow an unread definition
                            let old = self.read_var(name);
                            let rhs = self.eval(expr);
                            let slot = match (old, rhs) {
                                (Some(a), Some(b)) => {
                                    let combined = match op {
                                        AssignOp::OrEq => self.bit_or(&a, &b),
                                        _ => Some(bit_xor(&a, &b)),
                                    };
                                    match combined {
                                        Some(w) => Slot::Val(w),
                                        None => Slot::Poisoned,
                                    }
                                }
                                _ => Slot::Poisoned,
                            };
                            self.pending.insert(name.clone(), si);
                            slot
                        }
                    };
                    self.env.insert(name.clone(), slot);
                }
                Stmt::Return { expr } => {
                    returned = true;
                    if let Some(word) = self.eval(expr) {
                        self.check_result(&word);
                    }
                    break;
                }
            }
        }
        if !returned {
            self.report.push(
                LintClass::Parse,
                Severity::Error,
                None,
                "encode_checks never returns a value".to_string(),
            );
        }
        // definitions never read by any later statement or the return
        let mut unread: Vec<(String, usize)> =
            self.pending.iter().map(|(n, &s)| (n.clone(), s)).collect();
        unread.sort_by_key(|(_, s)| *s);
        for (name, si) in unread {
            self.report.push(
                LintClass::DeadGate,
                Severity::Warning,
                None,
                format!("value assigned to `{name}` (statement {si}) is never read"),
            );
        }
    }

    /// Evaluates a defining assignment: dead-store and duplicate-value
    /// bookkeeping plus the evaluation itself.
    fn define(&mut self, name: &str, si: usize, expr: &Expr) -> Slot {
        if let Some(&prev) = self.pending.get(name) {
            self.report.push(
                LintClass::DeadGate,
                Severity::Warning,
                None,
                format!("value assigned to `{name}` (statement {prev}) is overwritten before being read"),
            );
        }
        let slot = match self.eval(expr) {
            Some(w) => {
                // duplicate detection, for genuinely computed values only
                if w.iter().any(|b| b.form.count_ones() >= 2) {
                    if let Some(first) = self.values.get(&w) {
                        if first != name {
                            let first = first.clone();
                            self.report.push(
                                LintClass::DuplicateGate,
                                Severity::Warning,
                                None,
                                format!("`{name}` recomputes the value already held by `{first}`"),
                            );
                        }
                    } else {
                        self.values.insert(w.clone(), name.to_string());
                    }
                }
                Slot::Val(w)
            }
            None => Slot::Poisoned,
        };
        self.pending.insert(name.to_string(), si);
        slot
    }

    /// Reads a variable, clearing its pending-unread mark.
    fn read_var(&mut self, name: &str) -> Option<SymWord> {
        self.pending.remove(name);
        match self.env.get(name) {
            Some(Slot::Val(w)) => Some(w.clone()),
            Some(Slot::Poisoned) => None,
            Some(Slot::Unset) => {
                self.report.push(
                    LintClass::UnboundOutput,
                    Severity::Error,
                    None,
                    format!("variable `{name}` is read before any value is assigned"),
                );
                // poison so the error reports once
                self.env.insert(name.to_string(), Slot::Poisoned);
                None
            }
            None => {
                self.report.push(
                    LintClass::Parse,
                    Severity::Error,
                    None,
                    format!("undefined variable `{name}`"),
                );
                self.env.insert(name.to_string(), Slot::Poisoned);
                None
            }
        }
    }

    /// The abstract word for data word `w` of the parameter.
    fn param_word(&mut self, w: usize) -> Option<SymWord> {
        let words = self.p / 64;
        if w >= words {
            self.report.push(
                LintClass::InputRange,
                Severity::Error,
                None,
                format!("data word index {w} out of range (parameter has {words} words)"),
            );
            return None;
        }
        Some((0..64).map(|i| AffBit::input(self.p, w * 64 + i)).collect())
    }

    fn eval(&mut self, expr: &Expr) -> Option<SymWord> {
        match expr {
            Expr::Num(n) => Some(const_word(self.p, *n)),
            Expr::Var(name) => {
                if name == &self.param {
                    match self.shape {
                        ParamShape::Scalar => self.param_word(0),
                        ParamShape::Array(_) => {
                            self.report.push(
                                LintClass::Parse,
                                Severity::Error,
                                None,
                                format!("array parameter `{name}` used without an index"),
                            );
                            None
                        }
                    }
                } else {
                    self.read_var(name)
                }
            }
            Expr::Index(name, w) => {
                if name == &self.param && matches!(self.shape, ParamShape::Array(_)) {
                    self.param_word(*w)
                } else {
                    self.report.push(
                        LintClass::Parse,
                        Severity::Error,
                        None,
                        format!("indexing `{name}` is not supported"),
                    );
                    None
                }
            }
            Expr::Not(inner) => {
                self.eval(inner)?;
                self.report.push(
                    LintClass::NonLinearOp,
                    Severity::Error,
                    None,
                    "unary `~`/`!` has no GF(2)-linear semantics here".to_string(),
                );
                None
            }
            Expr::Chain(first, rest) => {
                // both operands are evaluated before either can fail,
                // so each reports its own lints
                let mut acc = self.eval(first);
                for (op, e) in rest {
                    let w = self.eval(e);
                    acc = match (acc, w) {
                        (Some(wa), Some(wb)) => self.apply(*op, wa, wb),
                        _ => None,
                    };
                }
                acc
            }
        }
    }

    /// `wa op wb` over abstract words.
    fn apply(&mut self, op: BinOp, wa: SymWord, wb: SymWord) -> Option<SymWord> {
        match op {
            BinOp::Xor => Some(bit_xor(&wa, &wb)),
            BinOp::And => self.bit_and(&wa, &wb),
            BinOp::Or => self.bit_or(&wa, &wb),
            BinOp::Shl | BinOp::Shr => {
                let Some(s) = word_as_const(&wb) else {
                    self.report.push(
                        LintClass::NonLinearOp,
                        Severity::Error,
                        None,
                        "shift by a non-constant amount".to_string(),
                    );
                    return None;
                };
                if s >= 64 {
                    self.report.push(
                        LintClass::ShiftRange,
                        Severity::Error,
                        None,
                        format!("shift by {s} exceeds the 64-bit word (undefined behaviour)"),
                    );
                    return None;
                }
                let s = s as usize;
                let zero = AffBit::konst(self.p, false);
                Some(match op {
                    BinOp::Shl => (0..64)
                        .map(|i| {
                            if i >= s {
                                wa[i - s].clone()
                            } else {
                                zero.clone()
                            }
                        })
                        .collect(),
                    _ => (0..64)
                        .map(|i| wa.get(i + s).cloned().unwrap_or_else(|| zero.clone()))
                        .collect(),
                })
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                self.report.push(
                    LintClass::NonLinearOp,
                    Severity::Error,
                    None,
                    format!(
                        "operator `{}` has no GF(2)-linear semantics (carries cross bit lanes)",
                        op.symbol()
                    ),
                );
                None
            }
        }
    }

    /// `&` is linear only against a constant mask.
    fn bit_and(&mut self, a: &SymWord, b: &SymWord) -> Option<SymWord> {
        let (mask, other) = if word_as_const(a).is_some() {
            (a, b)
        } else if word_as_const(b).is_some() {
            (b, a)
        } else {
            self.report.push(
                LintClass::NonLinearOp,
                Severity::Error,
                None,
                "`&` of two non-constant values is not GF(2)-linear".to_string(),
            );
            return None;
        };
        Some(
            (0..64)
                .map(|i| {
                    if mask[i].c {
                        other[i].clone()
                    } else {
                        AffBit::konst(self.p, false)
                    }
                })
                .collect(),
        )
    }

    /// `|` is accepted only where each bit has a provably constant-0
    /// side — the disjoint accumulator pattern `c |= (b & 1) << j`.
    fn bit_or(&mut self, a: &SymWord, b: &SymWord) -> Option<SymWord> {
        let mut out = Vec::with_capacity(64);
        for (i, (ba, bb)) in a.iter().zip(b).enumerate() {
            let bit = match (ba.as_const(), bb.as_const()) {
                (Some(x), Some(y)) => AffBit::konst(self.p, x | y),
                (Some(false), None) => bb.clone(),
                (None, Some(false)) => ba.clone(),
                _ => {
                    self.report.push(
                        LintClass::NonLinearOp,
                        Severity::Error,
                        None,
                        format!("`|` operands may overlap at bit {i}; cannot prove disjointness"),
                    );
                    return None;
                }
            };
            out.push(bit);
        }
        Some(out)
    }

    /// Proves the returned word against the generator columns.
    fn check_result(&mut self, word: &SymWord) {
        let k = self.g.data_len();
        let r = self.g.check_len();
        for (j, bit) in word.iter().enumerate().take(r) {
            if bit.c {
                self.report.push(
                    LintClass::ExtraTerm,
                    Severity::Error,
                    Some(j),
                    format!("check bit {j} carries a constant 1 the code does not define"),
                );
            }
            // out-of-range inputs are their own class, not extra-term
            let mut in_range = BitVec::zeros(k);
            for y in bit.form.iter_ones() {
                if y < k {
                    in_range.set(y, true);
                } else {
                    self.report.push(
                        LintClass::InputRange,
                        Severity::Error,
                        Some(j),
                        format!("check bit {j} depends on data bit {y}, beyond data_len {k}"),
                    );
                }
            }
            compare_form(self.report, j, &in_range, &self.g.check_column(j));
        }
        for (j, bit) in word.iter().enumerate().skip(r) {
            if bit.as_const() != Some(false) {
                self.report.push(
                    LintClass::WidthOverflow,
                    Severity::Error,
                    Some(j),
                    format!("result bit {j} is not zero, beyond check width {r}"),
                );
            }
        }
    }
}

fn bit_xor(a: &SymWord, b: &SymWord) -> SymWord {
    (0..64).map(|i| a[i].xor(&b[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codegen::{emit_c, emit_rust, Circuit};
    use fec_hamming::standards;

    #[test]
    fn emitted_c_and_rust_validate_exactly() {
        for g in [
            standards::hamming_7_4(),
            standards::hamming_extended_8_4(),
            standards::shortened_hamming(32, 6).unwrap(),
            standards::parity_code(16),
        ] {
            let c = Circuit::from_generator(&g);
            let rc = validate_source(&emit_c(&c, Some(21)), Lang::C, &g);
            assert!(rc.is_valid(), "C {:?}: {:?}", g, rc.diags);
            let rr = validate_source(&emit_rust(&c), Lang::Rust, &g);
            assert!(rr.is_valid(), "Rust {:?}: {:?}", g, rr.diags);
            // xor count: len_1 - columns with ≥1 term, plus nothing else
            let nonempty = (0..g.check_len())
                .filter(|&j| g.check_column(j).count_ones() > 0)
                .count();
            assert_eq!(rc.xor_count, g.coefficient_ones() - nonempty);
            assert_eq!(rr.xor_count, rc.xor_count);
        }
    }

    #[test]
    fn wrong_generator_is_refuted() {
        let g = standards::hamming_7_4();
        let other = standards::hamming_extended_8_4();
        let src = emit_c(&Circuit::from_generator(&g), None);
        let r = validate_source(&src, Lang::C, &other);
        assert!(!r.is_valid());
    }

    #[test]
    fn nonlinear_source_is_rejected_with_class() {
        let g = standards::hamming_7_4();
        let src = emit_c(&Circuit::from_generator(&g), None).replace("(d >> 1)", "(d + 1)");
        let r = validate_source(&src, Lang::C, &g);
        assert!(!r.is_valid());
        assert!(r.has_class(LintClass::NonLinearOp), "{:?}", r.diags);
    }

    #[test]
    fn uninitialized_read_is_unbound_output() {
        let g = standards::parity_code(4);
        let src = "uint64_t encode_checks(uint64_t d) {\n\
                   \x20   uint64_t c = 0, b;\n\
                   \x20   c |= (b & 1) << 0;\n\
                   \x20   return c;\n}";
        let r = validate_source(src, Lang::C, &g);
        assert!(r.has_class(LintClass::UnboundOutput));
    }

    #[test]
    fn flat_chain_of_100000_terms_returns_a_verdict() {
        // one flat `^` chain, the shape a wide parity check takes: it
        // parses to one chain node, so evaluating, counting and
        // dropping it never recurse once per term
        let g = Generator::from_coeff_str("1").expect("one data bit, one check bit");
        let n = 100_001;
        let chain = vec!["d"; n].join(" ^ ");
        let src = format!("uint64_t encode_checks(uint64_t d) {{\n    return ({chain}) & 1;\n}}");
        let r = validate_source(&src, Lang::C, &g);
        assert!(r.is_valid(), "{:?}", r.diags);
        assert_eq!(r.xor_count, n - 1);
    }

    #[test]
    fn width_overflow_is_detected() {
        let g = standards::parity_code(4); // 1 check bit
        let src = "uint64_t encode_checks(uint64_t d) {\n\
                   \x20   uint64_t c = 0;\n\
                   \x20   c |= ((d >> 0) ^ (d >> 1) ^ (d >> 2) ^ (d >> 3)) & 1;\n\
                   \x20   c |= (d & 1) << 7;\n\
                   \x20   return c;\n}";
        let r = validate_source(src, Lang::C, &g);
        assert!(r.has_class(LintClass::WidthOverflow));
    }
}
