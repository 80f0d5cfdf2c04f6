//! **fec-circ** — static translation validation, lints, and a
//! cancellation-aware common-subexpression-elimination minimizer over
//! the XOR-circuit IR, plus the runtime kernels compiled from it.
//!
//! The paper's §4.4 emits per-generator C encoders and argues that
//! minimizing `len_1` (total set coefficient bits) minimizes encode
//! cost. `fec-codegen` produces every encoder in the workspace as an
//! XOR [`Circuit`] and prints it as C or Rust; this crate re-exports
//! that IR and, following the proof-carrying discipline of the
//! DRAT/RUP certification stack (`fec-drat`), gives every artifact a
//! statically checkable equivalence argument:
//!
//! - [`validate_circuit`]: a symbolic GF(2) evaluator that computes
//!   each output's exact linear form as a bitset over the inputs and
//!   proves it equal to the corresponding generator column, plus
//!   structural lints (dead/duplicate gates, unbound outputs,
//!   out-of-range references);
//! - [`validate_source`]: a parser + abstract interpreter over the
//!   *emitted* C and Rust text (no compiler, no execution): every
//!   64-bit value is a vector of affine GF(2) forms, shifts move the
//!   vector, `& 1` projects bit 0, and `|=` accumulation is accepted
//!   only where provably disjoint — so non-linear operators,
//!   out-of-range shifts, and width overflows are rejected as typed
//!   lints rather than silently miscomputing;
//! - [`minimize`]: a greedy cancellation-aware CSE minimizer over the
//!   IR (output differencing with GF(2) cancellation + Paar-style
//!   shared-pair extraction) whose result is accepted **only** if the
//!   validator proves it equivalent to the matrix;
//! - [`validate_forms`]: the six forms every generator is proved in —
//!   the generator circuit, its emitted C and Rust, the minimized
//!   circuit, and its emitted C and Rust — shared by
//!   `fecsynth lint-kernel` and the `codegen_tv` sweep;
//! - [`CircuitKernel`]: a circuit compiled into a flat, allocation-free
//!   runtime evaluator with scalar and 64-lane entry points — the
//!   encode path the Monte-Carlo sweeps and the `fec-stream` datapath
//!   actually execute. It is the only kernel type: a §4.3
//!   `CompositeCode` runs as its combined `CompositeCode::generator()`.
//!
//! Diagnostics carry a [`LintClass`] so failures are machine-checkable
//! (the CLI's `lint-kernel` exit codes and the mutation test-suite key
//! on them) and are mirrored as `fec-trace` events (`circ.lint`).

#![forbid(unsafe_code)]

mod analyze;
mod interp;
mod kernel;
mod minimize;
mod parse;

pub use analyze::validate_circuit;
pub use fec_codegen::{Circuit, Gate, Node, Output};
pub use interp::{validate_source, Lang};
pub use kernel::CircuitKernel;
pub use minimize::{minimize, Minimized};

use fec_codegen::{emit_c, emit_rust};
use fec_hamming::Generator;
use std::fmt;

/// Proves the six forms of `g`'s encoder equal to `g`, in order:
/// `generator-circuit`, `emitted-c`, `emitted-rust`,
/// `minimized-circuit`, `minimized-c`, `minimized-rust`. The emitted
/// forms are the text `fecsynth emit` prints (no benchmark `main`).
/// Returns the minimization too, for its XOR counts.
///
/// # Panics
/// Panics if `g.check_len() > 64` (inherited from `minimize`).
pub fn validate_forms(g: &Generator) -> (Minimized, [(&'static str, Report); 6]) {
    let sparse = Circuit::from_generator(g);
    let m = minimize(g);
    let forms = [
        ("generator-circuit", validate_circuit(&sparse, g)),
        (
            "emitted-c",
            validate_source(&emit_c(&sparse, None), Lang::C, g),
        ),
        (
            "emitted-rust",
            validate_source(&emit_rust(&sparse), Lang::Rust, g),
        ),
        ("minimized-circuit", m.report.clone()),
        (
            "minimized-c",
            validate_source(&emit_c(&m.circuit, None), Lang::C, g),
        ),
        (
            "minimized-rust",
            validate_source(&emit_rust(&m.circuit), Lang::Rust, g),
        ),
    ];
    (m, forms)
}

/// The lint catalogue: every defect class the validator can report.
///
/// Classes are stable, kebab-case-named (see [`LintClass::name`]) and
/// surfaced verbatim in CLI output, trace events, and CI logs, so a
/// specific defect (a flipped coefficient, a dropped term, a bad
/// shift) is always distinguishable from a generic failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintClass {
    /// An operator with no GF(2)-linear abstract semantics in this
    /// position: `+ - * / % ~ !`, `&` of two non-constant values, or
    /// `|` of two values that may overlap.
    NonLinearOp,
    /// A shift count `>= 64` — undefined behaviour in the emitted C.
    ShiftRange,
    /// A reference to a data bit at or beyond `data_len` (an input the
    /// generator does not have).
    InputRange,
    /// An output bit at or beyond the check width (`check_len` or bit
    /// 63) carries a non-zero value, or the code targets more than 64
    /// check bits.
    WidthOverflow,
    /// An output with no binding, or a node reference that does not
    /// resolve (missing gate, forward/self reference).
    UnboundOutput,
    /// A gate (or named temporary) whose value no output depends on.
    DeadGate,
    /// Two gates (or named temporaries) computing the identical value.
    DuplicateGate,
    /// Equivalence failure: a term required by the generator column is
    /// absent from the computed linear form (e.g. a dropped term or a
    /// coefficient flipped 1→0).
    MissingTerm,
    /// Equivalence failure: the computed linear form contains a term
    /// the generator column does not (e.g. a coefficient flipped 0→1),
    /// or a constant 1 folded into an output.
    ExtraTerm,
    /// The source does not lex/parse as the supported straight-line
    /// `&`/`^`/`|`/shift subset (includes undefined variables).
    Parse,
}

impl LintClass {
    /// The stable kebab-case class name used in CLI output, trace
    /// events, and tests.
    pub fn name(self) -> &'static str {
        match self {
            LintClass::NonLinearOp => "non-linear-op",
            LintClass::ShiftRange => "shift-range",
            LintClass::InputRange => "input-range",
            LintClass::WidthOverflow => "width-overflow",
            LintClass::UnboundOutput => "unbound-output",
            LintClass::DeadGate => "dead-gate",
            LintClass::DuplicateGate => "duplicate-gate",
            LintClass::MissingTerm => "missing-term",
            LintClass::ExtraTerm => "extra-term",
            LintClass::Parse => "parse",
        }
    }
}

impl fmt::Display for LintClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a diagnostic refutes the artifact or merely flags waste.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but semantics-preserving (dead/duplicate gates).
    Warning,
    /// The artifact is *not* a faithful translation of the matrix (or
    /// is not analyzable); validation fails.
    Error,
}

/// One diagnostic from validation: a class, a severity, the check
/// column it concerns (when column-local), and a human-readable
/// message.
#[derive(Clone, Debug)]
pub struct Diag {
    pub class: LintClass,
    pub severity: Severity,
    /// The check column the finding is attached to, when column-local.
    pub column: Option<usize>,
    pub message: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: class={}",
            match self.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            },
            self.class
        )?;
        if let Some(c) = self.column {
            write!(f, " column={c}")?;
        }
        write!(f, " msg={:?}", self.message)
    }
}

/// The result of validating one artifact against a generator matrix.
#[derive(Clone, Debug)]
pub struct Report {
    /// All diagnostics, in discovery order.
    pub diags: Vec<Diag>,
    /// XOR operation count of the artifact (gates for circuits, `^`
    /// operators for sources).
    pub xor_count: usize,
    /// Number of check-bit outputs examined.
    pub outputs: usize,
}

impl Report {
    /// `true` when the artifact is *proved* equivalent to the matrix:
    /// every output's symbolic linear form equals its generator column
    /// and no error-severity lint fired. Warnings do not block.
    pub fn is_valid(&self) -> bool {
        !self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Diagnostics at error severity.
    pub fn errors(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// `true` when some diagnostic has the given class.
    pub fn has_class(&self, class: LintClass) -> bool {
        self.diags.iter().any(|d| d.class == class)
    }

    pub(crate) fn push(
        &mut self,
        class: LintClass,
        severity: Severity,
        column: Option<usize>,
        message: String,
    ) {
        // mirror every diagnostic into the trace stream so `--trace`
        // runs see lints exactly where they fired
        fec_trace::event!(
            match severity {
                Severity::Warning => fec_trace::Level::Warn,
                Severity::Error => fec_trace::Level::Error,
            },
            "circ.lint",
            "class" => class.name(),
            "column" => column.map_or(-1i64, |c| c as i64),
            "msg" => message.as_str(),
        );
        self.diags.push(Diag {
            class,
            severity,
            column,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_are_stable_and_distinct() {
        let all = [
            LintClass::NonLinearOp,
            LintClass::ShiftRange,
            LintClass::InputRange,
            LintClass::WidthOverflow,
            LintClass::UnboundOutput,
            LintClass::DeadGate,
            LintClass::DuplicateGate,
            LintClass::MissingTerm,
            LintClass::ExtraTerm,
            LintClass::Parse,
        ];
        let names: std::collections::HashSet<&str> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), all.len());
        assert!(names
            .iter()
            .all(|n| n.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-')));
    }

    #[test]
    fn report_validity_ignores_warnings() {
        let mut r = Report {
            diags: vec![],
            xor_count: 0,
            outputs: 1,
        };
        r.push(LintClass::DeadGate, Severity::Warning, None, "w".into());
        assert!(r.is_valid());
        r.push(LintClass::ExtraTerm, Severity::Error, Some(0), "e".into());
        assert!(!r.is_valid());
        assert!(r.has_class(LintClass::ExtraTerm));
        assert_eq!(r.errors().count(), 1);
        let shown = format!("{}", r.diags[1]);
        assert!(shown.contains("class=extra-term") && shown.contains("column=0"));
    }
}
