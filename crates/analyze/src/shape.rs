//! Structural extraction: compiling a parsed property into the
//! per-generator constraints CEGIS solves (`initSolvers`' analysis
//! phase).
//!
//! The one builder, `ProblemShape::from_canon`, reads a spec's
//! canonical form ([`crate::canon`]), in which every comparison is
//! already folded, normalized and narrowed to one bound of each kind
//! per measurement. `fecsynth analyze` and `fecsynth synth` both build
//! their shape here, so they agree, by construction, on what a spec
//! means: a contradiction the canonicalizer finds is
//! [`SpecError::Inconsistent`], and `corr(Gi) ⋈ t` next to a fixed
//! `md(Gi) = d` is checked as `⌊(d − 1)/2⌋ ⋈ t`.

use crate::canon::{canonicalize, CanonReport, LintClass};
use crate::spec::{CmpOp, Expr, GenFn, Prop};
use std::collections::BTreeMap;
use std::fmt;

/// The longest code (`len_d` plus the widest admissible `len_c`) a
/// spec may ask for. The bounds engine sums Hamming balls term by term,
/// in time linear in the length, so longer codes are refused up front
/// instead of analyzed for hours.
pub const MAX_CODE_LEN: usize = 1 << 16;

/// The check-length bound when a property leaves `len_c` open: the
/// window synthesis searches and the default of `fecsynth analyze
/// --max-check`.
pub const DEFAULT_MAX_CHECK: usize = 14;

/// A static spec error found before any solver runs.
#[derive(Clone, PartialEq, Debug)]
pub enum SpecError {
    /// The property uses a construct the structural extractor does not
    /// support (the paper's tool has the same shape: props are compiled
    /// into solver assertions, not interpreted).
    Unsupported(String),
    /// The property is structurally inconsistent (e.g. conflicting
    /// equalities).
    Inconsistent(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Unsupported(s) => write!(f, "unsupported property: {s}"),
            SpecError::Inconsistent(s) => write!(f, "inconsistent property: {s}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The structural facts extracted from a property.
#[derive(Clone, Debug)]
pub struct ProblemShape {
    pub gens: Vec<GenShape>,
    pub objective: Option<Objective>,
}

/// Per-generator structural constraints.
#[derive(Clone, Debug)]
pub struct GenShape {
    pub data_len: usize,
    pub min_distance: usize,
    pub check_lo: usize,
    pub check_hi: usize,
    pub ones_lo: Option<usize>,
    pub ones_hi: Option<usize>,
    /// Pinned coefficient cells `(row, check_col, value)` (from
    /// `Gi(r, c) = b` conjuncts; `check_col` is relative to `P`).
    pub pinned_cells: Vec<(usize, usize, bool)>,
}

impl GenShape {
    /// `true` when the shape is exactly an `[n, k, d]` requirement:
    /// no pinned cells and no ones-count side constraints. Only such
    /// shapes can be declared `TriviallyFeasible` from the
    /// Gilbert–Varshamov bound alone.
    pub fn is_pure_point(&self) -> bool {
        self.pinned_cells.is_empty() && self.ones_lo.is_none() && self.ones_hi.is_none()
    }
}

/// A single optimization directive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    MinCheckLen(usize),
    MaxCheckLen(usize),
    MinOnes(usize),
    MaxOnes(usize),
    /// `maximal(md(Gi))`: grow the required minimum distance until the
    /// solver fails or the static `d_hi` clamp is reached (the
    /// champion-code hunt of ROADMAP item 5).
    MaxDistance(usize),
}

impl ProblemShape {
    /// Compiles a parsed property into structural constraints by way
    /// of its canonical form. `default_max_check` bounds the check
    /// length when the property gives no upper bound.
    pub fn from_prop(prop: &Prop, default_max_check: usize) -> Result<ProblemShape, SpecError> {
        ProblemShape::from_canon(&canonicalize(prop), default_max_check)
    }

    /// Reads a canonical form: every comparison has its measurement on
    /// the left and a folded constant on the right, strict bounds are
    /// widened, and each measurement carries either one equality or at
    /// most one bound of each direction, so each arm below only
    /// records. A distance stays a lower bound: `md(Gi) = d` asks for
    /// `md ≥ d`, and `md(Gi) <= d` is unsupported unless an equality
    /// subsumes it.
    pub(crate) fn from_canon(
        canon: &CanonReport,
        default_max_check: usize,
    ) -> Result<ProblemShape, SpecError> {
        let lint = |class| canon.lints.iter().find(|l| l.class == class);
        if let Some(l) = lint(LintClass::Contradiction) {
            return Err(SpecError::Inconsistent(l.message.clone()));
        }
        if let Some(l) = lint(LintClass::DuplicateDirective) {
            return Err(SpecError::Unsupported(l.message.clone()));
        }

        let mut len_g: Option<usize> = None;
        #[derive(Default)]
        struct Partial<'a> {
            data_len: Option<usize>,
            /// `md = d` (fixed) or `md >= d`.
            md: Option<(CmpOp, usize)>,
            corr: Vec<(&'a Prop, CmpOp, usize)>,
            c_lo: Option<usize>,
            c_hi: Option<usize>,
            ones_lo: Option<usize>,
            ones_hi: Option<usize>,
            cells: Vec<(usize, usize, bool)>,
        }
        // keyed by generator index: a spec's indices (and len_G) are
        // input, so nothing here is sized by one
        let mut partials: BTreeMap<usize, Partial> = BTreeMap::new();
        let mut objective: Option<Objective> = None;

        for conj in canon.prop.conjuncts() {
            match conj {
                Prop::True => {}
                Prop::Minimal(Expr::GenFn(func, g)) | Prop::Maximal(Expr::GenFn(func, g)) => {
                    let i = natural(g).ok_or_else(|| unsupported(conj))?;
                    let is_min = matches!(conj, Prop::Minimal(_));
                    objective = Some(match (func, is_min) {
                        (GenFn::LenC, true) => Objective::MinCheckLen(i),
                        (GenFn::LenC, false) => Objective::MaxCheckLen(i),
                        (GenFn::LenOnes, true) => Objective::MinOnes(i),
                        (GenFn::LenOnes, false) => Objective::MaxOnes(i),
                        (GenFn::Md, false) => Objective::MaxDistance(i),
                        _ => return Err(unsupported(conj)),
                    });
                }
                Prop::Cmp(op, measure, bound) => {
                    let value = bound.constant().ok_or_else(|| unsupported(conj))?;
                    if value < 0.0 || value.fract() != 0.0 {
                        return Err(SpecError::Inconsistent(format!(
                            "non-natural bound in {conj}"
                        )));
                    }
                    let v = value as usize;
                    match (measure, op) {
                        (Expr::LenG, CmpOp::Eq) => len_g = Some(v),
                        (Expr::GenFn(func, g), op) => {
                            let i = natural(g).ok_or_else(|| unsupported(conj))?;
                            let p = partials.entry(i).or_default();
                            match (func, op) {
                                (GenFn::LenD, CmpOp::Eq) => p.data_len = Some(v),
                                (GenFn::Md, CmpOp::Eq | CmpOp::Ge) => p.md = Some((*op, v)),
                                (GenFn::Corr, CmpOp::Eq | CmpOp::Ge | CmpOp::Le) => {
                                    p.corr.push((conj, *op, v))
                                }
                                (GenFn::LenC, CmpOp::Eq) => (p.c_lo, p.c_hi) = (Some(v), Some(v)),
                                (GenFn::LenC, CmpOp::Le) => p.c_hi = Some(v),
                                (GenFn::LenC, CmpOp::Ge) => p.c_lo = Some(v),
                                (GenFn::LenOnes, CmpOp::Eq) => {
                                    (p.ones_lo, p.ones_hi) = (Some(v), Some(v))
                                }
                                (GenFn::LenOnes, CmpOp::Le) => p.ones_hi = Some(v),
                                (GenFn::LenOnes, CmpOp::Ge) => p.ones_lo = Some(v),
                                _ => return Err(unsupported(conj)),
                            }
                        }
                        (Expr::Cell { gen, row, col }, CmpOp::Eq) if v <= 1 => {
                            let (Some(i), Some(r), Some(c)) =
                                (natural(gen), natural(row), natural(col))
                            else {
                                return Err(unsupported(conj));
                            };
                            partials.entry(i).or_default().cells.push((r, c, v == 1));
                        }
                        _ => return Err(unsupported(conj)),
                    }
                }
                other => return Err(unsupported(other)),
            }
        }

        let last = partials.keys().next_back().copied();
        let n = match (len_g, last) {
            (Some(n), Some(i)) if i >= n => {
                return Err(SpecError::Inconsistent(format!(
                    "constraints mention G{i} but len_G = {n}"
                )))
            }
            (Some(n), _) => n,
            (None, last) => last.map_or(1, |i| i.saturating_add(1)),
        };
        // every generator needs its len_d, so the loop stops at the
        // first unmentioned index: it runs at most once per partial
        let mut gens = Vec::new();
        for i in 0..n {
            let p = partials.remove(&i).unwrap_or_default();
            let data_len = p.data_len.ok_or_else(|| {
                SpecError::Unsupported(format!("len_d(G{i}) must be fixed by the property"))
            })?;
            let mut min_distance = p.md.map_or(1, |(_, d)| d);
            for (conj, op, t) in p.corr {
                match p.md {
                    // a fixed md decides corr = ⌊(md − 1)/2⌋
                    Some((CmpOp::Eq, d)) => {
                        let corr = d.saturating_sub(1) / 2;
                        let holds = match op {
                            CmpOp::Eq => corr == t,
                            CmpOp::Ge => corr >= t,
                            _ => corr <= t,
                        };
                        if !holds {
                            return Err(SpecError::Inconsistent(format!(
                                "{conj} contradicts md(G[{i}]) = {d}"
                            )));
                        }
                    }
                    // §6 extension: nearest-syndrome decoding corrects
                    // t errors iff md ≥ 2t + 1
                    _ if op != CmpOp::Le => {
                        min_distance = min_distance.max(t.saturating_mul(2).saturating_add(1));
                    }
                    _ => return Err(unsupported(conj)),
                }
            }
            let check_hi = p.c_hi.unwrap_or(default_max_check).max(1);
            let check_lo = p.c_lo.unwrap_or(1).max(1);
            if check_lo > check_hi {
                return Err(SpecError::Inconsistent(format!(
                    "len_c(G{i}) bounds [{check_lo}, {check_hi}] are empty"
                )));
            }
            let n = data_len.saturating_add(check_hi);
            if n > MAX_CODE_LEN {
                return Err(SpecError::Unsupported(format!(
                    "G{i} may be {n} bits long; codes longer than {MAX_CODE_LEN} bits are not supported"
                )));
            }
            // pinned cells: property indexes the full G; map to P columns
            let mut pinned = Vec::new();
            for (r, c, v) in p.cells {
                if r >= data_len {
                    return Err(SpecError::Inconsistent(format!(
                        "G{i}({r}, {c}) row out of range"
                    )));
                }
                if c < data_len {
                    // identity part: must agree with I
                    if (c == r) != v {
                        return Err(SpecError::Inconsistent(format!(
                            "G{i}({r}, {c}) contradicts the identity block"
                        )));
                    }
                } else {
                    pinned.push((r, c - data_len, v));
                }
            }
            gens.push(GenShape {
                data_len,
                min_distance,
                check_lo,
                check_hi,
                ones_lo: p.ones_lo,
                ones_hi: p.ones_hi,
                pinned_cells: pinned,
            });
        }
        Ok(ProblemShape { gens, objective })
    }
}

fn unsupported(p: &Prop) -> SpecError {
    SpecError::Unsupported(p.to_string())
}

/// The value of a folded index or bound that is a natural number.
fn natural(e: &Expr) -> Option<usize> {
    e.constant()
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;

    const MAX_CHECK: usize = 14;

    #[test]
    fn codes_past_the_length_cap_are_refused() {
        for src in [
            "len_d(G0) = 1000000000",
            "len_d(G0) = 4 && len_c(G0) <= 70000",
        ] {
            let p = parse_property(src).unwrap();
            assert!(
                matches!(
                    ProblemShape::from_prop(&p, MAX_CHECK),
                    Err(SpecError::Unsupported(_))
                ),
                "{src}"
            );
        }
    }

    #[test]
    fn shape_extraction_section31_example() {
        let p = parse_property(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert_eq!(shape.gens.len(), 1);
        let g = &shape.gens[0];
        assert_eq!(
            (g.data_len, g.min_distance, g.check_lo, g.check_hi),
            (4, 3, 1, 4)
        );
        assert!(g.is_pure_point());
        assert_eq!(shape.objective, Some(Objective::MinCheckLen(0)));
    }

    #[test]
    fn shape_extraction_rejects_unsupported() {
        for src in [
            "md(G0) = 3",                           // no len_d
            "len_d(G0) = 4 && sum_w < 3",           // sum_w needs the weighted API
            "len_d(G0) = 4 || md(G0) = 3",          // top-level disjunction
            "len_d(G0) = 4 && len_d(G0) = 5",       // inconsistent
            "len_d(G0) = 4 && 3 <= len_c(G0) <= 2", // empty bounds
            "len_d(G0) = 4 && minimal(md(G0))",     // minimizing distance
        ] {
            let p = parse_property(src).unwrap();
            assert!(
                ProblemShape::from_prop(&p, MAX_CHECK).is_err(),
                "should reject {src:?}"
            );
        }
    }

    #[test]
    fn huge_generator_counts_fail_before_allocating() {
        // each would otherwise size a vector by an index or by len_G
        for (src, missing) in [
            ("len_d(G10000000) = 4", "len_d(G0)"),
            ("len_d(G9999999999999) = 4", "len_d(G0)"),
            ("len_G = 100000000000 && len_d(G0) = 4", "len_d(G1)"),
        ] {
            let p = parse_property(src).unwrap();
            let err = ProblemShape::from_prop(&p, MAX_CHECK).unwrap_err();
            assert_eq!(
                err,
                SpecError::Unsupported(format!("{missing} must be fixed by the property")),
                "{src}"
            );
        }
    }

    #[test]
    fn maximal_distance_objective_extracted() {
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 4 && md(G0) >= 2 && maximal(md(G0))")
            .unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert_eq!(shape.objective, Some(Objective::MaxDistance(0)));
        assert_eq!(shape.gens[0].min_distance, 2);
    }

    #[test]
    fn identity_cell_constraints_checked() {
        let p = parse_property("len_d(G0) = 4 && G0(0, 0) = 0").unwrap();
        assert!(matches!(
            ProblemShape::from_prop(&p, MAX_CHECK),
            Err(SpecError::Inconsistent(_))
        ));
    }

    #[test]
    fn contradictions_are_inconsistent_in_any_order() {
        for src in [
            "len_d(G0) = 4 && len_c(G0) = 4 && len_c(G0) = 5",
            "len_d(G0) = 4 && len_1(G0) = 3 && len_1(G0) = 9",
            "len_d(G0) = 4 && md(G0) = 3 && md(G0) >= 5",
            "len_d(G0) = 4 && 2 < 1",
        ] {
            let p = parse_property(src).unwrap();
            let mut conjuncts = p.conjuncts();
            conjuncts.reverse();
            let reversed = conjuncts
                .into_iter()
                .cloned()
                .reduce(|a, b| Prop::And(Box::new(a), Box::new(b)))
                .unwrap();
            for p in [p.clone(), reversed] {
                assert!(
                    matches!(
                        ProblemShape::from_prop(&p, MAX_CHECK),
                        Err(SpecError::Inconsistent(_))
                    ),
                    "{p}"
                );
            }
        }
    }

    #[test]
    fn corr_is_checked_against_a_fixed_distance() {
        let shape = |src: &str| ProblemShape::from_prop(&parse_property(src).unwrap(), MAX_CHECK);
        // ⌊(4 − 1)/2⌋ = 1: corr = 1, corr >= 1 and corr <= 1 all hold
        for corr in ["corr(G0) = 1", "corr(G0) >= 1", "corr(G0) <= 1"] {
            let s = shape(&format!("len_d(G0) = 4 && {corr} && md(G0) = 4")).unwrap();
            assert_eq!(s.gens[0].min_distance, 4, "{corr}");
        }
        for corr in ["corr(G0) = 2", "corr(G0) >= 2", "corr(G0) <= 0"] {
            let e = shape(&format!("len_d(G0) = 4 && md(G0) = 4 && {corr}")).unwrap_err();
            assert!(matches!(e, SpecError::Inconsistent(_)), "{corr}: {e}");
        }
        // without a fixed md, corr >= t lowers to md >= 2t + 1
        let s = shape("len_d(G0) = 4 && md(G0) >= 3 && corr(G0) >= 2").unwrap();
        assert_eq!(s.gens[0].min_distance, 5);
        let e = shape("len_d(G0) = 4 && corr(G0) <= 2").unwrap_err();
        assert!(matches!(e, SpecError::Unsupported(_)), "{e}");
    }

    #[test]
    fn one_directive_at_most() {
        for src in [
            "len_d(G0) = 4 && minimal(len_c(G0)) && maximal(len_1(G0))",
            "minimal(len_c(G0)) && len_d(G0) = 4 && maximal(md(G0))",
        ] {
            let p = parse_property(src).unwrap();
            let e = ProblemShape::from_prop(&p, MAX_CHECK).unwrap_err();
            assert!(e.to_string().contains("optimization directives"), "{e}");
        }
        // a repeated directive is one directive
        let p =
            parse_property("len_d(G0) = 4 && minimal(len_c(G0)) && minimal(len_c(G0))").unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert_eq!(shape.objective, Some(Objective::MinCheckLen(0)));
    }

    #[test]
    fn pinned_cells_make_shape_impure() {
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 3 && G0(0, 4) = 1").unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert!(!shape.gens[0].is_pure_point());
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 3 && len_1(G0) <= 9").unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert!(!shape.gens[0].is_pure_point());
    }
}
