//! Structural extraction: compiling a parsed property into the
//! per-generator constraints CEGIS solves (`initSolvers`' analysis
//! phase). Moved here from `fec-synth::cegis` so the static analyzer
//! and the synthesizer agree, by construction, on what a spec means.

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
    /// Compiles a parsed property into structural constraints.
    /// `default_max_check` bounds the check length when the property
    /// gives no upper bound.
    pub fn from_prop(prop: &Prop, default_max_check: usize) -> Result<ProblemShape, SpecError> {
        // fold only *pure arithmetic* — measurements like len_G are
        // symbolic here even though EvalContext could evaluate them
        fn fold(e: &Expr) -> Option<f64> {
            Some(match e {
                Expr::Int(n) => *n as f64,
                Expr::Real(r) => *r,
                Expr::Add(a, b) => fold(a)? + fold(b)?,
                Expr::Sub(a, b) => fold(a)? - fold(b)?,
                Expr::Mul(a, b) => fold(a)? * fold(b)?,
                Expr::Neg(a) => -fold(a)?,
                _ => return None,
            })
        }
        let fold_idx = |e: &Expr| {
            let v = fold(e)?;
            (v >= 0.0 && v.fract() == 0.0).then_some(v as usize)
        };

        let mut len_g: Option<usize> = None;
        #[derive(Default)]
        struct Partial {
            data_len: Option<usize>,
            md: Option<usize>,
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

        for conj in prop.conjuncts() {
            match conj {
                Prop::True => {}
                Prop::False => {
                    return Err(SpecError::Inconsistent("property contains false".into()))
                }
                Prop::Minimal(e) | Prop::Maximal(e) => {
                    let is_min = matches!(conj, Prop::Minimal(_));
                    let obj = match e {
                        Expr::GenFn(GenFn::LenC, g) => {
                            let i = fold_idx(g).ok_or_else(|| unsupported(conj))?;
                            if is_min {
                                Objective::MinCheckLen(i)
                            } else {
                                Objective::MaxCheckLen(i)
                            }
                        }
                        Expr::GenFn(GenFn::LenOnes, g) => {
                            let i = fold_idx(g).ok_or_else(|| unsupported(conj))?;
                            if is_min {
                                Objective::MinOnes(i)
                            } else {
                                Objective::MaxOnes(i)
                            }
                        }
                        Expr::GenFn(GenFn::Md, g) if !is_min => {
                            let i = fold_idx(g).ok_or_else(|| unsupported(conj))?;
                            Objective::MaxDistance(i)
                        }
                        _ => return Err(unsupported(conj)),
                    };
                    if objective.replace(obj).is_some() {
                        return Err(SpecError::Unsupported(
                            "multiple optimization directives".into(),
                        ));
                    }
                }
                Prop::Cmp(op, lhs, rhs) => {
                    // normalize: measurement on the left, constant right
                    let (op, measure, value) = match (fold(lhs), fold(rhs)) {
                        (None, Some(v)) => (*op, lhs, v),
                        (Some(v), None) => (flip(*op), rhs, v),
                        _ => return Err(unsupported(conj)),
                    };
                    if value < 0.0 || value.fract() != 0.0 {
                        return Err(SpecError::Inconsistent(format!(
                            "non-natural bound in {conj}"
                        )));
                    }
                    let v = value as usize;
                    match measure {
                        Expr::LenG => match op {
                            CmpOp::Eq => {
                                if len_g.replace(v).is_some_and(|old| old != v) {
                                    return Err(SpecError::Inconsistent(
                                        "conflicting len_G".into(),
                                    ));
                                }
                            }
                            _ => return Err(unsupported(conj)),
                        },
                        Expr::GenFn(func, g) => {
                            let i = fold_idx(g).ok_or_else(|| unsupported(conj))?;
                            let p = partials.entry(i).or_default();
                            match (func, op) {
                                (GenFn::LenD, CmpOp::Eq) => {
                                    if p.data_len.replace(v).is_some_and(|o| o != v) {
                                        return Err(SpecError::Inconsistent(format!(
                                            "conflicting len_d(G{i})"
                                        )));
                                    }
                                }
                                (GenFn::Md, CmpOp::Eq) => {
                                    if p.md.replace(v).is_some_and(|o| o != v) {
                                        return Err(SpecError::Inconsistent(format!(
                                            "conflicting md(G{i})"
                                        )));
                                    }
                                }
                                (GenFn::Md, CmpOp::Ge) => {
                                    p.md = Some(p.md.map_or(v, |o| o.max(v)));
                                }
                                // §6 extension: corr(G) ⋈ t lowers to a
                                // minimum-distance requirement md ≥ 2t+1
                                // (nearest-syndrome decoding corrects t
                                // errors iff md ≥ 2t+1)
                                (GenFn::Corr, CmpOp::Eq) | (GenFn::Corr, CmpOp::Ge) => {
                                    let need = 2 * v + 1;
                                    p.md = Some(p.md.map_or(need, |o| o.max(need)));
                                }
                                (GenFn::LenC, CmpOp::Eq) => {
                                    p.c_lo = Some(v);
                                    p.c_hi = Some(v);
                                }
                                (GenFn::LenC, CmpOp::Le) => set_min(&mut p.c_hi, v),
                                (GenFn::LenC, CmpOp::Lt) => {
                                    set_min(&mut p.c_hi, v.saturating_sub(1))
                                }
                                (GenFn::LenC, CmpOp::Ge) => set_max(&mut p.c_lo, v),
                                (GenFn::LenC, CmpOp::Gt) => set_max(&mut p.c_lo, v + 1),
                                (GenFn::LenOnes, CmpOp::Eq) => {
                                    p.ones_lo = Some(v);
                                    p.ones_hi = Some(v);
                                }
                                (GenFn::LenOnes, CmpOp::Le) => set_min(&mut p.ones_hi, v),
                                (GenFn::LenOnes, CmpOp::Lt) => {
                                    set_min(&mut p.ones_hi, v.saturating_sub(1))
                                }
                                (GenFn::LenOnes, CmpOp::Ge) => set_max(&mut p.ones_lo, v),
                                (GenFn::LenOnes, CmpOp::Gt) => set_max(&mut p.ones_lo, v + 1),
                                _ => return Err(unsupported(conj)),
                            }
                        }
                        Expr::Cell { gen, row, col } => {
                            let (CmpOp::Eq, 0 | 1) = (op, v) else {
                                return Err(unsupported(conj));
                            };
                            let i = fold_idx(gen).ok_or_else(|| unsupported(conj))?;
                            let r = fold_idx(row).ok_or_else(|| unsupported(conj))?;
                            let c = fold_idx(col).ok_or_else(|| unsupported(conj))?;
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
                min_distance: p.md.unwrap_or(1),
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

pub(crate) fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn set_min(slot: &mut Option<usize>, v: usize) {
    *slot = Some(slot.map_or(v, |o| o.min(v)));
}

fn set_max(slot: &mut Option<usize>, v: usize) {
    *slot = Some(slot.map_or(v, |o| o.max(v)));
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
    fn pinned_cells_make_shape_impure() {
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 3 && G0(0, 4) = 1").unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert!(!shape.gens[0].is_pure_point());
        let p = parse_property("len_d(G0) = 4 && len_c(G0) = 3 && len_1(G0) <= 9").unwrap();
        let shape = ProblemShape::from_prop(&p, MAX_CHECK).unwrap();
        assert!(!shape.gens[0].is_pure_point());
    }
}
