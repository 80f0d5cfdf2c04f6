//! Canonical normal form for parsed properties.
//!
//! Two specs that mean the same thing should *look* the same thing:
//! the canonicalizer constant-folds pure arithmetic (an integral
//! result, `4.0` included, becomes an integer), normalizes comparisons
//! (measurement left, constant right, strict integer comparisons
//! widened to inclusive ones), narrows repeated bounds on the same
//! measurement to their tightest interval, drops dead conjuncts, sorts
//! the surviving conjuncts into a fixed order, and hashes the result.
//! The hash is content-addressed: any spec equal modulo whitespace,
//! conjunct order, redundant bounds, or foldable arithmetic maps to the
//! same `fecspec-v1:` key, which `fecsynth analyze` prints beside the
//! canonical form.
//!
//! This is the only code that folds, flips, widens or narrows a
//! comparison: [`ProblemShape::from_prop`](crate::ProblemShape::from_prop)
//! reads the canonical form, so `fecsynth analyze` and `fecsynth synth`
//! give a spec one meaning whatever the order of its conjuncts.
//!
//! Every rewrite that discards or tightens user-written text is
//! reported as a typed [`Lint`] and mirrored to `fec-trace` as an
//! `analyze.lint` warning event. A `contradiction` or
//! `duplicate-directive` lint makes the spec an error for the shape
//! builder.

use crate::spec::{CmpOp, Expr, GenFn, Prop};
use fec_trace::Level;
use std::collections::BTreeMap;
use std::fmt;

/// Typed lint classes (stable kebab-case names via [`LintClass::as_str`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintClass {
    /// The same conjunct appears more than once.
    DuplicateConjunct,
    /// A bound is subsumed by a tighter bound on the same measurement.
    RedundantConjunct,
    /// A conjunct is always true and constrains nothing.
    Tautology,
    /// A conjunct (or a bound combination) can never hold.
    Contradiction,
    /// More than one `minimal`/`maximal` directive.
    DuplicateDirective,
}

impl LintClass {
    /// Stable machine-readable class name.
    pub fn as_str(self) -> &'static str {
        match self {
            LintClass::DuplicateConjunct => "duplicate-conjunct",
            LintClass::RedundantConjunct => "redundant-conjunct",
            LintClass::Tautology => "tautology",
            LintClass::Contradiction => "contradiction",
            LintClass::DuplicateDirective => "duplicate-directive",
        }
    }
}

/// A single canonicalization warning.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lint {
    pub class: LintClass,
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint[{}]: {}", self.class.as_str(), self.message)
    }
}

/// The canonicalizer's output: normal form, lints, content hash.
#[derive(Clone, Debug)]
pub struct CanonReport {
    /// The canonical normal form.
    pub prop: Prop,
    /// Everything the rewrite discarded, tightened, or found suspect.
    pub lints: Vec<Lint>,
    /// `fecspec-v1:<fnv1a64 of the canonical text>` — the stable
    /// content-address of the spec.
    pub hash: String,
}

impl CanonReport {
    /// The canonical source text (what the hash covers).
    pub fn canonical_text(&self) -> String {
        display_conjuncts(&self.prop)
    }
}

/// Renders a prop as `&&`-joined conjuncts without the outer parens
/// `Prop::Display` adds around every `And`.
fn display_conjuncts(p: &Prop) -> String {
    p.conjuncts()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" && ")
}

/// 64-bit FNV-1a.
fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content hash of a property: canonicalizes, then hashes the
/// canonical text. Equal specs modulo conjunct order, whitespace,
/// redundant bounds, and foldable arithmetic get equal keys.
pub fn canonical_hash(prop: &Prop) -> String {
    canonicalize(prop).hash
}

/// Constant-folds pure-arithmetic subtrees; integral results become
/// `Int` (so `4.0` bounds a measurement as `4` does), others `Real`.
fn fold_expr(e: &Expr) -> Expr {
    if let Some(v) = e.constant() {
        if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
            return Expr::Int(v as i64);
        }
        return Expr::Real(v);
    }
    match e {
        Expr::Add(a, b) => Expr::Add(Box::new(fold_expr(a)), Box::new(fold_expr(b))),
        Expr::Sub(a, b) => Expr::Sub(Box::new(fold_expr(a)), Box::new(fold_expr(b))),
        Expr::Mul(a, b) => Expr::Mul(Box::new(fold_expr(a)), Box::new(fold_expr(b))),
        Expr::Neg(a) => Expr::Neg(Box::new(fold_expr(a))),
        Expr::Cell { gen, row, col } => Expr::Cell {
            gen: Box::new(fold_expr(gen)),
            row: Box::new(fold_expr(row)),
            col: Box::new(fold_expr(col)),
        },
        Expr::Weight(i) => Expr::Weight(Box::new(fold_expr(i))),
        Expr::GenFn(f, g) => Expr::GenFn(*f, Box::new(fold_expr(g))),
        other => other.clone(),
    }
}

/// A measurement the interval narrower understands.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Measure {
    LenG,
    Gen(u8, usize), // (function rank, generator index)
    /// A coefficient cell `(generator, row, column)`; only its
    /// equalities are narrowed.
    Cell(usize, usize, usize),
}

fn gen_fn_rank(f: GenFn) -> u8 {
    match f {
        GenFn::LenD => 0,
        GenFn::LenC => 1,
        GenFn::LenOnes => 2,
        GenFn::Md => 3,
        GenFn::Corr => 4,
    }
}

fn rank_to_gen_fn(r: u8) -> GenFn {
    match r {
        0 => GenFn::LenD,
        1 => GenFn::LenC,
        2 => GenFn::LenOnes,
        3 => GenFn::Md,
        _ => GenFn::Corr,
    }
}

/// Recognizes `measure ⋈ integer-constant` (after normalization) for
/// the narrowable integer measurements, and `cell = integer-constant`.
fn as_interval_atom(p: &Prop) -> Option<(Measure, CmpOp, i64)> {
    let Prop::Cmp(op, lhs, Expr::Int(v)) = p else {
        return None;
    };
    let index = |e: &Expr| match *e {
        Expr::Int(i) => usize::try_from(i).ok(),
        _ => None,
    };
    match lhs {
        Expr::LenG => Some((Measure::LenG, *op, *v)),
        Expr::GenFn(f, g) => Some((Measure::Gen(gen_fn_rank(*f), index(g)?), *op, *v)),
        Expr::Cell { gen, row, col } if *op == CmpOp::Eq => Some((
            Measure::Cell(index(gen)?, index(row)?, index(col)?),
            *op,
            *v,
        )),
        _ => None,
    }
}

fn measure_expr(m: Measure) -> Expr {
    let int = |i: usize| Box::new(Expr::Int(i as i64));
    match m {
        Measure::LenG => Expr::LenG,
        Measure::Gen(r, i) => Expr::GenFn(rank_to_gen_fn(r), int(i)),
        Measure::Cell(g, r, c) => Expr::Cell {
            gen: int(g),
            row: int(r),
            col: int(c),
        },
    }
}

/// Accumulated bounds on one measurement.
#[derive(Default)]
struct Interval {
    eq: Vec<i64>,
    lo: Option<i64>, // max of ≥ bounds
    hi: Option<i64>, // min of ≤ bounds
    ne: Vec<i64>,
}

/// Sort bucket for the canonical conjunct order: structure first
/// (len_G, then per-generator measurements), then cells, then
/// weight/other comparisons, then directives.
fn conjunct_rank(p: &Prop) -> u8 {
    match p {
        Prop::Cmp(_, Expr::LenG, _) => 0,
        Prop::Cmp(_, Expr::GenFn(_, _), _) => 1,
        Prop::Cmp(_, Expr::Cell { .. }, _) => 2,
        Prop::Cmp(..) => 3,
        Prop::Minimal(_) | Prop::Maximal(_) => 9,
        _ => 4,
    }
}

/// Canonicalizes a property: folding, normalization, interval
/// narrowing, dead-conjunct removal, sorting, and hashing. Lints are
/// mirrored to `fec-trace` as `analyze.lint` warning events.
pub fn canonicalize(prop: &Prop) -> CanonReport {
    let mut lints: Vec<Lint> = Vec::new();
    let mut kept: Vec<Prop> = Vec::new();
    let mut intervals: BTreeMap<Measure, Interval> = BTreeMap::new();
    let mut directives: Vec<Prop> = Vec::new();

    for conj in prop.conjuncts() {
        let c = canon_conjunct(conj, &mut lints);
        let Some(c) = c else { continue };
        match &c {
            Prop::Minimal(_) | Prop::Maximal(_) => {
                if directives.contains(&c) {
                    lints.push(Lint {
                        class: LintClass::DuplicateConjunct,
                        message: format!("directive {c} repeated"),
                    });
                } else {
                    directives.push(c);
                }
            }
            _ => {
                if let Some((m, op, v)) = as_interval_atom(&c) {
                    let iv = intervals.entry(m).or_default();
                    match op {
                        CmpOp::Eq => iv.eq.push(v),
                        CmpOp::Ne => iv.ne.push(v),
                        CmpOp::Ge => iv.lo = Some(iv.lo.map_or(v, |o| o.max(v))),
                        CmpOp::Le => iv.hi = Some(iv.hi.map_or(v, |o| o.min(v))),
                        // Lt/Gt were widened by canon_conjunct
                        CmpOp::Lt | CmpOp::Gt => unreachable!("strict ops are widened"),
                    }
                } else if kept.contains(&c) {
                    lints.push(Lint {
                        class: LintClass::DuplicateConjunct,
                        message: format!("conjunct {c} repeated"),
                    });
                } else {
                    kept.push(c);
                }
            }
        }
    }

    if directives.len() > 1 {
        lints.push(Lint {
            class: LintClass::DuplicateDirective,
            message: format!(
                "{} optimization directives — synthesis accepts at most one",
                directives.len()
            ),
        });
    }

    // narrow each measurement's bounds to the minimal conjunct set
    for (m, iv) in &intervals {
        let me = measure_expr(*m);
        let mut eqs = iv.eq.clone();
        eqs.sort_unstable();
        eqs.dedup();
        if eqs.len() > 1 {
            lints.push(Lint {
                class: LintClass::Contradiction,
                message: format!("{me} equated to {} distinct values {:?}", eqs.len(), eqs),
            });
        } else if iv.eq.len() > 1 {
            lints.push(Lint {
                class: LintClass::DuplicateConjunct,
                message: format!("{me} = {} repeated", eqs[0]),
            });
        }
        if let (Some(lo), Some(hi)) = (iv.lo, iv.hi) {
            if lo > hi {
                lints.push(Lint {
                    class: LintClass::Contradiction,
                    message: format!("{me} bounds are empty: {me} >= {lo} && {me} <= {hi}"),
                });
            }
        }
        if !eqs.is_empty() {
            // an equality subsumes interval bounds
            for (bound, text) in [(iv.lo, ">="), (iv.hi, "<=")] {
                if let Some(b) = bound {
                    let ok = (text == ">=" && eqs.iter().all(|&e| e >= b))
                        || (text == "<=" && eqs.iter().all(|&e| e <= b));
                    lints.push(Lint {
                        class: if ok {
                            LintClass::RedundantConjunct
                        } else {
                            LintClass::Contradiction
                        },
                        message: format!(
                            "{me} {text} {b} is {} by the equality {me} = {}",
                            if ok { "subsumed" } else { "contradicted" },
                            eqs[0]
                        ),
                    });
                }
            }
            for e in eqs {
                kept.push(Prop::Cmp(CmpOp::Eq, me.clone(), Expr::Int(e)));
            }
        } else {
            if let Some(lo) = iv.lo {
                kept.push(Prop::Cmp(CmpOp::Ge, me.clone(), Expr::Int(lo)));
            }
            if let Some(hi) = iv.hi {
                kept.push(Prop::Cmp(CmpOp::Le, me.clone(), Expr::Int(hi)));
            }
        }
        let mut nes = iv.ne.clone();
        nes.sort_unstable();
        nes.dedup();
        for v in nes {
            kept.push(Prop::Cmp(CmpOp::Ne, me.clone(), Expr::Int(v)));
        }
    }

    kept.extend(directives);
    // canonical order: bucket rank, then display text (stable + total)
    kept.sort_by_key(|a| (conjunct_rank(a), a.to_string()));

    let canon = kept
        .into_iter()
        .rev()
        .reduce(|acc, c| Prop::And(Box::new(c), Box::new(acc)))
        .unwrap_or(Prop::True);
    let text = display_conjuncts(&canon);
    let hash = format!("fecspec-v1:{:016x}", fnv1a64(&text));

    for l in &lints {
        fec_trace::event(
            Level::Warn,
            "analyze.lint",
            &[
                ("class", l.class.as_str().into()),
                ("message", l.message.clone().into()),
            ],
        );
    }

    CanonReport {
        prop: canon,
        lints,
        hash,
    }
}

/// Canonicalizes one conjunct; `None` drops it (with a lint when the
/// drop is informative).
fn canon_conjunct(p: &Prop, lints: &mut Vec<Lint>) -> Option<Prop> {
    match p {
        Prop::True => None, // vacuous, not worth a lint
        Prop::False => {
            lints.push(Lint {
                class: LintClass::Contradiction,
                message: "property contains false".into(),
            });
            Some(Prop::False)
        }
        Prop::Minimal(e) => Some(Prop::Minimal(fold_expr(e))),
        Prop::Maximal(e) => Some(Prop::Maximal(fold_expr(e))),
        Prop::Cmp(op, lhs, rhs) => {
            let (mut lhs, mut rhs) = (fold_expr(lhs), fold_expr(rhs));
            let mut op = *op;
            // both sides constant: the conjunct is decided
            if let (Some(a), Some(b)) = (lhs.constant(), rhs.constant()) {
                let holds = match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Gt => a > b,
                    CmpOp::Le => a <= b,
                    CmpOp::Ge => a >= b,
                };
                return if holds {
                    lints.push(Lint {
                        class: LintClass::Tautology,
                        message: format!("{p} is always true"),
                    });
                    None
                } else {
                    lints.push(Lint {
                        class: LintClass::Contradiction,
                        message: format!("{p} is always false"),
                    });
                    Some(Prop::False)
                };
            }
            // measurement left, constant right
            if lhs.constant().is_some() && rhs.constant().is_none() {
                std::mem::swap(&mut lhs, &mut rhs);
                op = flip(op);
            }
            // widen strict integer comparisons on integer measurements,
            // and round fractional bounds to the integers they admit
            if is_integer_measure(&lhs) {
                match (op, &rhs) {
                    (CmpOp::Lt, &Expr::Int(v)) => (op, rhs) = (CmpOp::Le, Expr::Int(v - 1)),
                    (CmpOp::Gt, &Expr::Int(v)) => (op, rhs) = (CmpOp::Ge, Expr::Int(v + 1)),
                    // a finite non-integral real lies strictly between
                    // two integers that fit an i64
                    (_, &Expr::Real(r)) if r.is_finite() && r.fract() != 0.0 => match op {
                        CmpOp::Lt | CmpOp::Le => {
                            (op, rhs) = (CmpOp::Le, Expr::Int(r.floor() as i64))
                        }
                        CmpOp::Gt | CmpOp::Ge => {
                            (op, rhs) = (CmpOp::Ge, Expr::Int(r.ceil() as i64))
                        }
                        CmpOp::Eq | CmpOp::Ne => {
                            let eq = op == CmpOp::Eq;
                            lints.push(Lint {
                                class: if eq {
                                    LintClass::Contradiction
                                } else {
                                    LintClass::Tautology
                                },
                                message: format!("{p} is always {}: {lhs} is an integer", !eq),
                            });
                            return eq.then_some(Prop::False);
                        }
                    },
                    _ => {}
                }
            }
            Some(Prop::Cmp(op, lhs, rhs))
        }
        // Non-conjunctive connectives are folded structurally but not
        // rewritten: soundly narrowing under negation/disjunction
        // needs more care than it buys.
        Prop::Not(_) | Prop::Or(..) | Prop::Implies(..) => Some(fold_prop(p)),
        Prop::And(..) => unreachable!("conjuncts() flattens And"),
    }
}

/// Folds constants in all expressions of a property without
/// restructuring it (used under `!`, `||`, `=>`).
fn fold_prop(p: &Prop) -> Prop {
    match p {
        Prop::True | Prop::False => p.clone(),
        Prop::Cmp(op, a, b) => Prop::Cmp(*op, fold_expr(a), fold_expr(b)),
        Prop::Not(a) => Prop::Not(Box::new(fold_prop(a))),
        Prop::And(a, b) => Prop::And(Box::new(fold_prop(a)), Box::new(fold_prop(b))),
        Prop::Or(a, b) => Prop::Or(Box::new(fold_prop(a)), Box::new(fold_prop(b))),
        Prop::Implies(a, b) => Prop::Implies(Box::new(fold_prop(a)), Box::new(fold_prop(b))),
        Prop::Minimal(e) => Prop::Minimal(fold_expr(e)),
        Prop::Maximal(e) => Prop::Maximal(fold_expr(e)),
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Measurements with integer ranges (strict bounds widen to inclusive).
fn is_integer_measure(e: &Expr) -> bool {
    matches!(e, Expr::LenG | Expr::LenW | Expr::GenFn(_, _))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;

    fn canon(src: &str) -> CanonReport {
        canonicalize(&parse_property(src).expect("parses"))
    }

    #[test]
    fn order_and_whitespace_do_not_change_the_hash() {
        let a = canon("len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4");
        let b = canon("md(G0)=3&&len_c(G0)<=4   &&   len_d(G0)=4");
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert!(a.lints.is_empty(), "{:?}", a.lints);
        assert!(a.hash.starts_with("fecspec-v1:"), "{}", a.hash);
    }

    #[test]
    fn arithmetic_folds_into_the_same_hash() {
        let a = canon("len_d(G0) = 2 + 2 && md(G0) = 3");
        let b = canon("len_d(G0) = 4 && md(G0) = 3");
        assert_eq!(a.hash, b.hash);
    }

    #[test]
    fn strict_bounds_widen_and_flip() {
        let a = canon("len_c(G0) < 5 && len_d(G0) = 4");
        let b = canon("4 >= len_c(G0) && len_d(G0) = 4");
        assert_eq!(a.hash, b.hash);
        assert!(
            a.canonical_text().contains("len_c(G[0]) <= 4"),
            "{}",
            a.canonical_text()
        );
    }

    #[test]
    fn integral_reals_bound_as_integers() {
        let a = canon("len_c(G0) < 4.0 && len_d(G0) = 4.0");
        assert_eq!(a.hash, canon("len_c(G0) <= 3 && len_d(G0) = 4").hash);
    }

    #[test]
    fn fractional_bounds_round_to_the_integers_they_admit() {
        for (src, text) in [
            ("len_c(G0) < 4.5", "len_c(G[0]) <= 4"),
            ("len_c(G0) <= 4.5", "len_c(G[0]) <= 4"),
            ("md(G0) > 2.5", "md(G[0]) >= 3"),
            ("md(G0) >= 2.5", "md(G[0]) >= 3"),
            ("4.5 > len_c(G0)", "len_c(G[0]) <= 4"),
            ("len_G <= 2.5", "len_G <= 2"),
            ("md(G0) >= 2.5 && md(G0) >= 3", "md(G[0]) >= 3"),
        ] {
            let r = canon(src);
            assert_eq!(r.canonical_text(), text, "{src}");
        }
        let r = canon("len_d(G0) = 4 && len_c(G0) = 4.5");
        assert!(
            r.lints.iter().any(|l| l.class == LintClass::Contradiction),
            "{:?}",
            r.lints
        );
        let r = canon("len_d(G0) = 4 && len_c(G0) != 4.5");
        assert!(r.lints.iter().any(|l| l.class == LintClass::Tautology));
        assert_eq!(r.hash, canon("len_d(G0) = 4").hash);
        // a fractional cell value is no integer measurement's bound
        let r = canon("G0(0, 4) <= 0.5");
        assert_eq!(r.canonical_text(), "G[0](0, 4) <= 0.5");
    }

    #[test]
    fn cell_equalities_narrow_like_measurements() {
        let r = canon("len_d(G0) = 4 && G0(0, 4) = 1 && G0(0, 4) = 0");
        assert!(
            r.lints.iter().any(|l| l.class == LintClass::Contradiction),
            "{:?}",
            r.lints
        );
        let r = canon("len_d(G0) = 4 && G0(0, 4) = 1 && G0(0, 2 + 2) = 1");
        assert_eq!(
            r.lints.iter().map(|l| l.class).collect::<Vec<_>>(),
            [LintClass::DuplicateConjunct]
        );
        assert_eq!(r.hash, canon("len_d(G0) = 4 && G0(0, 4) = 1").hash);
        // distinct cells are independent
        let r = canon("len_d(G0) = 4 && G0(0, 4) = 1 && G0(1, 4) = 0");
        assert!(r.lints.is_empty(), "{:?}", r.lints);
    }

    #[test]
    fn redundant_bounds_narrow_with_lints() {
        let r = canon("len_d(G0) = 4 && md(G0) >= 2 && md(G0) >= 3 && md(G0) <= 7");
        let text = r.canonical_text();
        assert!(text.contains("md(G[0]) >= 3"), "{text}");
        assert!(!text.contains(">= 2"), "{text}");
        // narrowed form hashes like the hand-minimized spec
        let min = canon("len_d(G0) = 4 && md(G0) >= 3 && md(G0) <= 7");
        assert_eq!(r.hash, min.hash);
    }

    #[test]
    fn equality_subsumes_interval_bounds() {
        let r = canon("len_c(G0) = 4 && len_c(G0) <= 9 && len_d(G0) = 4");
        assert!(
            r.lints
                .iter()
                .any(|l| l.class == LintClass::RedundantConjunct),
            "{:?}",
            r.lints
        );
        assert_eq!(r.hash, canon("len_c(G0) = 4 && len_d(G0) = 4").hash);
    }

    #[test]
    fn contradictions_are_reported_not_silently_fixed() {
        let r = canon("len_c(G0) = 4 && len_c(G0) = 5");
        assert!(
            r.lints.iter().any(|l| l.class == LintClass::Contradiction),
            "{:?}",
            r.lints
        );
        let r = canon("len_c(G0) >= 5 && len_c(G0) <= 3");
        assert!(
            r.lints.iter().any(|l| l.class == LintClass::Contradiction),
            "{:?}",
            r.lints
        );
    }

    #[test]
    fn constant_comparisons_fold_away() {
        let r = canon("3 < 4 && len_d(G0) = 4");
        assert!(r.lints.iter().any(|l| l.class == LintClass::Tautology));
        assert_eq!(r.hash, canon("len_d(G0) = 4").hash);
        let r = canon("3 > 4 && len_d(G0) = 4");
        assert!(r.lints.iter().any(|l| l.class == LintClass::Contradiction));
        assert!(r.canonical_text().contains("false"));
    }

    #[test]
    fn duplicate_conjuncts_and_directives_lint() {
        let r = canon("len_d(G0) = 4 && len_d(G0) = 4");
        assert!(
            r.lints
                .iter()
                .any(|l| l.class == LintClass::DuplicateConjunct),
            "{:?}",
            r.lints
        );
        let r = canon("len_d(G0) = 4 && minimal(len_c(G0)) && maximal(len_1(G0))");
        assert!(
            r.lints
                .iter()
                .any(|l| l.class == LintClass::DuplicateDirective),
            "{:?}",
            r.lints
        );
    }

    #[test]
    fn directives_sort_last_and_survive() {
        let r = canon("minimal(len_c(G0)) && len_d(G0) = 4 && md(G0) = 3");
        let text = r.canonical_text();
        assert!(text.ends_with("minimal(len_c(G[0]))"), "{text}");
    }

    #[test]
    fn empty_property_canonicalizes_to_true() {
        let r = canon("true && true");
        assert_eq!(r.prop, Prop::True);
    }
}
