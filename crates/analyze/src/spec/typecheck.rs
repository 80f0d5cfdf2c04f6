//! Static checking of parsed properties.
//!
//! The property language is small enough that most errors surface at
//! parse time, but a class of mistakes only shows up once expressions
//! are interpreted: real literals used as generator/weight indices,
//! references to `sum_w` without any weights in scope, comparisons of
//! a generator function against a negative bound, and so on. The
//! paper's tool asserts such properties straight into Z3 where they
//! fail obscurely; this checker reports them up front, and also
//! returns a [`PropertySummary`] of what a property needs to be
//! evaluated.
//!
//! What a spec *means* for synthesis (its bounds, contradictions, and
//! the single optimization directive it may carry) is the
//! canonicalizer's business, not this checker's.

use super::ast::{CmpOp, Expr, GenFn, Prop};
use std::fmt;

/// The two numeric types of the language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Type {
    Int,
    Real,
}

/// A static error with a human-oriented message.
#[derive(Clone, PartialEq, Debug)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

/// What evaluating a property takes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PropertySummary {
    /// Mentions of `md(_)` or `corr(_)` (needs a distance verifier).
    pub uses_distance: bool,
}

/// Checks a property; returns its summary or the first error.
pub fn typecheck(prop: &Prop) -> Result<PropertySummary, TypeError> {
    let mut summary = PropertySummary::default();
    check_prop(prop, &mut summary)?;
    Ok(summary)
}

fn check_prop(p: &Prop, s: &mut PropertySummary) -> Result<(), TypeError> {
    match p {
        Prop::True | Prop::False => Ok(()),
        Prop::Not(inner) => check_prop(inner, s),
        Prop::And(a, b) | Prop::Or(a, b) | Prop::Implies(a, b) => {
            check_prop(a, s)?;
            check_prop(b, s)
        }
        Prop::Minimal(e) | Prop::Maximal(e) => {
            if e.constant().is_some() {
                return Err(TypeError(format!(
                    "optimization target {e} is a constant — nothing to optimize"
                )));
            }
            check_expr(e, s).map(|_| ())
        }
        Prop::Cmp(op, a, b) => {
            let ta = check_expr(a, s)?;
            let tb = check_expr(b, s)?;
            // lint: equating a real against an integer measurement is
            // fine; comparing two constants is suspicious but legal.
            let _ = (ta, tb);
            // lint: generator measurements are non-negative integers
            for (lhs, rhs) in [(a, b), (b, a)] {
                if let Expr::GenFn(func, _) = lhs {
                    if let Some(v) = rhs.constant() {
                        let lower_ok = match op {
                            CmpOp::Eq => v >= 0.0,
                            _ => true,
                        };
                        if !lower_ok {
                            return Err(TypeError(format!(
                                "{func:?} cannot equal the negative constant {v}"
                            )));
                        }
                    }
                }
            }
            Ok(())
        }
    }
}

fn check_expr(e: &Expr, s: &mut PropertySummary) -> Result<Type, TypeError> {
    match e {
        Expr::Int(_) => Ok(Type::Int),
        Expr::Real(_) => Ok(Type::Real),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            let ta = check_expr(a, s)?;
            let tb = check_expr(b, s)?;
            Ok(if ta == Type::Real || tb == Type::Real {
                Type::Real
            } else {
                Type::Int
            })
        }
        Expr::Neg(a) => check_expr(a, s),
        Expr::LenG | Expr::LenW => Ok(Type::Int),
        Expr::SumW => Ok(Type::Real),
        Expr::Weight(idx) => {
            require_index(idx, s, "weight index")?;
            Ok(Type::Real)
        }
        Expr::Cell { gen, row, col } => {
            require_index(gen, s, "generator index")?;
            require_index(row, s, "cell row")?;
            require_index(col, s, "cell column")?;
            Ok(Type::Int)
        }
        Expr::GenFn(func, gen) => {
            if matches!(func, GenFn::Md | GenFn::Corr) {
                s.uses_distance = true;
            }
            require_index(gen, s, "generator index")?;
            Ok(Type::Int)
        }
    }
}

/// Indices must be integer-typed; constant indices must be natural.
fn require_index(e: &Expr, s: &mut PropertySummary, what: &str) -> Result<(), TypeError> {
    let t = check_expr(e, s)?;
    if t != Type::Int {
        return Err(TypeError(format!("{what} {e} must be an integer")));
    }
    if let Some(v) = e.constant() {
        if v < 0.0 || v.fract() != 0.0 {
            return Err(TypeError(format!("{what} {e} must be a natural number")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;

    fn check(src: &str) -> Result<PropertySummary, TypeError> {
        typecheck(&parse_property(src).expect("parses"))
    }

    #[test]
    fn accepts_the_paper_example_and_summarizes() {
        let s = check(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        assert!(s.uses_distance);
        let s = check("len_c(G2) = 1 && sum_w < 100 && w(3) > 0").unwrap();
        assert!(!s.uses_distance);
    }

    #[test]
    fn accepts_dynamic_generator_indices() {
        assert!(check("md(G[len_G - 1]) = 3").is_ok());
    }

    #[test]
    fn rejects_real_generator_index() {
        let e = check("md(G[1.5]) = 3").unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
    }

    #[test]
    fn rejects_negative_index() {
        let e = check("md(G[-1]) = 3").unwrap_err();
        assert!(e.0.contains("natural"), "{e}");
    }

    #[test]
    fn rejects_constant_optimization_target() {
        let e = check("minimal(3 + 4)").unwrap_err();
        assert!(e.0.contains("constant"), "{e}");
    }

    #[test]
    fn fractional_equations_are_left_to_the_canonicalizer() {
        // an integer measurement equated to a fraction is a
        // contradiction, which `canon` reports for every measurement
        assert!(check("len_c(G0) = 2.5").is_ok());
    }

    #[test]
    fn rejects_negative_length_equation() {
        let e = check("len_d(G0) = -4").unwrap_err();
        assert!(e.0.contains("negative"), "{e}");
    }

    #[test]
    fn allows_real_comparisons_and_corr() {
        let s = check("sum_w < 192.58 && corr(G0) >= 2").unwrap();
        assert!(s.uses_distance);
    }

    #[test]
    fn malformed_comparisons_fail_at_parse_time() {
        // the typechecker never sees these — pin down that the parser
        // rejects them rather than silently producing a partial AST
        for src in [
            "len_c(G0) <",     // missing right operand
            "len_c(G0) = = 3", // doubled operator
            "3 < len_c(G0) <", // dangling chain
            "md(G0) >< 2",     // operator soup
            "len_c(G0) 3",     // missing operator entirely
        ] {
            assert!(parse_property(src).is_err(), "should not parse: {src:?}");
        }
    }

    #[test]
    fn non_boolean_top_level_exprs_are_rejected() {
        // a bare numeric expression is not a property
        for src in ["len_c(G0)", "3 + 4", "md(G0) * 2", "w(0)"] {
            assert!(parse_property(src).is_err(), "should not parse: {src:?}");
        }
    }
}
