//! Abstract syntax for the Fig. 3 property language.

use std::fmt;

/// Per-generator measurement functions (`f` in Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum GenFn {
    /// `len_d(G_e)`: data length.
    LenD,
    /// `len_c(G_e)`: number of check bits.
    LenC,
    /// `len_1(G_e)`: number of set bits in the coefficient matrix.
    LenOnes,
    /// `md(G_e)`: minimum distance.
    Md,
    /// `corr(G_e)`: number of bit errors correctable by
    /// nearest-syndrome decoding, `⌊(md − 1) / 2⌋`. Not in the paper's
    /// Fig. 3 grammar — this is the §6 future-work property
    /// ("number of correctable bit errors") implemented.
    Corr,
}

/// Numeric expressions (`e` in Fig. 3).
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer constant.
    Int(i64),
    /// Real constant.
    Real(f64),
    /// `e + e`.
    Add(Box<Expr>, Box<Expr>),
    /// `e - e`.
    Sub(Box<Expr>, Box<Expr>),
    /// `e * e`.
    Mul(Box<Expr>, Box<Expr>),
    /// `-e`.
    Neg(Box<Expr>),
    /// `G_e(e, e)`: the cell at (row, col) of generator `gen` —
    /// over the *full* matrix `G = (I | P)`, as in the paper.
    Cell {
        gen: Box<Expr>,
        row: Box<Expr>,
        col: Box<Expr>,
    },
    /// `len_G`: number of generators.
    LenG,
    /// `len_w`: number of weights.
    LenW,
    /// `w(e)`: the weight at an index.
    Weight(Box<Expr>),
    /// `sum_w`: the weighted undetected-error objective.
    SumW,
    /// `f(G_e)` for `f ∈ {len_d, len_c, len_1, md}`.
    GenFn(GenFn, Box<Expr>),
}

/// Comparison operators (`c` in Fig. 3, plus `≤`/`≥` sugar).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

/// Properties (`φ` in Fig. 3).
#[derive(Clone, PartialEq, Debug)]
pub enum Prop {
    True,
    False,
    Cmp(CmpOp, Expr, Expr),
    Not(Box<Prop>),
    And(Box<Prop>, Box<Prop>),
    Or(Box<Prop>, Box<Prop>),
    Implies(Box<Prop>, Box<Prop>),
    /// `minimal(e)`: minimize `e` during synthesis (pseudo-property).
    Minimal(Expr),
    /// `maximal(e)`: maximize `e` during synthesis (pseudo-property).
    Maximal(Expr),
}

impl Prop {
    /// Flattens top-level conjunction into a list (the paper's
    /// `props = ψ₀, …, ψ_k` view of a specification).
    pub fn conjuncts(&self) -> Vec<&Prop> {
        let mut out = Vec::new();
        fn walk<'a>(p: &'a Prop, out: &mut Vec<&'a Prop>) {
            match p {
                Prop::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }
}

impl Expr {
    /// The value of a pure-arithmetic expression: literals under `+`,
    /// `-`, `*` and negation. `None` once it reads a measurement, even
    /// one (like `len_G`) a concrete context could evaluate. This is
    /// the language's one constant folder.
    pub fn constant(&self) -> Option<f64> {
        Some(match self {
            Expr::Int(n) => *n as f64,
            Expr::Real(r) => *r,
            Expr::Add(a, b) => a.constant()? + b.constant()?,
            Expr::Sub(a, b) => a.constant()? - b.constant()?,
            Expr::Mul(a, b) => a.constant()? * b.constant()?,
            Expr::Neg(a) => -a.constant()?,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Real(r) => write!(f, "{r}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Cell { gen, row, col } => write!(f, "G[{gen}]({row}, {col})"),
            Expr::LenG => write!(f, "len_G"),
            Expr::LenW => write!(f, "len_w"),
            Expr::Weight(e) => write!(f, "w({e})"),
            Expr::SumW => write!(f, "sum_w"),
            Expr::GenFn(func, g) => {
                let name = match func {
                    GenFn::LenD => "len_d",
                    GenFn::LenC => "len_c",
                    GenFn::LenOnes => "len_1",
                    GenFn::Md => "md",
                    GenFn::Corr => "corr",
                };
                write!(f, "{name}(G[{g}])")
            }
        }
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::True => write!(f, "true"),
            Prop::False => write!(f, "false"),
            Prop::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Prop::Not(p) => write!(f, "!({p})"),
            Prop::And(a, b) => write!(f, "({a} && {b})"),
            Prop::Or(a, b) => write!(f, "({a} || {b})"),
            Prop::Implies(a, b) => write!(f, "({a} => {b})"),
            Prop::Minimal(e) => write!(f, "minimal({e})"),
            Prop::Maximal(e) => write!(f, "maximal({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let p = Prop::And(
            Box::new(Prop::And(Box::new(Prop::True), Box::new(Prop::False))),
            Box::new(Prop::Minimal(Expr::LenG)),
        );
        let cs = p.conjuncts();
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn constants_fold_and_measurements_do_not() {
        let two = Box::new(Expr::Int(2));
        let sum = Expr::Add(two.clone(), Box::new(Expr::Real(0.5)));
        assert_eq!(Expr::Neg(Box::new(sum)).constant(), Some(-2.5));
        assert_eq!(Expr::Mul(two, Box::new(Expr::LenG)).constant(), None);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let e = Expr::GenFn(GenFn::LenC, Box::new(Expr::Int(0)));
        assert_eq!(format!("{e}"), "len_c(G[0])");
        let p = Prop::Cmp(CmpOp::Le, e, Expr::Int(4));
        assert_eq!(format!("{p}"), "len_c(G[0]) <= 4");
    }
}
