//! Concrete evaluation of properties against candidate generators.
//!
//! Used (a) to sanity-check synthesized solutions against their own
//! specification, and (b) by the tests to cross-validate the SMT
//! encoding: anything the solver claims must also hold concretely.

use super::ast::{CmpOp, Expr, GenFn, Prop};
use fec_hamming::robustness::choose_times_pow;
use fec_hamming::{distance, Generator};
use std::fmt;

/// A numeric value: the language mixes integers and reals.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    Int(i64),
    Real(f64),
}

impl Value {
    /// Numeric view for comparisons and real arithmetic.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(n) => n as f64,
            Value::Real(r) => r,
        }
    }

    /// Integer view; errors on a non-integral real.
    pub fn as_index(self) -> Result<usize, EvalError> {
        match self {
            Value::Int(n) if n >= 0 => Ok(n as usize),
            other => Err(EvalError(format!(
                "expected a non-negative integer, got {other:?}"
            ))),
        }
    }
}

/// An evaluation failure (index out of range, non-integer index, …).
#[derive(Clone, PartialEq, Debug)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// The concrete universe a property is evaluated against.
#[derive(Clone, Debug, Default)]
pub struct EvalContext {
    /// The generator set `G`.
    pub generators: Vec<Generator>,
    /// Per-bit criticality weights (empty when unused).
    pub weights: Vec<f64>,
    /// Bit→generator mapping (`map` in §3.2); parallel to `weights`.
    pub map: Vec<usize>,
    /// Channel bit-error probability for `sum_w`.
    pub bit_error_rate: f64,
    /// Pre-resolved minimum distances (e.g. from SAT queries in
    /// `verify`); when non-empty, `md(Gi)` reads `md_overrides[i]`
    /// instead of recomputing. Parallel to `generators`.
    pub md_overrides: Vec<usize>,
}

impl EvalContext {
    /// A context holding only generators (no weights).
    pub fn from_generators(generators: Vec<Generator>) -> EvalContext {
        EvalContext {
            generators,
            ..Default::default()
        }
    }

    fn generator(&self, idx: usize) -> Result<&Generator, EvalError> {
        self.generators
            .get(idx)
            .ok_or_else(|| EvalError(format!("generator index {idx} out of range")))
    }

    /// `md(G{idx})`: the pre-resolved value, else the exact distance.
    /// Past `k = 20` the column analysis only bounds it from below,
    /// which is an error here rather than a value.
    fn min_distance(&self, idx: usize, g: &Generator) -> Result<usize, EvalError> {
        if let Some(&d) = self.md_overrides.get(idx) {
            return Ok(d);
        }
        match distance::min_distance(g) {
            (d, true) => Ok(d),
            (d, false) => Err(EvalError(format!(
                "md(G{idx}) is only known to be ≥ {d} at k = {}",
                g.data_len()
            ))),
        }
    }

    /// The weighted objective `sum_w` from §3.2 constraint (6):
    /// `Σ_j w(j) · C(len_d(map(j)) + len_c(map(j)), md(map(j))) · p^md`.
    pub fn sum_w(&self) -> Result<f64, EvalError> {
        if self.map.len() != self.weights.len() {
            return Err(EvalError(format!(
                "map has {} entries but there are {} weights",
                self.map.len(),
                self.weights.len()
            )));
        }
        let mut total = 0.0;
        for (j, (&w, &gi)) in self.weights.iter().zip(&self.map).enumerate() {
            let g = self
                .generator(gi)
                .map_err(|_| EvalError(format!("map({j}) = {gi} out of range")))?;
            let md = self.min_distance(gi, g)?;
            total += w * choose_times_pow(g.codeword_len(), md, self.bit_error_rate);
        }
        Ok(total)
    }

    /// Evaluates a numeric expression.
    pub fn eval_expr(&self, e: &Expr) -> Result<Value, EvalError> {
        match e {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Real(r) => Ok(Value::Real(*r)),
            Expr::Add(a, b) => self.arith(a, b, |x, y| x + y, |x, y| x.checked_add(y)),
            Expr::Sub(a, b) => self.arith(a, b, |x, y| x - y, |x, y| x.checked_sub(y)),
            Expr::Mul(a, b) => self.arith(a, b, |x, y| x * y, |x, y| x.checked_mul(y)),
            Expr::Neg(e) => match self.eval_expr(e)? {
                Value::Int(n) => Ok(Value::Int(-n)),
                Value::Real(r) => Ok(Value::Real(-r)),
            },
            Expr::Cell { gen, row, col } => {
                let gi = self.eval_expr(gen)?.as_index()?;
                let g = self.generator(gi)?;
                let r = self.eval_expr(row)?.as_index()?;
                let c = self.eval_expr(col)?.as_index()?;
                if r >= g.data_len() || c >= g.codeword_len() {
                    return Err(EvalError(format!("cell ({r}, {c}) out of range for G{gi}")));
                }
                let bit = if c < g.data_len() {
                    c == r
                } else {
                    g.coefficients().get(r, c - g.data_len())
                };
                Ok(Value::Int(i64::from(bit)))
            }
            Expr::LenG => Ok(Value::Int(self.generators.len() as i64)),
            Expr::LenW => Ok(Value::Int(self.weights.len() as i64)),
            Expr::Weight(idx) => {
                let i = self.eval_expr(idx)?.as_index()?;
                self.weights
                    .get(i)
                    .map(|&w| Value::Real(w))
                    .ok_or_else(|| EvalError(format!("weight index {i} out of range")))
            }
            Expr::SumW => Ok(Value::Real(self.sum_w()?)),
            Expr::GenFn(func, gen) => {
                let gi = self.eval_expr(gen)?.as_index()?;
                let g = self.generator(gi)?;
                let v = match func {
                    GenFn::LenD => g.data_len() as i64,
                    GenFn::LenC => g.check_len() as i64,
                    GenFn::LenOnes => g.coefficient_ones() as i64,
                    GenFn::Md => self.min_distance(gi, g)? as i64,
                    GenFn::Corr => ((self.min_distance(gi, g)? - 1) / 2) as i64,
                };
                Ok(Value::Int(v))
            }
        }
    }

    fn arith(
        &self,
        a: &Expr,
        b: &Expr,
        fr: impl Fn(f64, f64) -> f64,
        fi: impl Fn(i64, i64) -> Option<i64>,
    ) -> Result<Value, EvalError> {
        let va = self.eval_expr(a)?;
        let vb = self.eval_expr(b)?;
        match (va, vb) {
            (Value::Int(x), Value::Int(y)) => fi(x, y)
                .map(Value::Int)
                .ok_or_else(|| EvalError("integer overflow".into())),
            _ => Ok(Value::Real(fr(va.as_f64(), vb.as_f64()))),
        }
    }

    /// Evaluates a property. `minimal`/`maximal` directives evaluate to
    /// `true` (they constrain the search, not the result).
    pub fn eval_prop(&self, p: &Prop) -> Result<bool, EvalError> {
        match p {
            Prop::True => Ok(true),
            Prop::False => Ok(false),
            Prop::Not(inner) => Ok(!self.eval_prop(inner)?),
            Prop::And(a, b) => Ok(self.eval_prop(a)? && self.eval_prop(b)?),
            Prop::Or(a, b) => Ok(self.eval_prop(a)? || self.eval_prop(b)?),
            Prop::Implies(a, b) => Ok(!self.eval_prop(a)? || self.eval_prop(b)?),
            Prop::Minimal(_) | Prop::Maximal(_) => Ok(true),
            Prop::Cmp(op, a, b) => {
                let x = self.eval_expr(a)?.as_f64();
                let y = self.eval_expr(b)?.as_f64();
                Ok(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Gt => x > y,
                    CmpOp::Le => x <= y,
                    CmpOp::Ge => x >= y,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_property;
    use fec_hamming::standards;

    fn ctx74() -> EvalContext {
        EvalContext::from_generators(vec![standards::hamming_7_4()])
    }

    #[test]
    fn evaluates_the_section31_example_on_hamming74() {
        let p = parse_property(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        assert!(ctx74().eval_prop(&p).unwrap());
    }

    #[test]
    fn md_evaluation_is_exact() {
        let p = parse_property("md(G0) = 3 && !(md(G0) = 4)").unwrap();
        assert!(ctx74().eval_prop(&p).unwrap());
        let p4 = parse_property("md(G0) = 4").unwrap();
        let ext = EvalContext::from_generators(vec![standards::hamming_extended_8_4()]);
        assert!(ext.eval_prop(&p4).unwrap());
    }

    #[test]
    fn inexact_distance_is_an_error() {
        // k = 21 is past exhaustive range: the column analysis of these
        // distinct odd-weight rows proves only md ≥ 4, which must not
        // read as md = 4 (or corr = 1)
        let rows: Vec<String> = (0u32..64)
            .filter(|v| matches!(v.count_ones(), 3 | 5))
            .take(21)
            .map(|v| format!("{v:06b}"))
            .collect();
        let g = Generator::from_coeff_str(&rows.join("\n")).unwrap();
        let ctx = EvalContext::from_generators(vec![g]);
        for src in ["md(G0) = 4", "corr(G0) = 1"] {
            assert!(
                ctx.eval_prop(&parse_property(src).unwrap()).is_err(),
                "{src}"
            );
        }
        // a distance resolved elsewhere (a SAT query) is read as given
        let resolved = EvalContext {
            md_overrides: vec![4],
            ..ctx
        };
        assert!(resolved
            .eval_prop(&parse_property("corr(G0) = 1").unwrap())
            .unwrap());
    }

    #[test]
    fn cell_access_reads_identity_and_coefficients() {
        let ctx = ctx74();
        // identity part
        let p = parse_property("G0(2, 2) = 1 && G0(2, 3) = 0").unwrap();
        assert!(ctx.eval_prop(&p).unwrap());
        // coefficient part: row 0 of P is 101 → columns 4,5,6 = 1,0,1
        let p = parse_property("G0(0, 4) = 1 && G0(0, 5) = 0 && G0(0, 6) = 1").unwrap();
        assert!(ctx.eval_prop(&p).unwrap());
    }

    #[test]
    fn len_ones_counts_coefficient_bits() {
        let p = parse_property("len_1(G0) = 9").unwrap();
        assert!(ctx74().eval_prop(&p).unwrap());
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let ctx = ctx74();
        let p = parse_property("len_d(G0) + len_c(G0) = 7 && 2 * len_c(G0) > 5").unwrap();
        assert!(ctx.eval_prop(&p).unwrap());
        let p = parse_property("len_d(G0) - 5 = -1").unwrap();
        assert!(ctx.eval_prop(&p).unwrap());
    }

    #[test]
    fn implication_and_disjunction() {
        let ctx = ctx74();
        assert!(ctx
            .eval_prop(&parse_property("len_G = 2 => false").unwrap())
            .unwrap());
        assert!(ctx
            .eval_prop(&parse_property("len_G = 2 || md(G0) = 3").unwrap())
            .unwrap());
    }

    #[test]
    fn out_of_range_errors() {
        let ctx = ctx74();
        assert!(ctx
            .eval_prop(&parse_property("md(G1) = 3").unwrap())
            .is_err());
        assert!(ctx
            .eval_prop(&parse_property("G0(9, 0) = 1").unwrap())
            .is_err());
        assert!(ctx
            .eval_prop(&parse_property("w(0) = 1.0").unwrap())
            .is_err());
    }

    #[test]
    fn sum_w_matches_hand_computation() {
        // two parity codes over 4 bits each, weights all 1, p = 0.1:
        // each bit contributes C(5, 2)·0.01 = 0.1 → total 0.8
        let mut ctx = EvalContext::from_generators(vec![
            standards::parity_code(4),
            standards::parity_code(4),
        ]);
        ctx.weights = vec![1.0; 8];
        ctx.map = vec![0, 0, 0, 0, 1, 1, 1, 1];
        ctx.bit_error_rate = 0.1;
        let got = ctx.sum_w().unwrap();
        assert!((got - 0.8).abs() < 1e-12, "got {got}");
        let p = parse_property("sum_w < 1").unwrap();
        assert!(ctx.eval_prop(&p).unwrap());
    }

    #[test]
    fn sum_w_requires_consistent_map() {
        let mut ctx = ctx74();
        ctx.weights = vec![1.0; 4];
        ctx.map = vec![0];
        assert!(ctx.sum_w().is_err());
    }
}
